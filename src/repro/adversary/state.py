"""Live adversary state: a schedule realized against one network and scope.

One :class:`AdversaryState` serves one default-model task or one contended
run (the ``scope`` label keeps their derived seeds apart, exactly like the
engine's per-task loss streams).  It answers the three questions the engine
seams ask — *does this node swallow this packet*, *where does this node
claim to be*, and *which nodes never beacon* — and schedules jammer traffic
on the contended channel.  All randomness flows through
:func:`~repro.simkit.rng.derive_seed` from the schedule's own seed, so
adversarial runs replay bit-identically and never perturb benign streams.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Optional

import numpy as np

from repro.adversary.schedule import (
    DROPPER,
    JAMMER,
    SPOOFER,
    SUPPRESSOR,
    AdversarySchedule,
    AdversarySpec,
)
from repro.geometry import Point
from repro.linklayer.neighbors import BeaconNodeView
from repro.network.graph import WirelessNetwork
from repro.packets import MulticastPacket
from repro.routing.base import NodeView
from repro.simkit.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an eager cycle
    from repro.linklayer.mac import LinkLayer

#: Extra sink for counter bumps: ``(key, amount)``.
CountHook = Callable[[str, int], None]


class AdversaryState:
    """Per-run realization of an :class:`AdversarySchedule`.

    Args:
        schedule: The declared cast; must be non-empty (the engine keeps
            its benign code path when the schedule is empty and never
            constructs a state).
        network: The deployment the cast acts in; every spec's node id must
            name a node.
        scope: Label separating this realization's seed derivations from
            other tasks/runs of the same schedule (e.g. ``("task", 7)``).
        on_count: Optional extra sink for counter bumps — the contended
            engine passes a hook into :class:`~repro.linklayer.stats.LinkStats`
            so ``adv.*`` counters ride the normal link-stats plumbing.
    """

    def __init__(
        self,
        schedule: AdversarySchedule,
        network: WirelessNetwork,
        scope: object,
        on_count: Optional[CountHook] = None,
    ) -> None:
        if not schedule.enabled:
            raise ValueError("AdversaryState needs a non-empty schedule")
        for spec in schedule.specs:
            if not (0 <= spec.node_id < network.node_count):
                raise ValueError(
                    f"adversary node {spec.node_id} is not a node of the network"
                )
        self.schedule = schedule
        self._network = network
        self._scope = scope
        self._on_count = on_count
        #: Cumulative behavior counters (``drops``, ``jam_frames``, ...).
        self.counters: Dict[str, int] = {}
        self._droppers: Dict[int, AdversarySpec] = {
            spec.node_id: spec for spec in schedule.of_behavior(DROPPER)
        }
        self._drop_rngs: Dict[int, np.random.Generator] = {
            node_id: np.random.default_rng(
                derive_seed(schedule.seed, "adv", "drop", node_id, scope)
            )
            for node_id in sorted(self._droppers)
        }
        self.suppressed: FrozenSet[int] = frozenset(
            spec.node_id for spec in schedule.of_behavior(SUPPRESSOR)
        )
        self._advertised: Dict[int, Point] = {}
        for spec in schedule.of_behavior(SPOOFER):
            rng = np.random.default_rng(
                derive_seed(schedule.seed, "adv", "spoof", spec.node_id, scope)
            )
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            radius = spec.spoof_offset_m * float(rng.uniform(0.5, 1.0))
            truth = network.location_of(spec.node_id)
            self._advertised[spec.node_id] = Point(
                truth.x + radius * math.cos(angle),
                truth.y + radius * math.sin(angle),
            )
        self._view_memo: Dict[int, NodeView] = {}

    # ----------------------------------------------------------- counters

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount
        if self._on_count is not None:
            self._on_count(key, amount)

    def perf_counters(self) -> Dict[str, float]:
        """The behavior counters as digest-excluded ``adv.*`` perf keys."""
        return {f"adv.{key}": float(self.counters[key]) for key in sorted(self.counters)}

    # ----------------------------------------------------------- dropping

    def should_drop(self, node_id: int, packet: MulticastPacket) -> bool:
        """Whether the dropper at ``node_id`` (if any) swallows ``packet``.

        Checked at packet arrival, *before* delivery bookkeeping: a dropper
        that is itself a group member suppresses its own delivery too.
        """
        spec = self._droppers.get(node_id)
        if spec is None:
            return False
        if spec.target_destinations and not any(
            d in spec.target_destinations for d in packet.destination_ids
        ):
            return False
        if spec.drop_rate >= 1.0:
            dropped = True
        else:
            dropped = bool(
                self._drop_rngs[node_id].random() < spec.drop_rate
            )
        if dropped:
            self.bump("drops")
        return dropped

    # ----------------------------------------------------------- spoofing

    def advertised_location(self, node_id: int) -> Point:
        """Where ``node_id`` *claims* to be (truth unless it spoofs)."""
        found = self._advertised.get(node_id)
        if found is not None:
            return found
        return self._network.location_of(node_id)

    @property
    def distorts_views(self) -> bool:
        """Whether neighbor views differ from the graph oracle at all."""
        return bool(self._advertised) or bool(self.suppressed)

    def wrap_view(self, view: NodeView) -> NodeView:
        """The adversarially distorted routing view of ``view``'s node.

        Suppressors vanish from the neighbor set (their beacons were never
        heard) and spoofers appear at their advertised lie.  Used by the
        default model and the beacon-less contended oracle; with beacons on,
        the distortion flows through the beacon process itself instead.
        """
        if not self.distorts_views:
            return view
        node_id = view.node_id
        cached = self._view_memo.get(node_id)
        if cached is not None:
            return cached
        ids = tuple(
            neighbor
            for neighbor in view.neighbor_ids
            if neighbor not in self.suppressed
        )
        locations = {
            neighbor: self.advertised_location(neighbor) for neighbor in ids
        }
        wrapped = BeaconNodeView(self._network, node_id, ids, locations)
        self._view_memo[node_id] = wrapped
        return wrapped

    # ------------------------------------------------------------ jamming

    def start_jammers(
        self,
        link: "LinkLayer",
        horizon_s: float,
        failed_node_ids: FrozenSet[int],
    ) -> int:
        """Schedule every live jammer's duty cycle on the contended channel.

        Each jammer keys junk frames for ``jam_duty`` of every
        ``jam_period_s``, phase-offset by its own seeded draw; crashed
        jammers stay silent.  Returns the total number of jam frames
        scheduled over the horizon (the host widens its event budget by
        this much).
        """
        scheduled = 0
        for spec in self.schedule.of_behavior(JAMMER):
            if spec.node_id in failed_node_ids:
                continue
            rng = np.random.default_rng(
                derive_seed(self.schedule.seed, "adv", "jam", spec.node_id, self._scope)
            )
            phase = float(rng.uniform(0.0, spec.jam_period_s))
            on_air = spec.jam_duty * spec.jam_period_s
            ticks = int(max(horizon_s - phase, 0.0) / spec.jam_period_s) + 1
            scheduled += ticks
            self._schedule_jam(link, spec, phase, on_air, horizon_s)
        return scheduled

    def _schedule_jam(
        self,
        link: "LinkLayer",
        spec: AdversarySpec,
        at_s: float,
        on_air_s: float,
        horizon_s: float,
    ) -> None:
        if at_s > horizon_s:
            return

        def fire() -> None:
            # ``LinkLayer.jam`` counts the frame in the stats' adv bucket.
            link.jam(spec.node_id, on_air_s, spec.jam_bytes)
            self._schedule_jam(
                link, spec, at_s + spec.jam_period_s, on_air_s, horizon_s
            )

        link.simulator.schedule_at(at_s, fire)
