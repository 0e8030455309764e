"""Running one multicast task through the discrete-event simulator.

The engine never writes a network's state arrays directly: every mutation
it performs (node failures via ``failed_node_ids``, energy drain through
the meter) goes through :class:`~repro.network.graph.WirelessNetwork`'s
mutators, which copy-on-write when the network is a zero-copy view over
the shared-memory plane (:mod:`repro.perf.shm`).  That keeps pool workers'
``fail_node``/``move_node``/``drain_energy`` effects worker-local while
the published segments stay byte-identical for every other attacher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.schedule import EMPTY_ADVERSARY_SCHEDULE, AdversarySchedule
from repro.adversary.state import AdversaryState
from repro.engine.stats import TaskResult
from repro.engine.trace import CopyRecord, FrameRecord, TaskTrace
from repro.linklayer.config import DEFAULT_LINK_CONFIG, LinkLayerConfig
from repro.linklayer.frame import DATA
from repro.linklayer.mac import CopyOutcome, LinkLayer
from repro.network.energy import EnergyMeter, EnergyModel
from repro.network.graph import WirelessNetwork
from repro.packets import Destination, MulticastPacket
from repro.routing.base import ForwardDecision, NodeView, RoutingProtocol
from repro.simkit import SimulationError, Simulator
from repro.simkit.rng import RandomStreams, derive_seed


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the execution engine.

    Attributes:
        max_path_length: Hop-count TTL; packets are not forwarded beyond
            this many hops (the paper's Figure-15 experiment uses 100).
        transmission_model: The medium and how one forwarding step's
            copies map to radio transmissions.  ``"protocol"`` (default)
            is the ideal medium — every copy arrives one airtime later —
            honouring each protocol's
            :attr:`RoutingProtocol.aggregates_copies` declaration;
            ``"unicast"`` forces one transmission per copy on either
            medium (the counting-model ablation); ``"contended"`` routes
            every frame through the CSMA/ARQ link layer of
            :mod:`repro.linklayer` — frames queue per node, contend for
            the shared channel, collide, and are retransmitted, with
            neighbor knowledge served from HELLO-beacon tables.  Either
            way the engine checks every forwarding decision: protocols
            may only forward to actual neighbors and never duplicate a
            destination across copies.
        link: Link-layer knobs, used only by the ``"contended"`` model.
        link_loss_rate: Probability that a transmitted copy is destroyed in
            flight (failure injection; energy is still charged — the frame
            was sent).  Zero by default: the paper's metrics assume a
            loss-free MAC.
        loss_seed: Seed for the loss process (combined with the task id, so
            loss patterns are reproducible per task).
        failed_node_ids: Crashed nodes — they neither receive nor forward.
            Protocols do not know (their neighbor tables are stale), so
            packets routed into them are lost: models unannounced node
            death between neighbor-table refreshes.
        charge_header_overhead: Charge airtime/energy for the geographic
            header (next-hop/source/destination locations, perimeter
            state) on top of the fixed payload, instead of the paper's
            flat message size.  Off by default to match Table 1; turning
            it on penalizes protocols that carry long destination lists
            deep into the network.
        collect_traces: Record the full on-air trace of every task (the
            per-call ``collect_trace`` argument of :func:`run_task` still
            works for one-off traces).  Used by the parallel-vs-serial
            bit-identity tests, which digest complete frame histories.
        adversary: The misbehaving-node cast (see :mod:`repro.adversary`).
            Empty by default — and with an empty schedule every code path
            below is byte-identical to the adversary-free engine (the A/B
            switch contract the digest tests pin).  Jammers additionally
            require the contended transmission model: they exist to occupy
            a channel, and only ``"contended"`` has one.
    """

    max_path_length: int = 100
    transmission_model: str = "protocol"
    link_loss_rate: float = 0.0
    loss_seed: int = 0
    failed_node_ids: FrozenSet[int] = field(default_factory=frozenset)
    charge_header_overhead: bool = False
    collect_traces: bool = False
    link: LinkLayerConfig = DEFAULT_LINK_CONFIG
    adversary: AdversarySchedule = EMPTY_ADVERSARY_SCHEDULE

    def __post_init__(self) -> None:
        if self.transmission_model not in (
            "protocol",
            "unicast",
            "contended",
        ):
            raise ValueError(
                f"unknown transmission model {self.transmission_model!r}"
            )
        if not 0.0 <= self.link_loss_rate < 1.0:
            raise ValueError(
                f"link loss rate must be in [0, 1), got {self.link_loss_rate}"
            )
        for node_id in self.adversary.node_ids:
            if node_id in self.failed_node_ids:
                raise ValueError(
                    f"node {node_id} is both failed and adversarial; a "
                    "crashed node cannot misbehave"
                )


#: Shared immutable default: every entry point that accepts an optional
#: :class:`EngineConfig` falls back to this one instance instead of
#: constructing a fresh (identical) config per call.
DEFAULT_ENGINE_CONFIG = EngineConfig()


#: Event budget per session: a hard safety valve against routing loops.
MAX_EVENTS_PER_TASK = 500_000


def _record_frame(
    trace: TaskTrace,
    time_s: float,
    sender_id: int,
    outcomes: Sequence[CopyOutcome],
    transmissions: int,
    kind: str = DATA,
    retry: int = 0,
) -> None:
    """Append one frame and the fate of every copy it carried to ``trace``."""
    copies = tuple(
        CopyRecord(
            receiver_id=receiver_id,
            destination_ids=packet.destination_ids,
            hop_count=packet.hop_count,
            in_perimeter_mode=packet.in_perimeter_mode,
            lost=lost,
        )
        for receiver_id, packet, lost in outcomes
    )
    trace.record(
        FrameRecord(
            time_s=time_s,
            sender_id=sender_id,
            copies=copies,
            transmissions_charged=transmissions,
            kind=kind,
            retry=retry,
        )
    )


@dataclass
class _Session:
    """Mutable state of one multicast session (one source, many branches)."""

    task_id: int
    source_id: int
    destination_ids: Tuple[int, ...]
    protocol: RoutingProtocol
    meter: EnergyMeter
    trace: Optional[TaskTrace]
    loss_rng: np.random.Generator
    start_s: float
    delivered_hops: Dict[int, int] = field(default_factory=dict)
    dropped_ttl: int = 0
    last_activity_s: float = 0.0
    started: bool = False

    def __post_init__(self) -> None:
        self.last_activity_s = self.start_s


class _Run:
    """One simulator clock driving one or more multicast sessions.

    This is the routing core both media share: it owns session start,
    arrival processing (adversary drop, delivery bookkeeping,
    ``protocol.handle``) and the forwarding step (decision validation, TTL
    drop, copy aggregation, header sizing).  A medium subclass supplies
    only how a node sees its neighbors (:meth:`view`), how a forwarding
    step's copies reach the air (:meth:`send`), its event budget and
    horizon (:meth:`open`) and its per-session instrumentation
    (:meth:`perf`).  Media deliver arriving copies through :meth:`arrive`.
    """

    adversary: Optional[AdversaryState] = None

    def __init__(
        self,
        network: WirelessNetwork,
        tasks: Sequence[Tuple[int, int, Sequence[int]]],
        protocol_factory: Callable[[], RoutingProtocol],
        config: EngineConfig,
        start_times: Optional[Sequence[float]],
        payload_bytes: Optional[int],
        collect_trace: bool,
    ) -> None:
        if start_times is None:
            start_times = [0.0] * len(tasks)
        if len(start_times) != len(tasks):
            raise ValueError(
                f"{len(tasks)} tasks but {len(start_times)} start times"
            )
        self.network = network
        self.config = config
        self.payload_bytes = payload_bytes
        self.simulator = Simulator()
        self.want_trace = collect_trace or config.collect_traces
        #: Sessions by task id, in submission order.
        self.sessions: Dict[int, _Session] = {}
        for (task_id, source_id, destination_ids), start_s in zip(tasks, start_times):
            if task_id in self.sessions:
                raise ValueError(f"duplicate task id {task_id} in one run")
            if not (0 <= source_id < network.node_count):
                raise ValueError(f"source {source_id} is not a node of the network")
            if source_id in config.failed_node_ids:
                raise ValueError(f"source {source_id} is marked as a failed node")
            unique: Dict[int, None] = {}
            for d in destination_ids:
                if d == source_id or d in unique:
                    continue
                if not (0 <= d < network.node_count):
                    raise ValueError(f"destination {d} is not a node of the network")
                unique[d] = None
            if start_s < 0.0:
                raise ValueError(f"session start times must be >= 0, got {start_s}")
            # The loss stream exists even at zero loss, so turning loss on
            # or off cannot shift any *other* stream's draws.
            self.sessions[task_id] = _Session(
                task_id=task_id,
                source_id=source_id,
                destination_ids=tuple(unique),
                protocol=protocol_factory(),
                meter=EnergyMeter(EnergyModel(network.radio)),
                trace=TaskTrace() if self.want_trace else None,
                loss_rng=np.random.default_rng(
                    derive_seed(config.loss_seed, "loss", task_id)
                ),
                start_s=start_s,
            )
        self.attach()

    # ------------------------------------------------------- medium hooks

    def attach(self) -> None:
        """Set up the medium (and the adversary) once the sessions exist."""
        raise NotImplementedError

    def view(self, node_id: int) -> NodeView:
        """The routing view ``node_id`` holds right now."""
        raise NotImplementedError

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: List[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        """Put one forwarding step's ``(receiver, packet)`` copies on the air."""
        raise NotImplementedError

    def open(self, max_events: int) -> Tuple[Optional[float], int]:
        """Start the medium's own processes; return ``(until, max_events)``.

        By default there are none, and the run lasts until the last copy
        has arrived.
        """
        return None, max_events

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        """Digest-excluded instrumentation attached to the session's result."""
        raise NotImplementedError

    def close(self) -> None:
        """Release per-run medium state once the results are taken."""

    # ------------------------------------------------------- routing core

    def copy_lost(self, session: _Session) -> bool:
        """The injected Bernoulli loss coin for one copy in flight."""
        if self.config.link_loss_rate <= 0.0:
            return False
        return bool(session.loss_rng.random() < self.config.link_loss_rate)

    def arrive(self, session: _Session, node_id: int, packet: MulticastPacket) -> None:
        """A copy reached ``node_id``: stamp the session, then receive it."""
        session.last_activity_s = self.simulator.now
        self._receive(session, node_id, packet)

    def _receive(
        self, session: _Session, node_id: int, packet: MulticastPacket
    ) -> None:
        """Record delivery, then let the protocol forward.

        A dropper adversary swallows the packet *before* any bookkeeping:
        a malicious group member suppresses even its own delivery.
        """
        if self.adversary is not None and self.adversary.should_drop(
            node_id, packet
        ):
            return
        if any(d.node_id == node_id for d in packet.destinations):
            if node_id not in session.delivered_hops:
                session.delivered_hops[node_id] = packet.hop_count
            packet = packet.without_destination(node_id)
        if not packet.destinations:
            return
        decisions = session.protocol.handle(self.view(node_id), packet)
        self._transmit(session, node_id, decisions)

    def _transmit(
        self,
        session: _Session,
        sender_id: int,
        decisions: Sequence[ForwardDecision],
    ) -> None:
        """Validate, TTL-filter, frame and send one forwarding step.

        Copy aggregation follows the protocol's declaration (see
        :attr:`RoutingProtocol.aggregates_copies`) unless the ``"unicast"``
        model forces one frame per copy.
        """
        self._validate(session, sender_id, decisions)
        live: List[ForwardDecision] = []
        for decision in decisions:
            if decision.packet.hop_count + 1 > self.config.max_path_length:
                session.dropped_ttl += 1
                continue
            live.append(decision)
        if not live:
            return
        aggregate = (
            self.config.transmission_model != "unicast"
            and session.protocol.aggregates_copies
        )
        frame_bytes = None  # Table-1 flat message size.
        if self.config.charge_header_overhead:
            payload = live[0].packet.payload_bytes
            headers = sum(d.packet.header_size_bytes() for d in live)
            if aggregate:
                frame_bytes = payload + headers
            else:
                # Per-copy frames: charge the mean size per transmission.
                frame_bytes = payload + max(1, headers // len(live))
        copies = [(d.next_hop_id, d.packet.hopped()) for d in live]
        self.send(session, sender_id, copies, aggregate, frame_bytes)
        session.last_activity_s = self.simulator.now

    def _validate(
        self,
        session: _Session,
        sender_id: int,
        decisions: Sequence[ForwardDecision],
    ) -> None:
        """Protocols forward only to neighbors and never duplicate a destination."""
        seen: set = set()
        for decision in decisions:
            if not self.network.are_neighbors(sender_id, decision.next_hop_id):
                raise SimulationError(
                    f"{session.protocol.name} forwarded from {sender_id} to "
                    f"non-neighbor {decision.next_hop_id}"
                )
            if session.protocol.duplicates_allowed:
                continue
            for dest in decision.packet.destinations:
                if dest.node_id in seen:
                    raise SimulationError(
                        f"{session.protocol.name} duplicated destination "
                        f"{dest.node_id} across copies at node {sender_id}"
                    )
                seen.add(dest.node_id)

    def _start(self, session: _Session) -> None:
        try:
            session.protocol.prepare_task(
                self.network, session.source_id, session.destination_ids
            )
        except ValueError:
            # Centralized preparation can fail outright on partitioned
            # networks (e.g. KMB with unreachable terminals): the whole
            # session fails without sending anything.
            return
        session.started = True
        packet = MulticastPacket(
            task_id=session.task_id,
            source=Destination(
                session.source_id, self.network.location_of(session.source_id)
            ),
            destinations=tuple(
                Destination(d, self.network.location_of(d))
                for d in session.destination_ids
            ),
            payload_bytes=self.payload_bytes
            or self.network.radio.message_size_bytes,
        )
        self._receive(session, session.source_id, packet)

    def run(self) -> List[TaskResult]:
        if not self.sessions:
            # Nothing to start, so no medium to open (its horizon is the
            # last session start).
            return []
        for session in self.sessions.values():
            if session.destination_ids:
                self.simulator.schedule_at(
                    session.start_s, lambda s=session: self._start(s)
                )
        budget = MAX_EVENTS_PER_TASK * max(1, len(self.sessions))
        until, max_events = self.open(budget)
        self.simulator.run(until=until, max_events=max_events)
        results = [self._result_of(session) for session in self.sessions.values()]
        self.close()
        return results

    def _result_of(self, session: _Session) -> TaskResult:
        meter = session.meter
        # A session that never started reports a float zero; a started one
        # reports the meter's sum as is (the integer 0 if it sent nothing),
        # which the pinned result digests spell out.
        per_node: Dict[int, float] = dict(meter.tx_joules_by_node)
        for node, joules in meter.rx_joules_by_node.items():
            per_node[node] = per_node.get(node, 0.0) + joules
        return TaskResult(
            task_id=session.task_id,
            protocol=session.protocol.name,
            source_id=session.source_id,
            destination_ids=session.destination_ids,
            delivered_hops=dict(session.delivered_hops),
            transmissions=meter.transmissions,
            energy_joules=meter.total_joules if session.started else 0.0,
            duration_s=max(session.last_activity_s - session.start_s, 0.0),
            dropped_ttl=session.dropped_ttl,
            trace=session.trace,
            hotspot_energy_joules=max(per_node.values(), default=0.0),
            perf=self.perf(session),
        )


class _IdealRun(_Run):
    """The paper's medium: every copy arrives exactly one airtime later.

    Each forwarding step is charged at once (one frame when aggregated,
    one per copy otherwise), crashed receivers and the loss coin destroy
    copies in flight, and views are the graph oracle.
    """

    def attach(self) -> None:
        # None when the schedule is empty: the benign path must stay
        # byte-identical to the adversary-free engine (A/B switch contract).
        schedule = self.config.adversary
        if schedule.enabled:
            if schedule.has_jammers:
                raise ValueError(
                    "jammers require the contended transmission model"
                )
            self.adversary = AdversaryState(
                schedule, self.network, ("task", next(iter(self.sessions)))
            )

    def view(self, node_id: int) -> NodeView:
        view = NodeView(self.network, node_id)
        if self.adversary is not None:
            view = self.adversary.wrap_view(view)
        return view

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: List[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        transmissions = 1 if aggregate else len(copies)
        listeners = self.network.listeners_of(sender_id)
        for _ in range(transmissions):
            session.meter.record_transmission(
                sender_id, listeners, size_bytes=frame_bytes
            )
        airtime = self.network.radio.transmission_time(frame_bytes)
        outcomes: List[CopyOutcome] = []
        for receiver, packet in copies:
            # A crashed receiver loses the copy before the coin is drawn,
            # in the same order as the contended link layer.
            lost = receiver in self.config.failed_node_ids or self.copy_lost(
                session
            )
            outcomes.append((receiver, packet, lost))
            if not lost:
                self.simulator.schedule_after(
                    airtime, lambda r=receiver, p=packet: self.arrive(session, r, p)
                )
        if session.trace is not None:
            _record_frame(
                session.trace, self.simulator.now, sender_id, outcomes,
                transmissions,
            )

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        if self.adversary is not None and self.adversary.counters:
            return self.adversary.perf_counters()
        return None


class _ContendedRun(_Run):
    """The CSMA/ARQ medium: frames go through :class:`LinkLayer` queues.

    All sessions share one channel and one beacon process; copies arrive
    when the link layer delivers them (after contention, collisions and
    retransmissions), and views come from HELLO-beacon tables.
    """

    def attach(self) -> None:
        network, config = self.network, self.config
        #: Energy of traffic owned by no session (HELLO beacons).
        self.infra_meter = EnergyMeter(EnergyModel(network.radio))
        streams = RandomStreams(
            derive_seed(config.loss_seed, "mac", tuple(self.sessions))
        )
        # None when the schedule is empty: the LinkLayer then gets its
        # exact pre-adversary arguments, keeping benign contended runs
        # byte-identical (A/B switch contract).  The counter hook routes
        # behavior tallies into the link stats' ``adv.*`` bucket;
        # ``self.link`` exists before any bump can fire.
        if config.adversary.enabled:
            self.adversary = AdversaryState(
                config.adversary,
                network,
                ("run", tuple(self.sessions)),
                on_count=lambda key, amount: self.link.stats.bump_adv(
                    key, amount
                ),
            )
        self.link = LinkLayer(
            network=network,
            simulator=self.simulator,
            config=config.link,
            streams=streams,
            failed_node_ids=config.failed_node_ids,
            deliver=lambda session_id, receiver_id, packet: self.arrive(
                self.sessions[session_id], receiver_id, packet
            ),
            charge=self._charge,
            copy_loss=lambda session_id, _receiver_id: self.copy_lost(
                self.sessions[session_id]
            ),
            on_frame=self._on_frame if self.want_trace else None,
            advertised_location=(
                self.adversary.advertised_location
                if self.adversary is not None and self.adversary.distorts_views
                else None
            ),
            beacon_silenced=(
                self.adversary.suppressed
                if self.adversary is not None
                else frozenset()
            ),
        )

    # ------------------------------------------------------ link callbacks

    def _charge(
        self,
        session_id: Optional[int],
        sender_id: int,
        size_bytes: Optional[int],
        count_transmission: bool,
    ) -> None:
        meter = (
            self.sessions[session_id].meter
            if session_id is not None
            else self.infra_meter
        )
        meter.record_transmission(
            sender_id,
            self.network.listeners_of(sender_id),
            size_bytes=size_bytes,
            count_transmission=count_transmission,
        )

    def _on_frame(
        self,
        session_id: Optional[int],
        kind: str,
        sender_id: int,
        start_s: float,
        retry: int,
        outcomes: Sequence[CopyOutcome],
    ) -> None:
        if session_id is None or kind != DATA:
            return  # control traffic stays out of session traces
        trace = self.sessions[session_id].trace
        if trace is not None:
            _record_frame(trace, start_s, sender_id, outcomes, 1, kind, retry)

    # ------------------------------------------------------- medium hooks

    def view(self, node_id: int) -> NodeView:
        view = self.link.view(node_id)
        if self.adversary is not None and self.link.beacon_service is None:
            # Without beacons the view is the graph oracle; apply the same
            # spoof/suppress distortion the beacon process would have fed it.
            view = self.adversary.wrap_view(view)
        return view

    def send(
        self,
        session: _Session,
        sender_id: int,
        copies: List[Tuple[int, MulticastPacket]],
        aggregate: bool,
        frame_bytes: Optional[int],
    ) -> None:
        if aggregate:
            self.link.send_data(session.task_id, sender_id, copies, frame_bytes)
        else:
            for copy in copies:
                self.link.send_data(
                    session.task_id, sender_id, [copy], frame_bytes
                )

    def open(self, max_events: int) -> Tuple[Optional[float], int]:
        horizon = (
            max(session.start_s for session in self.sessions.values())
            + self.config.link.session_timeout_s
        )
        self.link.start_beacons(horizon)
        if self.config.link.beacons:
            ticks = int(horizon / self.config.link.beacon_period_s) + 2
            max_events += ticks * self.network.node_count * 8
        if self.adversary is not None:
            jam_frames = self.adversary.start_jammers(
                self.link, horizon, self.config.failed_node_ids
            )
            # Every jam frame is a schedule + finish event; widen the
            # budget so saturation cannot masquerade as a routing loop.
            max_events += jam_frames * 4
        return horizon, max_events

    def perf(self, session: _Session) -> Optional[Dict[str, float]]:
        return self.link.stats.session_perf(session.task_id)

    def close(self) -> None:
        # The link layer's hooks close over this run, and every MAC points
        # back at the link layer.  Breaking both cycles frees a finished run
        # at once instead of at the cyclic collector's next full pass, which
        # comes rarely once many objects are long-lived.
        self.link.close()
        del self.link


def run_task(
    network: WirelessNetwork,
    protocol: RoutingProtocol,
    source_id: int,
    destination_ids: Sequence[int],
    config: EngineConfig | None = None,
    task_id: int = 0,
    payload_bytes: int | None = None,
    collect_trace: bool = False,
) -> TaskResult:
    """Execute one multicast task and return its measured outcome.

    The task is a one-session run on the medium ``config`` names: the
    ideal medium by default, the CSMA/ARQ link layer under
    ``transmission_model="contended"``.

    Args:
        network: The deployed network (global state owned by the engine).
        protocol: Forwarding discipline under test.
        source_id: Originating node.
        destination_ids: Target nodes; the source itself is filtered out.
        config: Engine knobs (TTL etc.); defaults to :class:`EngineConfig`.
        task_id: Id recorded in the result.
        payload_bytes: Message size (defaults to the radio's Table-1 size).
        collect_trace: Record every frame; the trace is attached to the
            result as :attr:`TaskResult.trace`.

    Returns:
        A :class:`TaskResult`; ``result.success`` is False when any
        destination was unreachable (void without recovery, TTL, injected
        losses, or a disconnected topology for the centralized SMT
        baseline).
    """
    cfg = config or DEFAULT_ENGINE_CONFIG
    medium = _ContendedRun if cfg.transmission_model == "contended" else _IdealRun
    run = medium(
        network,
        [(task_id, source_id, destination_ids)],
        lambda: protocol,
        cfg,
        None,
        payload_bytes,
        collect_trace,
    )
    return run.run()[0]


def run_contended_tasks(
    network: WirelessNetwork,
    tasks: Sequence[Tuple[int, int, Sequence[int]]],
    protocol_factory: Callable[[], RoutingProtocol],
    config: EngineConfig | None = None,
    start_times: Sequence[float] | None = None,
    payload_bytes: int | None = None,
    collect_trace: bool = False,
) -> List[TaskResult]:
    """Run multicast sessions concurrently over the contended link layer.

    All sessions share one simulator clock, one CSMA channel, and one
    beacon process, so they contend with each other for the air — the
    regime the :mod:`repro.experiments.contention` sweep measures.

    Args:
        network: The deployed network.
        tasks: ``(task_id, source_id, destination_ids)`` per session;
            task ids must be unique (they key the sessions).
        protocol_factory: Builds one *fresh* protocol instance per session
            (protocols carry per-task state, which concurrent sessions must
            not share).
        config: Engine knobs; :attr:`EngineConfig.link` configures the MAC.
            Calling this function *is* choosing the contended medium, so
            ``transmission_model`` only matters as ``"unicast"``, which
            forces per-copy frames here as on the ideal medium.
        start_times: Session start time (seconds of virtual time) per task,
            defaulting to all-zero (maximum contention).  The run ends
            :attr:`LinkLayerConfig.session_timeout_s` after the last start.
        payload_bytes: Message size (defaults to the radio's Table-1 size).
        collect_trace: Attach a per-session :class:`TaskTrace` of DATA
            frames (including retransmissions; control traffic excluded).

    Returns:
        One :class:`TaskResult` per task, in submission order.
        ``result.perf`` carries the session's link-layer counters
        (``mac.*``) plus the run-global infrastructure counters
        (``link.*``) — instrumentation, excluded from digests.
    """
    run = _ContendedRun(
        network,
        tasks,
        protocol_factory,
        config or DEFAULT_ENGINE_CONFIG,
        start_times,
        payload_bytes,
        collect_trace,
    )
    return run.run()
