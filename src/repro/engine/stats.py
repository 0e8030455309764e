"""Per-task and aggregate statistics.

The paper reports, per multicasting task: the total number of hops (=
transmissions/forwardings, Figure 11), the average per-destination hop count
(Figure 12), the total energy (Figure 14) and whether the task failed to
reach every destination (Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.trace import TaskTrace


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one multicast task under one protocol.

    Attributes:
        task_id: Workload-assigned id of the task.
        protocol: Display name of the protocol that ran it.
        source_id: The originating node.
        destination_ids: All requested destinations (excluding the source).
        delivered_hops: Destination id -> hop count at which its packet
            arrived.
        transmissions: Total number of forwardings — the paper's "total
            number of hops in the multicast tree".
        energy_joules: Total energy charged (senders + all listeners).
        duration_s: Virtual time from first transmission to quiescence.
        dropped_ttl: Transmissions suppressed by the hop-count TTL.
        trace: Full on-air history (only when the task was run with
            ``collect_trace=True``).
        perf: Per-task instrumentation: link-layer ``mac.*``/``link.*``
            counters on the contended medium, adversary ``adv.*`` counters
            when a behavior fired, otherwise None.  Instrumentation, not a
            simulation outcome: excluded from result digests, and two runs
            may legitimately differ here while being simulation-identical.
    """

    task_id: int
    protocol: str
    source_id: int
    destination_ids: Tuple[int, ...]
    delivered_hops: Mapping[int, int]
    transmissions: int
    energy_joules: float
    duration_s: float
    dropped_ttl: int = 0
    trace: Optional["TaskTrace"] = None
    #: Largest total energy any single node spent on this task — the
    #: network-lifetime proxy (the first node to die ends coverage).
    hotspot_energy_joules: float = 0.0
    perf: Optional[Mapping[str, float]] = None

    @property
    def failed_destinations(self) -> Tuple[int, ...]:
        """Destinations never reached."""
        return tuple(
            d for d in self.destination_ids if d not in self.delivered_hops
        )

    @property
    def success(self) -> bool:
        """A task succeeds iff *all* destinations were reached (Section 5.4)."""
        return not self.failed_destinations

    @property
    def total_hops(self) -> int:
        """Alias for ``transmissions`` matching the paper's terminology."""
        return self.transmissions

    @property
    def per_destination_hops(self) -> List[int]:
        """Hop counts of the delivered destinations."""
        return [self.delivered_hops[d] for d in self.destination_ids if d in self.delivered_hops]

    @property
    def average_per_destination_hops(self) -> float:
        """Mean hop count over delivered destinations (0 when none)."""
        hops = self.per_destination_hops
        return sum(hops) / len(hops) if hops else 0.0


@dataclass
class ResultSummary:
    """Aggregate over a batch of :class:`TaskResult`."""

    task_count: int = 0
    failure_count: int = 0
    mean_total_hops: float = 0.0
    mean_per_destination_hops: float = 0.0
    mean_energy_joules: float = 0.0
    mean_duration_s: float = 0.0
    delivery_ratio: float = 1.0
    extras: Dict[str, float] = field(default_factory=dict)


def summarize_results(results: Sequence[TaskResult]) -> ResultSummary:
    """Mean metrics over a batch of task results."""
    if not results:
        return ResultSummary()
    task_count = len(results)
    failure_count = sum(0 if r.success else 1 for r in results)
    total_requested = sum(len(r.destination_ids) for r in results)
    total_delivered = sum(len(r.delivered_hops) for r in results)
    all_per_dest: List[int] = []
    for r in results:
        all_per_dest.extend(r.per_destination_hops)
    return ResultSummary(
        task_count=task_count,
        failure_count=failure_count,
        mean_total_hops=sum(r.transmissions for r in results) / task_count,
        mean_per_destination_hops=(
            sum(all_per_dest) / len(all_per_dest) if all_per_dest else 0.0
        ),
        mean_energy_joules=sum(r.energy_joules for r in results) / task_count,
        mean_duration_s=sum(r.duration_s for r in results) / task_count,
        delivery_ratio=(
            total_delivered / total_requested if total_requested else 1.0
        ),
    )
