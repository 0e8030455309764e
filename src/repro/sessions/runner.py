"""The long-running session scheduler over the deterministic pool engine.

``run_session_stream`` multiplexes an unbounded arrival stream over the
process-pool engine with a bounded in-flight window
(:func:`repro.perf.parallel.stream_units`), folding each completed session
into bounded-memory sketches instead of accumulating
:class:`~repro.engine.stats.TaskResult` objects.  Three contracts hold:

* **Worker-count identity** — sessions are generated in the parent, chunks
  are executed as pure functions of their arguments, and outcomes are
  folded strictly in session order, so the final
  :class:`SessionReport` is byte-identical for any ``workers`` value.
* **Resume identity** — every ``checkpoint_every`` completed sessions the
  stream cursor, sketch state, and running chain digest are snapshotted
  through :class:`~repro.sessions.store.CheckpointStore`; a run resumed
  from any checkpoint produces the same report bytes as an uninterrupted
  one.
* **Bounded memory** — the parent retains the sketches, the chain digest,
  and at most ``stream_units``' default window of in-flight chunks (four
  per worker); nothing grows with the number of completed sessions (up to
  the GK sketch's logarithmic factor).

Per-session result digests (:func:`repro.engine.digest.task_digest`) are
computed inside the worker and chained as
``chain = sha256(chain_hex + line)`` — an order-sensitive, constant-space,
serializable equivalent of :func:`repro.engine.digest.batch_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine import DEFAULT_ENGINE_CONFIG, EngineConfig, run_task
from repro.engine.digest import task_digest
from repro.experiments.config import PaperConfig
from repro.perf.counters import GLOBAL_COUNTERS, merge_worker_perf
from repro.perf.parallel import ProgressFn, stream_units
from repro.perf.shm import SharedNetworkPlane, shared_plane_enabled
from repro.sessions.arrivals import SessionRequest, SessionWorkload, StreamCursor
from repro.sessions.sketches import StreamStats
from repro.sessions.store import CheckpointStore

#: Seed of the digest chain before any session is folded.
CHAIN_SEED = "session-stream-v1"

#: Sessions shipped to a worker per unit; purely a batching knob — results
#: are folded per session in stream order, so the chunk size can never
#: change a report (asserted by the determinism tests).
DEFAULT_CHUNK = 8


@dataclass(frozen=True)
class SessionOutcome:
    """Compact, picklable outcome of one streamed session.

    Everything the parent folds into sketches and the digest chain —
    deliberately *not* the full :class:`~repro.engine.stats.TaskResult`
    (whose trace and per-node maps would reintroduce linear memory).
    """

    task_id: int
    digest: str
    latency_s: float
    energy_joules: float
    transmissions: int
    delivered: int
    requested: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.requested if self.requested else 1.0

    @property
    def success(self) -> bool:
        return self.delivered == self.requested


def run_session_chunk(
    config: PaperConfig,
    net_index: int,
    engine: EngineConfig,
    spec: Tuple[object, ...],
    sessions: Tuple[Tuple[int, int, Tuple[int, ...]], ...],
) -> Tuple[Tuple[SessionOutcome, ...], Dict[str, float]]:
    """One pool unit: run a chunk of sessions, return compact outcomes.

    Pure in its picklable arguments: the deployment re-derives from
    ``(config, net_index)`` via the per-process network memo, the protocol
    from its spec, and each session is an independent task under the
    default engine model.  The per-session digest is computed here so the
    parent never needs the full result.
    """
    from repro.experiments.sweep import build_protocol, cached_network

    network = cached_network(config, net_index)
    protocol = build_protocol(spec)
    before = GLOBAL_COUNTERS.snapshot()
    outcomes: List[SessionOutcome] = []
    for task_id, source_id, destination_ids in sessions:
        result = run_task(
            network,
            protocol,
            source_id,
            destination_ids,
            config=engine,
            task_id=task_id,
        )
        outcomes.append(
            SessionOutcome(
                task_id=result.task_id,
                digest=task_digest(result),
                latency_s=result.duration_s,
                energy_joules=result.energy_joules,
                transmissions=result.transmissions,
                delivered=len(result.delivered_hops),
                requested=len(result.destination_ids),
            )
        )
    return tuple(outcomes), GLOBAL_COUNTERS.delta_since(before)


def fold_chain(chain_hex: str, outcome: SessionOutcome, arrival_s: float) -> str:
    """Advance the running digest chain by one session.

    Constant-space and serializable (the chain is just a hex string), yet
    order-sensitive over every session's full result digest *and* its
    arrival time — two streams agree iff every session agreed.
    """
    line = f"{chain_hex}|{outcome.digest}|arrival={arrival_s!r}"
    return hashlib.sha256(line.encode("ascii")).hexdigest()


@dataclass
class SessionReport:
    """Deterministic final report of one streamed run.

    Built exclusively from prefix-deterministic state (completed count,
    sketches, chain digest), so serial/parallel and interrupted/resumed
    runs render byte-identical reports.  Wall-clock throughput is *not*
    part of the report — the operator layer measures and prints it
    separately (stderr), keeping stdout diffable.
    """

    workload: SessionWorkload
    protocol: str
    completed: int
    chain_digest: str
    stats: StreamStats
    cursor: StreamCursor

    @property
    def failure_rate(self) -> float:
        return self.stats.failures / self.completed if self.completed else 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        rows = {
            name: {
                "mean": mean,
                "std": std,
                "p50": p50,
                "p90": p90,
                "p99": p99,
            }
            for name, mean, std, p50, p90, p99 in self.stats.summary_rows()
        }
        return {
            "workload": self.workload.describe(),
            "protocol": self.protocol,
            "completed": self.completed,
            "failures": self.stats.failures,
            "delivery_ratio": self.stats.aggregate_delivery_ratio,
            "virtual_horizon_s": self.cursor.clock_s,
            "chain_digest": self.chain_digest,
            "metrics": rows,
        }


def _checkpoint_payload(
    report_cursor: StreamCursor,
    completed: int,
    chain_hex: str,
    stats: StreamStats,
) -> Dict[str, Any]:
    return {
        "cursor": report_cursor.to_json_dict(),
        "completed": completed,
        "chain": chain_hex,
        "stats": stats.state(),
    }


def stream_identity(
    workload: SessionWorkload,
    spec: Tuple[object, ...],
    config: PaperConfig,
    net_index: int,
    engine: EngineConfig,
    epsilon: float,
) -> Dict[str, Any]:
    """The run identity a checkpoint must match to be resumable.

    Everything that changes simulation outcomes or sketch content is in;
    operator knobs that provably cannot (workers, chunk size, checkpoint
    cadence) are out — resuming with a different worker count is
    explicitly supported.
    """
    return {
        "workload": workload.describe(),
        "first_task_id": workload.first_task_id,
        "protocol": repr(spec),
        "master_seed": config.master_seed,
        "node_count": config.node_count,
        "net_index": net_index,
        "max_path_length": engine.max_path_length,
        "epsilon": epsilon,
    }


def run_session_stream(
    workload: SessionWorkload,
    spec: Tuple[object, ...],
    config: PaperConfig,
    total_sessions: int,
    engine: EngineConfig | None = None,
    net_index: int = 0,
    workers: int = 1,
    epsilon: float = 0.01,
    checkpoint: Optional[CheckpointStore] = None,
    checkpoint_every: int = 0,
    progress: Optional[ProgressFn] = None,
    on_sessions_done: Optional[Callable[[int], None]] = None,
    plane: Optional[SharedNetworkPlane] = None,
) -> SessionReport:
    """Run ``total_sessions`` sessions of ``workload`` under one protocol.

    Args:
        workload: The seeded arrival stream (node count must match
            ``config.node_count`` — the deployment is built from config).
        spec: Picklable protocol spec (see
            :func:`repro.experiments.sweep.build_protocol`).
        config: Deployment config; ``(config, net_index)`` keys the
            per-process network memo in the workers.
        total_sessions: Stop after this many completed sessions.  With a
            checkpoint this is the *cumulative* target: a resumed run
            continues from the stored position toward the same total.
        engine: Engine knobs (default model; TTL etc.).
        workers: Pool size — provably incapable of changing the report
            (asserted by tests, as is the chunk size).
        epsilon: GK sketch error bound for the report quantiles.
        checkpoint: Where to persist progress; ``None`` disables both
            checkpointing and resume.
        checkpoint_every: Snapshot cadence in completed sessions (0 with a
            store set means "only at the end").
        progress: Operator progress callback.
        on_sessions_done: Called with the cumulative completed-session
            count after each fold batch — the operator layer's throughput
            hook (wall-clock stays outside this module).
        plane: Shared-memory plane for the pool workers.  ``None`` with
            ``workers > 1`` makes the stream publish (and own) one for its
            deployment; a caller-provided plane is published into but left
            open — the sweep layer shares a single plane across cells.

    Returns:
        The deterministic :class:`SessionReport`.
    """
    if total_sessions < 0:
        raise ValueError(f"total sessions must be >= 0, got {total_sessions}")
    if workload.node_count != config.node_count:
        raise ValueError(
            f"workload is sized for {workload.node_count} nodes but the "
            f"deployment config builds {config.node_count}"
        )
    cfg = engine or DEFAULT_ENGINE_CONFIG
    identity = stream_identity(workload, spec, config, net_index, cfg, epsilon)

    cursor = StreamCursor()
    stats = StreamStats(epsilon)
    chain_hex = hashlib.sha256(CHAIN_SEED.encode("ascii")).hexdigest()
    completed = 0
    if checkpoint is not None:
        stored = checkpoint.load(identity)
        if stored is not None:
            cursor = StreamCursor.from_json_dict(stored["cursor"])
            stats = StreamStats.from_state(stored["stats"])
            chain_hex = str(stored["chain"])
            completed = int(stored["completed"])
            if progress is not None:
                progress(
                    f"resuming from checkpoint: {completed} sessions done"
                )

    # In-flight bookkeeping the worker output does not carry: each chunk's
    # arrival times and the cursor *after* its last session (for
    # checkpoints).  Bounded by the in-flight window.
    from collections import deque

    side: "deque[Tuple[Tuple[float, ...], StreamCursor]]" = deque()

    def chunk_args() -> Iterator[
        Tuple[
            PaperConfig,
            int,
            EngineConfig,
            Tuple[object, ...],
            Tuple[Tuple[int, int, Tuple[int, ...]], ...],
        ]
    ]:
        position = cursor
        produced = completed
        while produced < total_sessions:
            take = min(DEFAULT_CHUNK, total_sessions - produced)
            requests: List[SessionRequest] = []
            for _ in range(take):
                request, position = workload.session_at(position)
                requests.append(request)
            produced += take
            side.append(
                (tuple(r.arrival_s for r in requests), position)
            )
            yield (
                config,
                net_index,
                cfg,
                spec,
                tuple(r.task.as_session_tuple() for r in requests),
            )

    pooled = workers > 1
    owns_plane = False
    if pooled and completed < total_sessions and shared_plane_enabled():
        if plane is None:
            plane = SharedNetworkPlane(seed=config.master_seed)
            owns_plane = True
        # Publish (idempotent per key) the one deployment every chunk of
        # this stream re-derives, so workers attach instead of rebuilding.
        from repro.experiments.sweep import cached_network

        plane.publish((config, net_index, None), cached_network(config, net_index))

    since_snapshot = 0
    try:
        for outcomes, perf_delta in stream_units(
            run_session_chunk,
            chunk_args(),
            workers=workers,
            plane=plane,
        ):
            arrivals, cursor_after = side.popleft()
            merge_worker_perf([perf_delta], used_pool=pooled)
            for outcome, arrival_s in zip(outcomes, arrivals):
                chain_hex = fold_chain(chain_hex, outcome, arrival_s)
                stats.observe(
                    latency_s=outcome.latency_s,
                    delivery_ratio=outcome.delivery_ratio,
                    energy_joules=outcome.energy_joules,
                    tree_cost=float(outcome.transmissions),
                    delivered=outcome.delivered,
                    requested=outcome.requested,
                )
            completed += len(outcomes)
            since_snapshot += len(outcomes)
            cursor = cursor_after
            if on_sessions_done is not None:
                on_sessions_done(completed)
            if (
                checkpoint is not None
                and checkpoint_every > 0
                and since_snapshot >= checkpoint_every
            ):
                checkpoint.save(
                    identity,
                    _checkpoint_payload(cursor, completed, chain_hex, stats),
                )
                since_snapshot = 0
                if progress is not None:
                    progress(f"checkpoint at {completed} sessions")
    finally:
        if owns_plane and plane is not None:
            plane.close()

    if checkpoint is not None:
        checkpoint.save(
            identity, _checkpoint_payload(cursor, completed, chain_hex, stats)
        )

    return SessionReport(
        workload=workload,
        protocol=str(spec[0]),
        completed=completed,
        chain_digest=chain_hex,
        stats=stats,
        cursor=cursor,
    )
