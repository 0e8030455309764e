"""Streaming session subsystem: arrival processes, sketches, checkpoints.

The paper evaluates fixed batches of multicast tasks; the service-shaped
regime the ROADMAP targets is an *open-ended stream* of sessions arriving
over time.  This package provides the pieces that regime needs:

* :mod:`repro.sessions.workload` — the one source of truth for multicast
  workload construction (:class:`MulticastTask`, :func:`generate_tasks`),
  absorbed from the old ``repro.experiments.workload`` stub;
* :mod:`repro.sessions.arrivals` — seeded arrival-process generators
  (Poisson, bursty MMPP on/off, diurnal rate) with heavy-tailed group
  sizes, exposed as a resumable :class:`SessionStream` cursor;
* :mod:`repro.sessions.sketches` — memory-bounded online statistics
  (Welford mean/variance, Greenwald-Khanna quantile sketches);
* :mod:`repro.sessions.store` — the incremental, resumable checkpoint
  store (atomic JSON snapshots of sketch state + stream cursor);
* :mod:`repro.sessions.runner` — the long-running session scheduler that
  multiplexes an unbounded stream over the deterministic process-pool
  engine with a bounded in-flight window.

Everything here honours the PR 2 bit-identity contract: the final report
of a stream run is byte-identical at any worker count, and an interrupted
run resumed from a checkpoint reproduces the uninterrupted report exactly.
"""

from repro.sessions.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    FixedGroups,
    PoissonArrivals,
    SessionRequest,
    SessionStream,
    SessionWorkload,
    StreamCursor,
    ZipfGroups,
    exponential_starts,
)
from repro.sessions.runner import (
    SessionOutcome,
    SessionReport,
    run_session_stream,
)
from repro.sessions.sketches import GKQuantiles, StreamStats, Welford
from repro.sessions.store import CheckpointStore
from repro.sessions.workload import MulticastTask, generate_tasks

__all__ = [
    "BurstyArrivals",
    "CheckpointStore",
    "DiurnalArrivals",
    "FixedGroups",
    "GKQuantiles",
    "MulticastTask",
    "PoissonArrivals",
    "SessionOutcome",
    "SessionReport",
    "SessionRequest",
    "SessionStream",
    "SessionWorkload",
    "StreamCursor",
    "StreamStats",
    "Welford",
    "ZipfGroups",
    "exponential_starts",
    "generate_tasks",
    "run_session_stream",
]
