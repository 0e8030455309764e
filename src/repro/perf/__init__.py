"""Performance layer: instrumentation, parallel fan-out, the adjacency kernel.

Cooperating modules, none of which may change simulation *results*:

* :mod:`repro.perf.counters` — process-local cache hit/miss counters and
  stage wall-time accounting (with an *injected* clock, so simulation code
  never reads the wall clock itself — reprolint R002).
* :mod:`repro.perf.cache` — :func:`clear_caches`, the reset point between
  independent runs (it retires the shared worker pool).
* :mod:`repro.perf.parallel` — a deterministic process-pool runner that
  shards independent work units over one reusable worker pool and merges
  results in canonical submission order, guaranteeing parallel output
  identical to the serial run.
* :mod:`repro.perf.kernels` — the batched unit-disk adjacency build, with
  the same inclusive disk test as its scalar reference, so a whole
  deployment's neighbor rows compute in one call with identical results.
"""

from repro.perf.cache import clear_caches
from repro.perf.counters import (
    GLOBAL_COUNTERS,
    BatchCounter,
    CacheCounter,
    PerfCounters,
    StageTimer,
)
from repro.perf.kernels import unit_disk_rows
from repro.perf.parallel import run_units

__all__ = [
    "clear_caches",
    "GLOBAL_COUNTERS",
    "BatchCounter",
    "CacheCounter",
    "PerfCounters",
    "StageTimer",
    "run_units",
    "unit_disk_rows",
]
