"""Performance layer: instrumentation, hot-path caches, parallel fan-out.

Cooperating modules, none of which may change simulation *results*:

* :mod:`repro.perf.counters` — process-local cache hit/miss counters and
  stage wall-time accounting (with an *injected* clock, so simulation code
  never reads the wall clock itself — reprolint R002).
* :mod:`repro.perf.cache` — memoization of the per-hop Fermat points,
  keyed on exact coordinate tuples so a hit is bit-identical to a fresh
  computation.
* :mod:`repro.perf.parallel` — a deterministic process-pool runner that
  shards independent work units and merges results in canonical submission
  order, guaranteeing parallel output identical to the serial run.
* :mod:`repro.perf.kernels` — the batched unit-disk adjacency build, with
  the same inclusive disk test as its scalar reference, so a whole
  deployment's neighbor rows compute in one call with identical results.
"""

from repro.perf.cache import (
    cache_stats,
    cached_fermat_point,
    caches_disabled,
    caching_enabled,
    clear_caches,
    set_caching_enabled,
)
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
    "cache_stats",
    "cached_fermat_point",
    "caches_disabled",
    "caching_enabled",
    "clear_caches",
    "set_caching_enabled",
    "GLOBAL_COUNTERS",
    "BatchCounter",
    "CacheCounter",
    "PerfCounters",
    "StageTimer",
    "run_units",
    "unit_disk_rows",
]
