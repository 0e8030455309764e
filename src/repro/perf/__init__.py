"""Performance layer: instrumentation, hot-path caches, parallel fan-out.

Three cooperating modules, none of which may change simulation *results*:

* :mod:`repro.perf.counters` — process-local cache hit/miss counters and
  stage wall-time accounting (with an *injected* clock, so simulation code
  never reads the wall clock itself — reprolint R002).
* :mod:`repro.perf.cache` — memoization of the per-hop Fermat points,
  keyed on exact coordinate tuples so a hit is bit-identical to a fresh
  computation.
* :mod:`repro.perf.parallel` — a deterministic process-pool runner that
  shards independent work units and merges results in canonical submission
  order, guaranteeing parallel output identical to the serial run.
* :mod:`repro.perf.kernels` — batched NumPy geometry kernels using the same
  elementwise formulas as their scalar references, so many Fermat points /
  reduction ratios / witness tests compute in one call with bit-identical
  results.
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
from repro.perf.kernels import (
    MIN_BATCH,
    disk_mask,
    distances_sq_to,
    distances_to,
    fermat_point_batch,
    pairwise_distances,
    gabriel_keep_mask,
    group_distance_sums,
    nearest_index,
    pair_indices,
    reduction_ratio_batch,
    rng_keep_mask,
    unit_disk_rows,
)
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
    "MIN_BATCH",
    "disk_mask",
    "distances_sq_to",
    "distances_to",
    "fermat_point_batch",
    "gabriel_keep_mask",
    "group_distance_sums",
    "nearest_index",
    "pair_indices",
    "pairwise_distances",
    "reduction_ratio_batch",
    "rng_keep_mask",
    "unit_disk_rows",
]
