"""Hot-path geometry memoization: Fermat points.

The cache here is a *pure* memo: keys are exact coordinate tuples, values
are exactly what the underlying computation returns, so a hit is
bit-identical to a fresh computation and simulation results cannot depend on
cache state (enforced by ``tests/perf/test_cache.py``).  The cache is
process-local; parallel workers each warm their own.

The per-hop redundancy being removed (paper Section 4.2): rrSTR's
refinement passes recompute Fermat points of the same vertex triples once
per pass, and across the hops of one multicast task.  Hit rates per
workload are in ``perfbench/NOTES.md``.

``set_caching_enabled(False)`` (or the :func:`caches_disabled` context
manager) turns the cache into a pass-through for A/B correctness tests and
for the cold-path microbenchmarks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.geometry.fermat import fermat_point
from repro.geometry.point import Point
from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.parallel import retire_pool

_ENABLED = True

#: Entry cap; a full cache is flushed outright (cheap, and the memo is
#: warm again within one task).  Keys are 6-float tuples, so the resident
#: set stays in the tens of MB even at the cap.
_POINT_CACHE_CAP = 200_000

_FERMAT_CACHE: Dict[Tuple[float, ...], Point] = {}


def set_caching_enabled(enabled: bool) -> None:
    """Globally enable/disable the Fermat memo (results are unaffected)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def caching_enabled() -> bool:
    return _ENABLED


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Run a block with the Fermat memo bypassed (for A/B equality tests)."""
    previous = _ENABLED
    set_caching_enabled(False)
    try:
        yield
    finally:
        set_caching_enabled(previous)


def clear_caches() -> None:
    """Drop all memoized geometry (counters are left alone).

    Also retires the shared worker pool (:func:`repro.perf.parallel.retire_pool`):
    its workers hold memos of their own, so the next pooled call forks
    fresh ones from the cleared parent.
    """
    _FERMAT_CACHE.clear()
    retire_pool()


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Current hit/miss/size stats of the module-level geometry cache."""
    ctr = GLOBAL_COUNTERS.counter("fermat_point")
    return {
        "fermat_point": {
            "hits": float(ctr.hits),
            "misses": float(ctr.misses),
            "hit_rate": ctr.hit_rate,
            "entries": float(len(_FERMAT_CACHE)),
        }
    }


def cached_fermat_point(a: Point, b: Point, c: Point) -> Point:
    """Memoized :func:`repro.geometry.fermat.fermat_point`."""
    if not _ENABLED:
        return fermat_point(a, b, c)
    key = (a[0], a[1], b[0], b[1], c[0], c[1])
    counter = GLOBAL_COUNTERS.counter("fermat_point")
    found = _FERMAT_CACHE.get(key)
    if found is not None:
        counter.hits += 1
        return found
    counter.misses += 1
    result = fermat_point(a, b, c)
    if len(_FERMAT_CACHE) >= _POINT_CACHE_CAP:
        _FERMAT_CACHE.clear()
    _FERMAT_CACHE[key] = result
    return result
