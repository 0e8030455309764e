"""Deterministic process-pool fan-out over independent work units.

The contract: ``run_units(fn, args_list, workers)`` returns exactly
``[fn(*args) for args in args_list]`` — same values, same order — no matter
how many workers execute it.  That holds because

* every unit is a pure function of its arguments (networks and task batches
  are re-derived from seeds inside the worker, never shipped),
* results are collected by *submission index*, never completion order,
* workers share no mutable state with the parent or each other.

Worker processes keep per-process memos (see
:func:`repro.experiments.sweep.cached_network`), so each worker reconstructs
a given network once and reuses it across all units it executes.  When the
caller passes a published :class:`repro.perf.shm.SharedNetworkPlane`, the
pool initializer additionally hands every worker the plane's manifests, and
``cached_network`` *attaches* the parent's deployments zero-copy instead of
rebuilding them — results are byte-identical either way (the plane maps the
exact bytes a fresh build produces).

One pool per scope.  :func:`run_units` and :func:`stream_units` share one
process-wide pool, with these lifetime rules:

* **Creation** — lazily, on the first pooled call, with the ``fork`` start
  method where the platform has it.  The parent has built its deployments
  by then, so the workers inherit them; spawn-only platforms rebuild them
  per worker, with identical output.
* **Reuse** — every later pooled call whose fork-time inputs still hold:
  the same ``workers`` and the same plane with the same published keys
  (the manifests that went through the initializer).
* **Retirement** — shutdown plus join, by :func:`retire_pool`: when those
  inputs change, from :func:`repro.perf.cache.clear_caches` (workers would
  miss anything patched into the parent since the fork), when the plane the pool was forked with closes, when a caller
  ends its scope (every CLI command does), and at interpreter exit.

Pooled calls run one at a time: a stream abandoned mid-way cancels its
queued units, and a unit still running when the next call starts finishes
first, its result discarded.  A child process never uses a pool it
inherited by fork.
"""

from __future__ import annotations

import atexit
import os
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.perf.shm import SharedNetworkPlane

ProgressFn = Callable[[str], None]

#: The live pool, the ``(workers, plane, published keys)`` it was forked
#: with, and the pid that owns it (a forked child inherits these globals).
_POOL: "Optional[ProcessPoolExecutor]" = None
_POOL_KEY: Optional[Tuple[int, Any, Tuple[Hashable, ...]]] = None
_POOL_PID = 0


def uses_pool(workers: int, unit_count: int) -> bool:
    """Whether :func:`run_units` runs ``unit_count`` units in a process pool."""
    return workers > 1 and unit_count > 1


def start_context() -> Any:
    """The ``fork`` context where fork exists, else the platform default.

    Explicit, so a platform whose default start method changes (CPython
    3.14 moves Linux to forkserver) keeps inheriting the parent's
    deployments instead of quietly rebuilding them in every worker.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def retire_pool(plane: "Optional[SharedNetworkPlane]" = None) -> None:
    """Shut the shared pool down and join its workers.

    With ``plane``, only a pool forked with that plane is retired.  A no-op
    when no pool is live; a pool inherited from a forking parent is
    dropped, never shut down, since its workers belong to that parent.
    """
    global _POOL, _POOL_KEY
    pool, key = _POOL, _POOL_KEY
    if pool is None or key is None or (plane is not None and key[1] is not plane):
        return
    _POOL, _POOL_KEY = None, None
    if _POOL_PID == os.getpid():
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(retire_pool)


def _pool(workers: int, plane: "Optional[SharedNetworkPlane]") -> "ProcessPoolExecutor":
    """The shared pool for these fork-time inputs, forked on first use."""
    global _POOL, _POOL_KEY, _POOL_PID
    if plane is not None and plane.active:
        from repro.perf.shm import install_worker_manifests

        manifests = plane.manifests()
        key: Tuple[int, Any, Tuple[Hashable, ...]] = (workers, plane, tuple(manifests))
        initializer: Optional[Callable[..., None]] = install_worker_manifests
        initargs: Tuple[Any, ...] = (manifests,)
    else:
        key, initializer, initargs = (workers, None, ()), None, ()
    if _POOL is not None and _POOL_PID == os.getpid() and _POOL_KEY == key:
        return _POOL
    retire_pool()
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=start_context(),
        initializer=initializer,
        initargs=initargs,
    )
    _POOL, _POOL_KEY, _POOL_PID = pool, key, os.getpid()
    return pool


def _pooled(
    fn: Callable[..., Any],
    args_iter: Iterable[Tuple[Any, ...]],
    workers: int,
    window: int,
    plane: "Optional[SharedNetworkPlane]",
) -> Iterator[Any]:
    """``fn(*args)`` on the shared pool, at most ``window`` units in flight.

    Yields in submission order — the canonical merge order; completion
    order (which is scheduling-dependent) never influences output.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = _pool(workers, plane)
    pending: "deque[Future[Any]]" = deque()
    try:
        for args in args_iter:
            while len(pending) >= window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool:
        retire_pool()
        raise
    finally:
        for future in pending:
            future.cancel()


def run_units(
    fn: Callable[..., Any],
    args_list: Sequence[Tuple[Any, ...]],
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    plane: "Optional[SharedNetworkPlane]" = None,
) -> List[Any]:
    """Run ``fn(*args)`` for every args tuple, results in submission order.

    Args:
        fn: A picklable module-level function (executed in-process when
            ``workers <= 1``, on the shared process pool otherwise).
        args_list: One picklable argument tuple per unit.
        workers: Process count; ``<= 1`` means serial in-process execution.
        progress: Optional callback, invoked once per completed unit.
        plane: Optional published shared-memory plane; its manifests reach
            every worker via the pool initializer so ``cached_network``
            attaches deployments instead of rebuilding them.

    Returns:
        ``[fn(*args) for args in args_list]`` — bit-identical regardless of
        ``workers``.
    """
    if uses_pool(workers, len(args_list)):
        outputs: Iterable[Any] = _pooled(fn, args_list, workers, len(args_list), plane)
    else:
        outputs = (fn(*args) for args in args_list)
    results = []
    for index, result in enumerate(outputs):
        results.append(result)
        if progress is not None:
            progress(f"unit {index + 1} done ({index + 1}/{len(args_list)})")
    return results


def stream_units(
    fn: Callable[..., Any],
    args_iter: Iterable[Tuple[Any, ...]],
    workers: int = 1,
    window: int = 0,
    plane: "Optional[SharedNetworkPlane]" = None,
) -> Iterator[Any]:
    """Streaming :func:`run_units`: unbounded input, bounded in-flight work.

    ``run_units`` materializes every argument tuple and every result — fine
    for fixed sweeps, linear-memory for open-ended session streams.  This
    generator instead keeps at most ``window`` units in flight and yields
    results strictly in *submission order*, so the caller folds them exactly
    as a serial run would: the output sequence is bit-identical for any
    ``workers``/``window`` combination (the PR 2 contract), while memory
    stays bounded by the window, not the stream length.

    Args:
        fn: A picklable module-level function (executed in-process when
            ``workers <= 1``).
        args_iter: Lazily-produced argument tuples; may be unbounded.  It
            is only advanced as window slots free up, so a generator
            backing it can checkpoint its own cursor safely.
        workers: Process count; ``<= 1`` means serial in-process execution.
        window: Maximum in-flight units when pooled (default:
            ``4 * workers``).  Larger windows hide worker latency jitter;
            the result order never changes.
        plane: Optional published shared-memory plane, forwarded to the
            pool initializer exactly as in :func:`run_units`.

    Yields:
        ``fn(*args)`` per input tuple, in submission order.
    """
    if workers <= 1:
        for args in args_iter:
            yield fn(*args)
        return
    if window <= 0:
        window = 4 * workers
    yield from _pooled(fn, args_iter, workers, max(window, workers), plane)
