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
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.perf.shm import PlaneManifest, SharedNetworkPlane

ProgressFn = Callable[[str], None]


def uses_pool(workers: int, unit_count: int) -> bool:
    """Whether :func:`run_units` runs ``unit_count`` units in a process pool."""
    return workers > 1 and unit_count > 1


def _plane_initializer(
    plane: "Optional[SharedNetworkPlane]",
) -> Tuple[Optional[Callable[..., None]], Tuple[Any, ...]]:
    """``(initializer, initargs)`` publishing a plane's manifests to workers.

    ``(None, ())`` — a no-op initializer — when no plane was provided or
    nothing is published on it, so pools behave exactly as before the
    shared-memory plane existed.
    """
    if plane is None or not plane.active:
        return None, ()
    from repro.perf.shm import install_worker_manifests

    manifests: "dict[Any, PlaneManifest]" = plane.manifests()
    return install_worker_manifests, (manifests,)


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
            ``workers <= 1``, in a :class:`~concurrent.futures.ProcessPoolExecutor`
            otherwise).
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

    def say(index: int) -> None:
        if progress is not None:
            progress(f"unit {index + 1} done ({index + 1}/{len(args_list)})")

    if not uses_pool(workers, len(args_list)):
        results = []
        for index, args in enumerate(args_list):
            results.append(fn(*args))
            say(index)
        return results

    from concurrent.futures import ProcessPoolExecutor

    initializer, initargs = _plane_initializer(plane)
    results = [None] * len(args_list)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        # Collect by submission index — canonical merge order; completion
        # order (which is scheduling-dependent) never influences output.
        for index, future in enumerate(futures):
            results[index] = future.result()
            say(index)
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

    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    if window <= 0:
        window = 4 * workers
    window = max(window, workers)
    initializer, initargs = _plane_initializer(plane)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        pending: "deque[Any]" = deque()
        for args in args_iter:
            while len(pending) >= window:
                # Head-of-line first: submission order is the fold order.
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()
