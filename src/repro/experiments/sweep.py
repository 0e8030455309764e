"""Batch execution: seeded networks, task batches, and the PBM lambda sweep.

This module also hosts the pieces every experiment family shares:

* :func:`run_cells` — the one fan-out of every fixed-size sweep: it runs a
  unit per (cell, arm) through :func:`repro.perf.parallel.run_units`,
  reports each finished cell, merges worker perf counters once and
  regroups the results per cell;
* :func:`counted_unit` — turns a unit body into a ``(result, counter
  delta)`` unit whose counter window spans the whole call;
* :func:`cached_network` — a per-process memo so each worker reconstructs a
  given deployment once and reuses it across all units it executes;
* :func:`build_protocol` — protocol construction from a picklable spec tuple,
  so work units ship ``("PBM", 0.3)`` instead of protocol instances;
* :func:`select_best_lambda` — the paper's per-task best-lambda selection,
  shared between the serial :func:`best_lambda_results` and the merge step of
  the parallel sweep so both paths apply byte-identical semantics.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.engine import DEFAULT_ENGINE_CONFIG, EngineConfig, TaskResult, run_task
from repro.experiments.config import PaperConfig
from repro.sessions.workload import MulticastTask
from repro.network.graph import WirelessNetwork, build_network
from repro.network.topology import uniform_random_topology
from repro.perf.counters import GLOBAL_COUNTERS, merge_worker_perf
from repro.perf.parallel import ProgressFn, run_units, uses_pool
from repro.perf.shm import SharedNetworkPlane, attached_network
from repro.routing.base import RoutingProtocol
from repro.routing.flooding import FloodingProtocol
from repro.routing.gmp import GMPProtocol
from repro.routing.grd import GRDProtocol
from repro.routing.lgs import LGSProtocol
from repro.routing.pbm import PBMProtocol
from repro.routing.smt import SMTProtocol
from repro.simkit.rng import RandomStreams

#: A picklable protocol description: ``(name,)`` or ``("PBM", lam)``.
ProtocolSpec = Tuple[object, ...]

_PROTOCOL_FACTORIES: Dict[str, Callable[[], RoutingProtocol]] = {
    "GMP": lambda: GMPProtocol(radio_aware=True),
    "GMPnr": lambda: GMPProtocol(radio_aware=False),
    "LGS": LGSProtocol,
    "SMT": SMTProtocol,
    "GRD": GRDProtocol,
    "FLOOD": FloodingProtocol,
}


def build_protocol(spec: ProtocolSpec) -> RoutingProtocol:
    """Construct a protocol instance from a picklable spec tuple.

    ``("GMP",)``, ``("GMPnr",)``, ``("LGS",)``, ``("SMT",)``, ``("GRD",)``
    and ``("FLOOD",)`` take no parameters; ``("PBM", lam)`` carries its
    lambda.  Work units ship specs across the process boundary instead of
    live protocol objects, so a worker always starts from a
    freshly-constructed (stateless) instance.
    """
    name = spec[0]
    if name == "PBM":
        if len(spec) != 2:
            raise ValueError(f"PBM spec needs a lambda: {spec!r}")
        return PBMProtocol(lam=float(spec[1]))  # type: ignore[arg-type]
    if len(spec) != 1 or not isinstance(name, str):
        raise ValueError(f"malformed protocol spec {spec!r}")
    try:
        return _PROTOCOL_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown protocol spec {spec!r}") from None


def make_network(
    config: PaperConfig,
    network_index: int,
    node_count: Optional[int] = None,
) -> WirelessNetwork:
    """Deterministically build the ``network_index``-th evaluation network.

    The same ``(master_seed, network_index, node_count)`` triple always
    yields the identical deployment, so results are exactly reproducible.
    """
    count = node_count if node_count is not None else config.node_count
    streams = RandomStreams(config.master_seed)
    rng = streams.stream("topology", network_index, count)
    points = uniform_random_topology(
        count, config.field_width_m, config.field_height_m, rng
    )
    return build_network(points, config.radio)


#: Per-process deployment memo (see :func:`cached_network`).
_NETWORK_MEMO: "OrderedDict[Tuple[PaperConfig, int, Optional[int]], WirelessNetwork]" = (
    OrderedDict()
)
_NETWORK_MEMO_CAP = 64


def cached_network(
    config: PaperConfig,
    network_index: int,
    node_count: Optional[int] = None,
) -> WirelessNetwork:
    """:func:`make_network`, memoized per process.

    Parallel work units are sharded finer than one-unit-per-network (one per
    network x k x protocol), so each worker would otherwise rebuild the same
    deployment dozens of times.  Deployments are deterministic in the key and
    immutable in use, so sharing one instance is safe; the memo is a bounded
    LRU — hits move the entry to the back, eviction takes the *least
    recently used* front — so long many-density sessions neither accumulate
    networks without bound nor evict the deployment they are actively using.

    Before building, a miss consults the shared-memory plane
    (:func:`repro.perf.shm.attached_network`): when the parent published
    this deployment, the worker attaches a zero-copy view instead of
    rebuilding — bit-identical state for a fraction of the warm-up.
    """
    key = (config, network_index, node_count)
    network = _NETWORK_MEMO.get(key)
    if network is not None:
        _NETWORK_MEMO.move_to_end(key)
        return network
    network = attached_network(key)
    if network is None:
        network = make_network(config, network_index, node_count=node_count)
    if len(_NETWORK_MEMO) >= _NETWORK_MEMO_CAP:
        _NETWORK_MEMO.popitem(last=False)
    _NETWORK_MEMO[key] = network
    return network


def run_tasks(
    network: WirelessNetwork,
    protocol: RoutingProtocol,
    tasks: Sequence[MulticastTask],
    engine_config: EngineConfig | None = None,
) -> List[TaskResult]:
    """Run each task under ``protocol`` and collect the results."""
    cfg = engine_config or DEFAULT_ENGINE_CONFIG
    return [
        run_task(
            network,
            protocol,
            task.source_id,
            task.destination_ids,
            config=cfg,
            task_id=task.task_id,
        )
        for task in tasks
    ]


def select_best_lambda(
    per_lambda: Sequence[Sequence[TaskResult]],
) -> List[TaskResult]:
    """Per-task best result across lambda-ordered batches (Section 5.1).

    ``per_lambda[i][t]`` is task ``t`` run with the ``i``-th lambda; the
    winner per task is the minimum under ``(failed, transmissions)`` with
    ties broken by lambda order.  Kept as a standalone function because the
    parallel sweep applies it at merge time to batches computed by
    independent workers — both paths must agree exactly.
    """
    if not per_lambda:
        raise ValueError("need at least one lambda batch")
    task_count = len(per_lambda[0])
    if any(len(batch) != task_count for batch in per_lambda):
        raise ValueError("lambda batches must cover the same tasks")
    best: List[TaskResult] = []
    for task_index in range(task_count):
        candidates = [batch[task_index] for batch in per_lambda]
        best.append(
            min(
                candidates,
                key=lambda r: (0 if r.success else 1, r.transmissions),
            )
        )
    return best


def best_lambda_results(
    network: WirelessNetwork,
    tasks: Sequence[MulticastTask],
    lambdas: Sequence[float],
    engine_config: EngineConfig | None = None,
    protocol_factory: Callable[[float], RoutingProtocol] = PBMProtocol,
) -> List[TaskResult]:
    """The paper's PBM protocol: run each task once per lambda, keep the best.

    Section 5.1: "we have run the same routing task seven times, with the
    value of lambda varying from 0 to 0.6.  Among the results corresponding
    to these lambda values, only the best (minimum number of hops) one is
    included".  Failed runs are always dominated by successful ones.
    """
    if not lambdas:
        raise ValueError("need at least one lambda value")
    cfg = engine_config or DEFAULT_ENGINE_CONFIG
    per_lambda = [
        run_tasks(network, protocol_factory(lam), tasks, cfg) for lam in lambdas
    ]
    return select_best_lambda(per_lambda)


R = TypeVar("R")

#: What a sweep unit returns: its result plus the perf-counter delta it
#: accumulated (merged back by the parent when the unit ran in a worker).
UnitOutput = Tuple[Any, Dict[str, float]]


def counted_unit(body: Callable[..., R]) -> Callable[..., Tuple[R, Dict[str, float]]]:
    """Make ``body`` a sweep unit returning ``(result, counter delta)``.

    The counter window opens before ``body``'s first line, so the delta
    covers everything the unit did — including a pool worker's first
    deployment build inside :func:`cached_network`.  The wrapper keeps the
    body's module and name, so units still pickle by reference.
    """

    @functools.wraps(body)
    def unit(*args: Any) -> Tuple[R, Dict[str, float]]:
        before = GLOBAL_COUNTERS.snapshot()
        result = body(*args)
        return result, GLOBAL_COUNTERS.delta_since(before)

    return unit


def run_cells(
    unit: Callable[..., UnitOutput],
    cells: Sequence[Any],
    arms: Sequence[Any],
    unit_args: Callable[[Any, Any], Tuple[Any, ...]],
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    describe: Callable[[Any], str] = str,
    plane: Optional[SharedNetworkPlane] = None,
) -> List[List[Any]]:
    """Run ``unit(*unit_args(cell, arm))`` for every cell and arm.

    The one fan-out of every fixed-size sweep.  Units are submitted cell by
    cell, arms in order, through :func:`repro.perf.parallel.run_units`, so
    the result is bit-identical for any ``workers``.  ``progress`` hears
    one line per finished cell (labelled by ``describe``); worker perf
    deltas are merged once, only when a pool ran; ``plane`` is forwarded
    to the pool.

    Returns:
        Per cell, the units' results in arm order (deltas stripped).
    """
    units = [unit_args(cell, arm) for cell in cells for arm in arms]
    width = len(arms)
    finished = 0

    def unit_done(_message: str) -> None:
        # Units are reported in submission order, so every width-th report
        # closes the next cell.
        nonlocal finished
        finished += 1
        if progress is not None and finished % width == 0:
            done = finished // width
            progress(f"{describe(cells[done - 1])} done ({done}/{len(cells)})")

    outputs = run_units(
        unit,
        units,
        workers=workers,
        progress=None if progress is None else unit_done,
        plane=plane,
    )
    merge_worker_perf(
        (delta for _, delta in outputs), used_pool=uses_pool(workers, len(units))
    )
    return [
        [result for result, _ in outputs[start : start + width]]
        for start in range(0, len(outputs), width)
    ]


def network_means(
    labels: Sequence[str],
    xs: Sequence[float],
    per_cell: Sequence[Sequence[Any]],
    network_count: int,
    metric: Callable[[Any], float],
    factor: float = 1.0,
    divisor: Optional[int] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """One series per arm label: ``factor * sum / divisor`` per x value.

    ``per_cell`` is :func:`run_cells` output for cells ordered with the
    network index innermost, so each run of ``network_count`` cells is one
    x value; ``sum`` adds ``metric`` over them in network order, as a
    serial loop's accumulator does.  ``divisor`` defaults to
    ``network_count`` (a mean over networks).
    """
    starts = range(0, len(per_cell), network_count)
    return {
        label: [
            (
                x,
                factor
                * sum(metric(cell[arm]) for cell in per_cell[start : start + network_count])
                / (divisor or network_count),
            )
            for x, start in zip(xs, starts)
        ]
        for arm, label in enumerate(labels)
    }
