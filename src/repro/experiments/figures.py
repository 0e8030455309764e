"""Regeneration harnesses for the paper's Figures 11, 12, 14 and 15.

Figures 11 (total hops), 12 (per-destination hops) and 14 (energy) all
derive from the *same* sweep over group sizes — run it once with
:func:`run_group_size_sweep` and feed the result to each figure function.
Figure 15 (failed tasks vs. density) has its own sweep.

Absolute numbers will differ from the paper (our substrate is not ns-2.27);
the claims under test are the *shapes*: protocol ordering, the ~25% GMP
advantage in total hops/energy, per-destination parity with GRD, and the
failure ordering LGS > PBM > GMP at low densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineConfig, TaskResult, summarize_results
from repro.experiments.config import ExperimentScale, PaperConfig
from repro.experiments.sweep import (
    ProtocolSpec,
    build_protocol,
    cached_network,
    counted_unit,
    network_means,
    run_cells,
    run_tasks,
    select_best_lambda,
)
from repro.sessions.workload import MulticastTask, generate_tasks
from repro.simkit.rng import RandomStreams

ProgressFn = Callable[[str], None]

#: Display labels used across figures and reports.
LABEL_GMP = "GMP"
LABEL_GMPNR = "GMPnr"
LABEL_LGS = "LGS"
LABEL_PBM = "PBM"
LABEL_SMT = "SMT"
LABEL_GRD = "GRD"


@dataclass
class FigureResult:
    """One regenerated figure: named series of ``(x, y)`` points."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def labels(self) -> List[str]:
        return list(self.series)

    def xs(self) -> List[float]:
        first = next(iter(self.series.values()), [])
        return [x for x, _ in first]

    def value(self, label: str, x: float) -> float:
        """The y value of ``label``'s series at ``x``."""
        for px, py in self.series[label]:
            if px == x:
                return py
        raise KeyError(f"series {label!r} has no point at x={x}")

    def to_json_dict(self) -> Dict:
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": {k: list(map(list, v)) for k, v in self.series.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "FigureResult":
        """Inverse of :meth:`to_json_dict` (for post-hoc analysis of saved runs)."""
        return cls(
            figure_id=payload["figure_id"],
            title=payload["title"],
            x_label=payload["x_label"],
            y_label=payload["y_label"],
            series={
                label: [(float(x), float(y)) for x, y in points]
                for label, points in payload["series"].items()
            },
        )


@dataclass
class GroupSizeSweep:
    """Raw task results of the shared k-sweep: label -> k -> results."""

    config: PaperConfig
    scale: ExperimentScale
    results: Dict[str, Dict[int, List[TaskResult]]] = field(default_factory=dict)

    def add(self, label: str, group_size: int, batch: Sequence[TaskResult]) -> None:
        self.results.setdefault(label, {}).setdefault(group_size, []).extend(batch)

    def mean_metric(
        self, label: str, group_size: int, metric: Callable[[TaskResult], float]
    ) -> float:
        batch = self.results[label][group_size]
        return sum(metric(r) for r in batch) / len(batch)


def _default_engine_config(config: PaperConfig) -> EngineConfig:
    return EngineConfig(max_path_length=config.max_path_length)


def _sweep_specs(scale: ExperimentScale, include_grd: bool) -> List[ProtocolSpec]:
    """Canonical per-cell protocol spec order for the shared k-sweep."""
    specs: List[ProtocolSpec] = [
        (LABEL_GMP,),
        (LABEL_GMPNR,),
        (LABEL_LGS,),
        (LABEL_SMT,),
    ]
    if include_grd:
        specs.append((LABEL_GRD,))
    specs.extend((LABEL_PBM, lam) for lam in scale.lambdas)
    return specs


def _sweep_tasks(
    config: PaperConfig, scale: ExperimentScale, net_index: int, group_size: int
) -> List[MulticastTask]:
    """The (network, k) cell's task batch, re-derived from the master seed."""
    network = cached_network(config, net_index)
    streams = RandomStreams(config.master_seed)
    return generate_tasks(
        network,
        scale.tasks_per_network,
        group_size,
        streams.stream("workload", net_index, group_size),
        first_task_id=net_index * 10_000 + group_size * 100,
    )


@counted_unit
def run_sweep_unit(
    config: PaperConfig,
    scale: ExperimentScale,
    engine: EngineConfig,
    net_index: int,
    group_size: int,
    spec: ProtocolSpec,
) -> List[TaskResult]:
    """One (network, k, protocol) unit of the shared sweep.

    A pure function of its (picklable) arguments: the network and task batch
    are re-derived from seeds inside the executing process, so the result is
    identical whether it runs inline or in a pool worker.
    """
    network = cached_network(config, net_index)
    tasks = _sweep_tasks(config, scale, net_index, group_size)
    return run_tasks(network, build_protocol(spec), tasks, engine)


def run_group_size_sweep(
    config: PaperConfig | None = None,
    scale: ExperimentScale | None = None,
    engine_config: EngineConfig | None = None,
    include_grd: bool = True,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> GroupSizeSweep:
    """The shared sweep behind Figures 11, 12 and 14.

    For each seeded network and each group size ``k``, the *same* tasks are
    run under GMP, GMPnr, LGS, SMT, (optionally) GRD, and PBM with the
    paper's per-task best-lambda selection.

    The work is sharded one unit per (network, k, protocol-or-lambda) and
    executed through :func:`~repro.experiments.sweep.run_cells` — the same
    code path whether serial or parallel.  ``workers > 1`` distributes units
    over a process pool; the aggregated result is bit-identical to
    ``workers=1`` because every unit is deterministic in its arguments,
    units are merged in canonical cell order, and PBM's per-task
    best-lambda selection runs at merge time via
    :func:`~repro.experiments.sweep.select_best_lambda` exactly as in the
    serial path.
    """
    from repro.experiments.config import QUICK_SCALE

    cfg = config or PaperConfig()
    scl = scale or QUICK_SCALE
    engine = engine_config or _default_engine_config(cfg)
    sweep = GroupSizeSweep(config=cfg, scale=scl)
    specs = _sweep_specs(scl, include_grd)
    fixed_count = len(specs) - len(scl.lambdas)
    cells = [
        (net_index, k)
        for net_index in range(scl.network_count)
        for k in scl.group_sizes
    ]
    per_cell = run_cells(
        run_sweep_unit,
        cells,
        specs,
        lambda cell, spec: (cfg, scl, engine, *cell, spec),
        workers=workers,
        progress=progress,
        describe=lambda cell: f"network {cell[0] + 1}/{scl.network_count} k={cell[1]}",
    )
    for (_, k), batches in zip(cells, per_cell):
        for spec, batch in zip(specs[:fixed_count], batches):
            sweep.add(str(spec[0]), k, batch)
        sweep.add(LABEL_PBM, k, select_best_lambda(batches[fixed_count:]))
    return sweep


def _series_from_sweep(
    sweep: GroupSizeSweep,
    metric: Callable[[TaskResult], float],
    labels: Sequence[str],
) -> Dict[str, List[Tuple[float, float]]]:
    return {
        label: [
            (float(k), sweep.mean_metric(label, k, metric))
            for k in sweep.scale.group_sizes
        ]
        for label in labels
        if label in sweep.results
    }


def figure11(sweep: GroupSizeSweep) -> FigureResult:
    """Figure 11: total number of hops in the multicast tree vs. k."""
    labels = [LABEL_PBM, LABEL_LGS, LABEL_GMP, LABEL_GMPNR, LABEL_SMT]
    return FigureResult(
        figure_id="figure11",
        title="Total number of hops",
        x_label="number of destinations (k)",
        y_label="mean transmissions per task",
        series=_series_from_sweep(sweep, lambda r: float(r.transmissions), labels),
    )


def figure12(sweep: GroupSizeSweep) -> FigureResult:
    """Figure 12: average per-destination hop count vs. k."""
    labels = [LABEL_PBM, LABEL_LGS, LABEL_GMP, LABEL_SMT, LABEL_GRD]
    return FigureResult(
        figure_id="figure12",
        title="Per-destination hop count",
        x_label="number of destinations (k)",
        y_label="mean hops per delivered destination",
        series=_series_from_sweep(
            sweep, lambda r: r.average_per_destination_hops, labels
        ),
    )


def figure14(sweep: GroupSizeSweep) -> FigureResult:
    """Figure 14: total energy cost vs. k (senders + all listeners)."""
    labels = [LABEL_PBM, LABEL_LGS, LABEL_GMP, LABEL_GMPNR, LABEL_SMT]
    return FigureResult(
        figure_id="figure14",
        title="Total energy cost",
        x_label="number of destinations (k)",
        y_label="mean energy per task (J)",
        series=_series_from_sweep(sweep, lambda r: r.energy_joules, labels),
    )


@counted_unit
def run_density_unit(
    config: PaperConfig,
    scale: ExperimentScale,
    engine: EngineConfig,
    net_index: int,
    node_count: int,
    spec: ProtocolSpec,
) -> List[TaskResult]:
    """One (density, network, protocol) unit of the Figure-15 sweep."""
    network = cached_network(config, net_index, node_count=node_count)
    streams = RandomStreams(config.master_seed)
    tasks = generate_tasks(
        network,
        scale.tasks_per_network,
        scale.density_group_size,
        streams.stream("workload-density", net_index, node_count),
        first_task_id=net_index * 10_000,
    )
    return run_tasks(network, build_protocol(spec), tasks, engine)


def figure15(
    config: PaperConfig | None = None,
    scale: ExperimentScale | None = None,
    engine_config: EngineConfig | None = None,
    pbm_lambda: float = 0.3,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> FigureResult:
    """Figure 15: failed tasks vs. network density.

    k = 12 destinations, TTL = 100 hops; only the protocols with perimeter
    recovery semantics are compared (PBM, LGS, GMP), exactly as in the
    paper.  The y value is the failure count normalized to the paper's
    1000-task total.  Sharded one unit per (density, network, protocol) via
    :func:`~repro.experiments.sweep.run_cells`; the result is bit-identical
    for any worker count.
    """
    from repro.experiments.config import QUICK_SCALE

    cfg = config or PaperConfig()
    scl = scale or QUICK_SCALE
    engine = engine_config or _default_engine_config(cfg)
    specs: List[ProtocolSpec] = [
        (LABEL_PBM, pbm_lambda),
        (LABEL_LGS,),
        (LABEL_GMP,),
    ]
    cells = [
        (node_count, net_index)
        for node_count in scl.density_node_counts
        for net_index in range(scl.network_count)
    ]
    per_cell = run_cells(
        run_density_unit,
        cells,
        specs,
        lambda cell, spec: (cfg, scl, engine, cell[1], cell[0], spec),
        workers=workers,
        progress=progress,
        describe=lambda cell: (
            f"density {cell[0]}: network {cell[1] + 1}/{scl.network_count}"
        ),
    )
    return FigureResult(
        figure_id="figure15",
        title="Number of failed tasks for different network densities",
        x_label="number of nodes",
        y_label="failed tasks (per 1000)",
        # Failure counts normalized to the paper's 1000-task denominator.
        series=network_means(
            [str(spec[0]) for spec in specs],
            [float(node_count) for node_count in scl.density_node_counts],
            per_cell,
            scl.network_count,
            lambda batch: sum(0 if r.success else 1 for r in batch),
            factor=1000.0,
            divisor=scl.network_count * scl.tasks_per_network,
        ),
    )


def figure_latency(sweep: GroupSizeSweep) -> FigureResult:
    """Extension figure: mean task completion time vs. group size.

    Not in the paper (ns-2 latency depends on MAC contention, which we do
    not model); in our substrate completion time is hop-depth times airtime
    along the slowest branch, so this is effectively a maximum-depth view
    of the multicast trees — sequential protocols (LGS) fare worst.
    """
    labels = [LABEL_PBM, LABEL_LGS, LABEL_GMP, LABEL_SMT, LABEL_GRD]
    return FigureResult(
        figure_id="latency",
        title="Task completion time (extension)",
        x_label="number of destinations (k)",
        y_label="mean time to quiescence (ms)",
        series=_series_from_sweep(
            sweep, lambda r: 1000.0 * r.duration_s, labels
        ),
    )


def delivery_summary(sweep: GroupSizeSweep) -> Dict[str, Dict[int, float]]:
    """Delivery ratio per protocol and group size (diagnostic, not a figure)."""
    out: Dict[str, Dict[int, float]] = {}
    for label, by_k in sweep.results.items():
        out[label] = {
            k: summarize_results(batch).delivery_ratio for k, batch in by_k.items()
        }
    return out
