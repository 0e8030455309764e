"""Robustness experiments: delivery under link loss and node failures.

Extensions beyond the paper's evaluation (which assumes a loss-free MAC and
live nodes): sweep the injected link-loss rate and the fraction of crashed
nodes, and measure each protocol's delivery ratio and energy.  Flooding is
included as the redundancy reference — it pays maximal energy but tolerates
loss best, bracketing the stateless protocols from above.  Every sweep runs
one unit per (x value, network, protocol) through
:func:`repro.experiments.sweep.run_cells`, so results are byte-identical
for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary import DROPPER, SPOOFER, SUPPRESSOR, AdversarySchedule, AdversarySpec
from repro.engine import EngineConfig, summarize_results
from repro.experiments.config import PaperConfig
from repro.experiments.figures import FigureResult
from repro.experiments.sweep import (
    ProtocolSpec,
    build_protocol,
    cached_network,
    counted_unit,
    network_means,
    run_cells,
    run_tasks,
)
from repro.network.graph import WirelessNetwork
from repro.sessions.workload import generate_tasks
from repro.simkit.rng import RandomStreams, derive_seed

ProgressFn = Callable[[str], None]

#: Protocols every robustness sweep compares (order fixes unit order).
ROBUSTNESS_SPECS: Tuple[ProtocolSpec, ...] = (("GMP",), ("LGS",), ("FLOOD",))


@dataclass(frozen=True)
class RobustnessScale:
    """Statistical scale of the robustness sweeps."""

    name: str = "quick"
    network_count: int = 2
    tasks_per_network: int = 15
    group_size: int = 8
    loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.35, 0.5)
    failed_fractions: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    adversary_counts: Tuple[int, ...] = (0, 1, 2, 4, 8)


SMOKE_ROBUSTNESS_SCALE = RobustnessScale(
    name="smoke",
    network_count=1,
    tasks_per_network=5,
    group_size=5,
    loss_rates=(0.0, 0.2),
    failed_fractions=(0.0, 0.1),
    adversary_counts=(0, 4),
)

QUICK_ROBUSTNESS_SCALE = RobustnessScale()

PAPER_ROBUSTNESS_SCALE = RobustnessScale(
    name="paper",
    network_count=5,
    tasks_per_network=40,
    group_size=10,
    loss_rates=(0.0, 0.05, 0.1, 0.2, 0.35, 0.5),
    failed_fractions=(0.0, 0.05, 0.1, 0.2, 0.3),
    adversary_counts=(0, 1, 2, 4, 8, 16),
)

#: Robustness presets by name (see :func:`repro.experiments.config.preset`).
ROBUSTNESS_PRESETS: Dict[str, RobustnessScale] = {
    s.name: s
    for s in (SMOKE_ROBUSTNESS_SCALE, QUICK_ROBUSTNESS_SCALE, PAPER_ROBUSTNESS_SCALE)
}


def _pick(network: WirelessNetwork, count: int, *labels: object) -> List[int]:
    """``count`` distinct node ids drawn from the seed derived from ``labels``."""
    rng = np.random.default_rng(derive_seed(*labels))
    return [int(node) for node in rng.choice(network.node_count, size=count, replace=False)]


@counted_unit
def run_robustness_unit(
    config: PaperConfig,
    scale: RobustnessScale,
    sweep: str,
    x: Any,
    net_index: int,
    spec: ProtocolSpec,
) -> Tuple[float, float]:
    """One (sweep x value, network, protocol) unit: delivery ratio and mean
    energy per task.

    Pure in its picklable arguments: the cell's tasks come from a stream
    keyed by the cell alone, so every protocol and every loss rate replays
    the same batch.  ``sweep`` is ``"loss"`` (x = loss rate), ``"crash"``
    (x = crashed fraction) or ``"adversary"`` (x = (behavior, count)).
    """
    network = cached_network(config, net_index)
    seed = config.master_seed
    excluded: List[int] = []
    options: Dict[str, Any]
    if sweep == "loss":
        labels: Tuple[object, ...] = ("robust-loss", net_index)
        options = dict(link_loss_rate=x, loss_seed=derive_seed(seed, "loss", net_index))
    elif sweep == "crash":
        labels = ("robust-crash", net_index, x)
        excluded = _pick(
            network, int(round(x * network.node_count)), seed, "crash", net_index, x
        )
        options = dict(failed_node_ids=frozenset(excluded))
    else:
        behavior, count = x
        labels = ("robust-adv", behavior, net_index, count)
        excluded = sorted(
            _pick(network, count, seed, "adv-place", behavior, net_index, count)
        )
        options = dict(
            adversary=AdversarySchedule(
                specs=tuple(_behavior_spec(behavior, node, config) for node in excluded),
                seed=derive_seed(seed, "adv-state", behavior, net_index, count),
            )
        )
    # Sources come from the live, honest nodes: the first tasks_per_network
    # of twice as many draws whose source is not excluded.
    skip = frozenset(excluded)
    draws = generate_tasks(
        network,
        scale.tasks_per_network * 2,
        scale.group_size,
        RandomStreams(seed).stream(*labels),
    )
    tasks = [t for t in draws if t.source_id not in skip][: scale.tasks_per_network]
    engine = EngineConfig(max_path_length=config.max_path_length, **options)
    summary = summarize_results(run_tasks(network, build_protocol(spec), tasks, engine))
    return summary.delivery_ratio, summary.mean_energy_joules


def _robustness_cells(
    config: PaperConfig,
    scale: RobustnessScale,
    sweep: str,
    xs: Sequence[Any],
    progress: Optional[ProgressFn],
    workers: int,
) -> List[List[Tuple[float, float]]]:
    """Run one sweep's (x, network) cells over :data:`ROBUSTNESS_SPECS`."""
    nets = scale.network_count
    return run_cells(
        run_robustness_unit,
        [(x, net_index) for x in xs for net_index in range(nets)],
        ROBUSTNESS_SPECS,
        lambda cell, spec: (config, scale, sweep, cell[0], cell[1], spec),
        workers=workers,
        progress=progress,
        describe=lambda cell: f"{sweep} {cell[0]}: network {cell[1] + 1}/{nets}",
    )


_LABELS = [str(spec[0]) for spec in ROBUSTNESS_SPECS]


def link_loss_sweep(
    config: Optional[PaperConfig] = None,
    scale: Optional[RobustnessScale] = None,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> Tuple[FigureResult, FigureResult]:
    """Delivery ratio and energy vs. injected link-loss rate.

    Every loss rate replays the same task batch per network, so the x axis
    varies only the loss odds.  Returns ``(delivery_figure, energy_figure)``.
    """
    cfg = config or PaperConfig(node_count=400)
    scl = scale or RobustnessScale()
    per_cell = _robustness_cells(cfg, scl, "loss", scl.loss_rates, progress, workers)
    nets = scl.network_count
    return (
        FigureResult(
            figure_id="robust-loss-delivery",
            title="Delivery ratio under link loss",
            x_label="per-copy loss probability",
            y_label="delivered / requested",
            series=network_means(
                _LABELS, scl.loss_rates, per_cell, nets, lambda out: out[0]
            ),
        ),
        FigureResult(
            figure_id="robust-loss-energy",
            title="Energy under link loss",
            x_label="per-copy loss probability",
            y_label="mean energy per task (J)",
            series=network_means(
                _LABELS, scl.loss_rates, per_cell, nets, lambda out: out[1]
            ),
        ),
    )


def node_failure_sweep(
    config: Optional[PaperConfig] = None,
    scale: Optional[RobustnessScale] = None,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> FigureResult:
    """Delivery ratio vs. fraction of silently crashed nodes.

    Crashed nodes are chosen uniformly (excluding each task's source); the
    protocols keep using stale neighbor tables, so copies routed into dead
    nodes vanish — the between-beacons failure window.
    """
    cfg = config or PaperConfig(node_count=400)
    scl = scale or RobustnessScale()
    per_cell = _robustness_cells(
        cfg, scl, "crash", scl.failed_fractions, progress, workers
    )
    return FigureResult(
        figure_id="robust-crash-delivery",
        title="Delivery ratio under silent node failures",
        x_label="fraction of crashed nodes",
        y_label="delivered / requested",
        series=network_means(
            _LABELS, scl.failed_fractions, per_cell, scl.network_count, lambda out: out[0]
        ),
    )


#: Behaviors the adversary sweep exercises.  Jammers are excluded: they only
#: exist on the contended transmission model, while this sweep (like the rest
#: of the robustness family) runs the per-copy protocol model.
ADVERSARY_SWEEP_BEHAVIORS: Tuple[str, ...] = (DROPPER, SPOOFER, SUPPRESSOR)


def _behavior_spec(behavior: str, node_id: int, cfg: PaperConfig) -> AdversarySpec:
    if behavior == DROPPER:
        return AdversarySpec(node_id, DROPPER)
    if behavior == SPOOFER:
        return AdversarySpec(
            node_id, SPOOFER, spoof_offset_m=0.4 * cfg.field_width_m
        )
    if behavior == SUPPRESSOR:
        return AdversarySpec(node_id, SUPPRESSOR)
    raise ValueError(
        f"behavior {behavior!r} is not sweepable on the protocol model "
        f"(expected one of {list(ADVERSARY_SWEEP_BEHAVIORS)})"
    )


def adversary_sweep(
    config: Optional[PaperConfig] = None,
    scale: Optional[RobustnessScale] = None,
    behaviors: Tuple[str, ...] = ADVERSARY_SWEEP_BEHAVIORS,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> Tuple[FigureResult, ...]:
    """Delivery ratio vs. number of adversarial nodes, one figure per behavior.

    Adversaries are placed uniformly; sources are filtered to honest nodes
    (an adversarial *source* would trivially sabotage its own task), but
    destinations and relays are left alone — routing *through* or *to* a
    compromised node is exactly the exposure being measured.  Count zero is
    the benign baseline: the schedule is empty, so the engine runs the
    adversary-free code path bit-for-bit.
    """
    cfg = config or PaperConfig(node_count=400)
    scl = scale or RobustnessScale()
    xs = [float(count) for count in scl.adversary_counts]
    per_cell = _robustness_cells(
        cfg,
        scl,
        "adversary",
        [(behavior, count) for behavior in behaviors for count in scl.adversary_counts],
        progress,
        workers,
    )
    per_behavior = len(xs) * scl.network_count
    return tuple(
        FigureResult(
            figure_id=f"robust-adv-{behavior}",
            title=f"Delivery ratio under {behavior} adversaries",
            x_label="adversarial node count",
            y_label="delivered / requested",
            series=network_means(
                _LABELS,
                xs,
                per_cell[b * per_behavior : (b + 1) * per_behavior],
                scl.network_count,
                lambda out: out[0],
            ),
        )
        for b, behavior in enumerate(behaviors)
    )
