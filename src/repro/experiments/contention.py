"""Contention experiments: concurrent sessions on the shared channel.

The paper's figures assume a collision-free MAC; these extension sweeps run
the same protocols through the contended link layer
(:mod:`repro.linklayer`), where concurrent multicast sessions genuinely
fight for the air.  Two questions are measured:

* **Scaling with load** — :func:`contention_sweep`: delivery ratio, latency
  and energy as the number of concurrent sessions grows, at one or more
  offered loads (mean session inter-arrival times).  Flooding is included
  as the redundancy reference: its broadcast storm is exactly what CSMA
  punishes, so the loss-free ordering inverts under contention.
* **What ARQ buys** — :func:`arq_ablation`: GMP delivery vs. injected link
  loss with retransmission on and off, at fixed concurrency.

Everything is sharded into pure work units and executed through
:func:`repro.experiments.sweep.run_cells`, so results are bit-identical for any
worker count: tasks, arrival times, MAC backoff and loss coins all re-derive
from the master seed inside the executing process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import EngineConfig, TaskResult, run_contended_tasks, summarize_results
from repro.experiments.config import PaperConfig
from repro.experiments.figures import FigureResult
from repro.experiments.sweep import (
    ProtocolSpec,
    build_protocol,
    cached_network,
    counted_unit,
    network_means,
    run_cells,
)
from repro.linklayer import LinkLayerConfig
from repro.sessions.arrivals import exponential_starts
from repro.sessions.workload import generate_tasks
from repro.simkit.rng import RandomStreams

ProgressFn = Callable[[str], None]

#: Protocols compared under contention (order fixes unit submission order).
CONTENTION_SPECS: Tuple[ProtocolSpec, ...] = (
    ("GMP",),
    ("LGS",),
    ("GRD",),
    ("FLOOD",),
)


@dataclass(frozen=True)
class ContentionScale:
    """Statistical scale of the contention sweeps.

    Attributes:
        name: Preset name (``smoke`` / ``quick`` / ``paper``).
        network_count: Seeded deployments averaged per cell.
        node_count: Deployment size (contended runs cost far more events
            per task than the default model, so this is deliberately
            smaller than Table 1's 1000).
        group_size: Destinations per multicast session.
        session_counts: Concurrency levels (x axis of the sweep figures).
        interarrival_s: Mean session inter-arrival times — one full sweep
            is run per value; smaller means higher offered load.
        ablation_loss_rates: Injected per-copy loss rates of the ARQ
            ablation (its x axis).
        ablation_sessions: Fixed concurrency of the ARQ ablation.
    """

    name: str = "quick"
    network_count: int = 2
    node_count: int = 300
    group_size: int = 8
    session_counts: Tuple[int, ...] = (1, 2, 4, 8)
    interarrival_s: Tuple[float, ...] = (0.05, 0.005)
    ablation_loss_rates: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.4)
    ablation_sessions: int = 2


SMOKE_CONTENTION_SCALE = ContentionScale(
    name="smoke",
    network_count=1,
    node_count=150,
    group_size=5,
    session_counts=(1, 3),
    interarrival_s=(0.01,),
    ablation_loss_rates=(0.0, 0.25),
    ablation_sessions=2,
)

QUICK_CONTENTION_SCALE = ContentionScale()

PAPER_CONTENTION_SCALE = ContentionScale(
    name="paper",
    network_count=5,
    node_count=500,
    group_size=10,
    session_counts=(1, 2, 4, 8, 16),
    interarrival_s=(0.1, 0.01, 0.001),
    ablation_loss_rates=(0.0, 0.05, 0.1, 0.2, 0.35, 0.5),
    ablation_sessions=4,
)


#: Contention presets by name (see :func:`repro.experiments.config.preset`).
CONTENTION_PRESETS: Dict[str, ContentionScale] = {
    s.name: s
    for s in (SMOKE_CONTENTION_SCALE, QUICK_CONTENTION_SCALE, PAPER_CONTENTION_SCALE)
}


def _session_specs_and_starts(
    config: PaperConfig,
    scale: ContentionScale,
    net_index: int,
    session_count: int,
    interarrival_s: float,
) -> Tuple[List[Tuple[int, int, Tuple[int, ...]]], List[float]]:
    """The cell's sessions (same for every protocol) and arrival times.

    Task ids are unique per (network, concurrency) cell so each session's
    loss stream is distinct, but independent of the offered load — the same
    sessions are replayed at every load, only their spacing changes.
    """
    network = cached_network(config, net_index, node_count=scale.node_count)
    streams = RandomStreams(config.master_seed)
    tasks = generate_tasks(
        network,
        session_count,
        scale.group_size,
        streams.stream("contention-tasks", net_index, session_count),
        first_task_id=net_index * 10_000 + session_count * 100,
    )
    arrival_rng = streams.stream(
        "contention-arrivals", net_index, session_count, interarrival_s
    )
    starts = exponential_starts(arrival_rng, len(tasks), interarrival_s)
    return [t.as_session_tuple() for t in tasks], starts


@counted_unit
def run_contention_unit(
    config: PaperConfig,
    scale: ContentionScale,
    engine: EngineConfig,
    net_index: int,
    session_count: int,
    interarrival_s: float,
    spec: ProtocolSpec,
) -> List[TaskResult]:
    """One (network, concurrency, load, protocol) unit of the sweep.

    Pure in its picklable arguments — the deployment, the sessions, their
    arrival times, and every random MAC delay re-derive from seeds inside
    the executing process, so inline and pooled execution agree byte for
    byte.
    """
    network = cached_network(config, net_index, node_count=scale.node_count)
    sessions, starts = _session_specs_and_starts(
        config, scale, net_index, session_count, interarrival_s
    )
    return run_contended_tasks(
        network,
        sessions,
        lambda: build_protocol(spec),
        config=engine,
        start_times=starts,
    )


def _contended_engine(
    config: PaperConfig,
    loss_rate: float = 0.0,
    link: Optional[LinkLayerConfig] = None,
) -> EngineConfig:
    kwargs = {}
    if link is not None:
        kwargs["link"] = link
    return EngineConfig(
        max_path_length=config.max_path_length,
        transmission_model="contended",
        link_loss_rate=loss_rate,
        loss_seed=config.master_seed,
        **kwargs,
    )


def contention_sweep(
    config: Optional[PaperConfig] = None,
    scale: Optional[ContentionScale] = None,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> Dict[str, FigureResult]:
    """Delivery, latency and energy vs. concurrent session count.

    One series per (protocol, offered load); x is the number of concurrent
    sessions sharing the channel.  Returns figures keyed
    ``contention-delivery`` / ``contention-latency`` / ``contention-energy``.
    """
    cfg = config or PaperConfig()
    scl = scale or QUICK_CONTENTION_SCALE
    engine = _contended_engine(cfg)
    nets = scl.network_count
    cells = [
        (net_index, sessions, interarrival)
        for interarrival in scl.interarrival_s
        for sessions in scl.session_counts
        for net_index in range(nets)
    ]
    per_cell = run_cells(
        run_contention_unit,
        cells,
        CONTENTION_SPECS,
        lambda cell, spec: (cfg, scl, engine, *cell, spec),
        workers=workers,
        progress=progress,
        describe=lambda cell: (
            f"load {cell[2]}s: {cell[1]} sessions, network {cell[0] + 1}/{nets}"
        ),
    )
    summaries = [[summarize_results(results) for results in cell] for cell in per_cell]

    delivery: Dict[str, List[Tuple[float, float]]] = {}
    latency: Dict[str, List[Tuple[float, float]]] = {}
    energy: Dict[str, List[Tuple[float, float]]] = {}
    xs = [float(sessions) for sessions in scl.session_counts]
    per_load = len(scl.session_counts) * nets
    for load, interarrival in enumerate(scl.interarrival_s):
        labels = [
            str(spec[0])
            if len(scl.interarrival_s) == 1
            else f"{spec[0]} ia={interarrival:g}s"
            for spec in CONTENTION_SPECS
        ]
        block = summaries[load * per_load : (load + 1) * per_load]
        delivery.update(
            network_means(labels, xs, block, nets, lambda s: s.delivery_ratio)
        )
        latency.update(
            network_means(
                labels, xs, block, nets, lambda s: s.mean_duration_s, factor=1000.0
            )
        )
        energy.update(
            network_means(labels, xs, block, nets, lambda s: s.mean_energy_joules)
        )
    return {
        "contention-delivery": FigureResult(
            figure_id="contention-delivery",
            title="Delivery ratio under channel contention",
            x_label="concurrent sessions",
            y_label="delivered / requested",
            series=delivery,
        ),
        "contention-latency": FigureResult(
            figure_id="contention-latency",
            title="Latency under channel contention",
            x_label="concurrent sessions",
            y_label="mean session completion time (ms)",
            series=latency,
        ),
        "contention-energy": FigureResult(
            figure_id="contention-energy",
            title="Energy under channel contention",
            x_label="concurrent sessions",
            y_label="mean energy per session (J)",
            series=energy,
        ),
    }


def arq_ablation(
    config: Optional[PaperConfig] = None,
    scale: Optional[ContentionScale] = None,
    progress: Optional[ProgressFn] = None,
    workers: int = 1,
) -> FigureResult:
    """GMP delivery ratio vs. injected link loss, ARQ on vs. off.

    Same sessions, same loss coins (the loss stream is keyed by task id and
    seed, not by the MAC configuration) — the only difference is whether
    destroyed copies are retransmitted.
    """
    cfg = config or PaperConfig()
    scl = scale or QUICK_CONTENTION_SCALE
    arms: Tuple[Tuple[str, Optional[LinkLayerConfig]], ...] = (
        ("GMP ARQ", None),
        ("GMP no-ARQ", LinkLayerConfig(arq=False)),
    )
    interarrival = scl.interarrival_s[0]
    nets = scl.network_count
    cells = [
        (loss, net_index)
        for loss in scl.ablation_loss_rates
        for net_index in range(nets)
    ]
    per_cell = run_cells(
        run_contention_unit,
        cells,
        arms,
        lambda cell, arm: (
            cfg,
            scl,
            _contended_engine(cfg, loss_rate=cell[0], link=arm[1]),
            cell[1],
            scl.ablation_sessions,
            interarrival,
            ("GMP",),
        ),
        workers=workers,
        progress=progress,
        describe=lambda cell: f"loss {cell[0]}: network {cell[1] + 1}/{nets}",
    )
    series = network_means(
        [name for name, _ in arms],
        scl.ablation_loss_rates,
        per_cell,
        nets,
        lambda results: summarize_results(results).delivery_ratio,
    )
    return FigureResult(
        figure_id="contention-arq",
        title="ARQ under injected link loss (GMP)",
        x_label="per-copy loss probability",
        y_label="delivered / requested",
        series=series,
    )
