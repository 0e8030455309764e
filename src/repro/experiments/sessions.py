"""Streaming-session throughput sweep: GMP vs baselines under live arrivals.

Where :mod:`repro.experiments.scale` stresses *one-shot* batches at large
node counts, this sweep stresses the service regime: an open-ended stream
of multicast sessions arriving under seeded arrival processes (Poisson,
bursty MMPP, diurnal) with heavy-tailed Zipf group sizes, folded into
bounded-memory sketches as it completes.  It is the repo's first
*throughput-direction* harness — the operator-facing number is steady-state
sessions/sec (and peak RSS), not per-task transmissions.

Every cell (node count, arrival model, protocol) is an independent
resumable stream: the same seeded workload is replayed against each
protocol, cell checkpoints land in their own files, and the sweep digest
chains the per-cell chain digests — so serial, ``--workers N`` and
interrupted-then-resumed runs all render byte-identical reports.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine import EngineConfig
from repro.experiments.config import PaperConfig
from repro.experiments.scale import scaled_config
from repro.experiments.sweep import ProtocolSpec
from repro.perf.parallel import ProgressFn
from repro.perf.shm import SharedNetworkPlane, shared_plane_enabled
from repro.sessions.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    SessionWorkload,
    ZipfGroups,
)
from repro.sessions.runner import SessionReport, run_session_stream
from repro.sessions.store import CheckpointStore
from repro.simkit.rng import derive_seed

#: The arrival models a preset can enable, in canonical cell order.
ARRIVAL_MODELS: Dict[str, ArrivalProcess] = {
    "poisson": PoissonArrivals(rate_per_s=1.0),
    "mmpp": BurstyArrivals(
        on_rate_per_s=4.0, off_rate_per_s=0.2, mean_on_s=30.0, mean_off_s=60.0
    ),
    "diurnal": DiurnalArrivals(
        base_rate_per_s=1.0, amplitude=0.8, period_s=3600.0
    ),
}

#: Heavy-tailed group sizes shared by every preset: mostly small groups,
#: a tail out to 40 destinations.
SESSION_GROUPS = ZipfGroups(alpha=1.3, min_size=2, max_size=40)


@dataclass(frozen=True)
class SessionScale:
    """Statistical size of one streaming sweep preset."""

    name: str
    node_counts: Tuple[int, ...]
    arrivals: Tuple[str, ...]
    protocols: Tuple[ProtocolSpec, ...]
    sessions_per_cell: int
    epsilon: float = 0.01
    checkpoint_every: int = 8


#: CI preset: one small deployment, Poisson arrivals, GMP only — enough to
#: byte-diff serial vs ``--workers`` and interrupted vs resumed runs.
SESSIONS_SMOKE = SessionScale(
    name="smoke",
    node_counts=(2_000,),
    arrivals=("poisson",),
    protocols=(("GMP",),),
    sessions_per_cell=24,
)

#: Minutes-scale pass: the 10k-node point, bursty arrivals, all three
#: distributed protocols — the acceptance-criteria throughput run.
SESSIONS_QUICK = SessionScale(
    name="quick",
    node_counts=(2_000, 10_000),
    arrivals=("poisson", "mmpp"),
    protocols=(("GMP",), ("LGS",), ("GRD",)),
    sessions_per_cell=24,
)

#: The full streaming matrix out to 50k nodes and all arrival models.
SESSIONS_PAPER = SessionScale(
    name="paper",
    node_counts=(2_000, 10_000, 50_000),
    arrivals=("poisson", "mmpp", "diurnal"),
    protocols=(("GMP",), ("LGS",), ("GRD",)),
    sessions_per_cell=200,
)

#: Streaming-sweep presets by name (see :func:`repro.experiments.config.preset`).
SESSION_PRESETS: Dict[str, SessionScale] = {
    s.name: s for s in (SESSIONS_SMOKE, SESSIONS_QUICK, SESSIONS_PAPER)
}


#: One sweep cell: (node count, arrival label, protocol spec).
SessionCell = Tuple[int, str, ProtocolSpec]


def session_cells(scale: SessionScale) -> List[SessionCell]:
    """Cells in canonical order — the fold/report/resume order."""
    return [
        (node_count, arrival, spec)
        for node_count in scale.node_counts
        for arrival in scale.arrivals
        for spec in scale.protocols
    ]


def cell_workload(
    config: PaperConfig, node_count: int, arrival: str
) -> SessionWorkload:
    """The seeded stream of one (node count, arrival) pair.

    Shared across the cell's protocols: every protocol replays the *same*
    sessions, so cells differ only in the forwarding discipline under test.
    """
    return SessionWorkload(
        seed=derive_seed(config.master_seed, "sessions", node_count, arrival),
        node_count=node_count,
        arrival=ARRIVAL_MODELS[arrival],
        groups=SESSION_GROUPS,
    )


def _cell_store(
    checkpoint_dir: Optional[str], scale: SessionScale, cell: SessionCell
) -> Optional[CheckpointStore]:
    if checkpoint_dir is None:
        return None
    node_count, arrival, spec = cell
    name = f"sessions-{scale.name}-n{node_count}-{arrival}-{spec[0]}.json"
    return CheckpointStore(os.path.join(checkpoint_dir, name))


@dataclass
class SessionsSweep:
    """Results of one streaming sweep, keyed by canonical cell."""

    config: PaperConfig
    scale: SessionScale
    reports: Dict[SessionCell, SessionReport] = field(default_factory=dict)
    #: True when ``stop_after`` halted the sweep before every cell finished.
    truncated: bool = False

    def cells(self) -> List[SessionCell]:
        return [cell for cell in session_cells(self.scale) if cell in self.reports]

    def digest(self) -> str:
        """SHA-256 over per-cell chain digests in canonical cell order.

        The sweep-level byte-identity handle: serial, pooled and resumed
        runs must agree on it.
        """
        h = hashlib.sha256()
        for node_count, arrival, spec in self.cells():
            report = self.reports[(node_count, arrival, spec)]
            h.update(
                f"n={node_count} {arrival} {spec[0]} {report.chain_digest}".encode(
                    "utf-8"
                )
            )
        return h.hexdigest()

    @property
    def completed_sessions(self) -> int:
        return sum(r.completed for r in self.reports.values())

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale.name,
            "node_counts": list(self.scale.node_counts),
            "arrivals": list(self.scale.arrivals),
            "truncated": self.truncated,
            "completed_sessions": self.completed_sessions,
            "digest": self.digest(),
            "cells": [
                {
                    "node_count": node_count,
                    "arrival": arrival,
                    "protocol": str(spec[0]),
                    **self.reports[(node_count, arrival, spec)].to_json_dict(),
                }
                for node_count, arrival, spec in self.cells()
            ],
        }


def run_sessions_sweep(
    config: PaperConfig | None = None,
    scale: SessionScale | None = None,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
    checkpoint_dir: Optional[str] = None,
    stop_after: int = 0,
) -> SessionsSweep:
    """Run the streaming-session sweep; byte-identical at any worker count.

    Args:
        config: Table-1 base config; each node count is resized at constant
            density via :func:`repro.experiments.scale.scaled_config`.
        scale: Preset (default: smoke).
        workers: Pool size handed to every cell's stream.
        progress: Operator progress callback.
        checkpoint_dir: When set, every cell checkpoints into its own file
            there and resumes from it on a rerun.
        stop_after: When positive, halt the sweep once this many sessions
            (cumulative, canonical cell order) have completed *this run* —
            the deterministic interruption the CI resume test uses.  Only
            meaningful with ``checkpoint_dir``; the truncated sweep is
            marked :attr:`SessionsSweep.truncated`.

    Returns:
        The sweep with one :class:`~repro.sessions.runner.SessionReport`
        per completed cell.
    """
    base = config or PaperConfig()
    scl = scale or SESSIONS_SMOKE
    sweep = SessionsSweep(config=base, scale=scl)
    budget = stop_after if stop_after > 0 else None
    # One sweep-wide shared-memory plane: cells at the same node count share
    # a deployment, so publishing happens once per node count (publish is
    # idempotent per key) and every cell's pool attaches the same segments.
    plane: Optional[SharedNetworkPlane] = None
    if workers > 1 and shared_plane_enabled():
        plane = SharedNetworkPlane(seed=base.master_seed)
    try:
        for cell in session_cells(scl):
            node_count, arrival, spec = cell
            if budget is not None and budget <= 0:
                sweep.truncated = True
                break
            cell_config = scaled_config(base, node_count)
            workload = cell_workload(base, node_count, arrival)
            target = scl.sessions_per_cell
            if budget is not None and budget < target:
                target = budget
                sweep.truncated = True
            if progress is not None:
                progress(
                    f"cell n={node_count} {arrival} {spec[0]}: {target} sessions"
                )
            report = run_session_stream(
                workload,
                spec,
                cell_config,
                total_sessions=scl.sessions_per_cell if budget is None else target,
                engine=EngineConfig(max_path_length=cell_config.max_path_length),
                workers=workers,
                epsilon=scl.epsilon,
                checkpoint=_cell_store(checkpoint_dir, scl, cell),
                checkpoint_every=scl.checkpoint_every,
                progress=progress,
                plane=plane,
            )
            if budget is not None:
                budget -= report.completed
            if report.completed == scl.sessions_per_cell:
                sweep.reports[cell] = report
    finally:
        if plane is not None:
            plane.close()
    return sweep


def render_sessions_table(sweep: SessionsSweep) -> str:
    """Operator-facing per-cell summary (deterministic — CI byte-diffs it)."""
    header = [
        "nodes",
        "arrival",
        "proto",
        "sessions",
        "dlv",
        "lat p50",
        "lat p99",
        "tx mean",
    ]
    rows = [header]
    for node_count, arrival, spec in sweep.cells():
        report = sweep.reports[(node_count, arrival, spec)]
        latency = report.stats.metrics["latency_s"]
        tree = report.stats.metrics["tree_cost"]
        rows.append(
            [
                str(node_count),
                arrival,
                str(spec[0]),
                str(report.completed),
                f"{report.stats.aggregate_delivery_ratio:.3f}",
                f"{latency.quantiles.query(0.5):.4f}",
                f"{latency.quantiles.query(0.99):.4f}",
                f"{tree.moments.mean:.1f}",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    title = (
        f"Streaming sessions ({sweep.scale.name}): arrival-process workloads, "
        f"sketch-aggregated"
    )
    if sweep.truncated:
        title += " [truncated by --stop-after]"
    return "\n".join([title] + lines)
