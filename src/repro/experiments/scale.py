"""Large-scale constant-density sweep: 2k up to 100k nodes, groups up to 100.

The paper evaluates 1000-node deployments; this sweep stresses the
implementation well beyond that regime, which is what the batched
adjacency build (:mod:`repro.perf.kernels`) and the struct-of-arrays
network core exist for.
Density is held at the paper's Table-1 operating point — 1000 nodes per
km² with the 150 m radio — by growing the field side as
``1000 m * sqrt(n / 1000)``, so per-node degree (and thus protocol
behaviour) stays comparable across node counts while the *global* problem
size scales.

Protocols compared: GMP against the two cheap distributed baselines (GRD,
LGS).  The centralized SMT baseline is deliberately excluded — its global
``networkx`` Steiner approximation is super-linear in the node count and
would dominate the wall clock without exercising any distributed hot path.

The sweep is sharded one unit per (node count, group size, network,
protocol) and executed through :func:`repro.experiments.sweep.run_cells`, so
``--workers N`` output is bit-identical to the serial run; the contract is
enforced by comparing :meth:`ScaleSweep.digest` values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineConfig, TaskResult
from repro.engine.digest import task_digest
from repro.experiments.config import PaperConfig
from repro.experiments.sweep import (
    ProtocolSpec,
    build_protocol,
    cached_network,
    counted_unit,
    run_cells,
    run_tasks,
)
from repro.perf.parallel import ProgressFn, uses_pool
from repro.perf.shm import SharedNetworkPlane, shared_plane_enabled
from repro.sessions.workload import MulticastTask, generate_tasks
from repro.simkit.rng import RandomStreams

#: TTL generous enough for the 10k-node field diagonal (~4.5 km at 150 m
#: per hop); the Table-1 value of 100 is tuned to the 1 km field.  Fields
#: whose diagonal needs more than this (the 100k preset's 14.1 km) scale it
#: up further — see :func:`scaled_config`.
_SCALE_MAX_PATH_LENGTH = 250


@dataclass(frozen=True)
class ScaleSweepScale:
    """Statistical size of the large-scale sweep (mirrors ExperimentScale)."""

    name: str
    node_counts: Tuple[int, ...]
    group_sizes: Tuple[int, ...]
    tasks_per_cell: int
    network_count: int


#: CI preset: one network, two tasks per cell, but the full 10k-node /
#: k=100 corner is exercised — the whole point of the smoke gate.
SCALE_SMOKE = ScaleSweepScale(
    name="smoke",
    node_counts=(2_000, 10_000),
    group_sizes=(20, 100),
    tasks_per_cell=2,
    network_count=1,
)

#: Minutes-scale pass with the intermediate density point.
SCALE_QUICK = ScaleSweepScale(
    name="quick",
    node_counts=(2_000, 5_000, 10_000),
    group_sizes=(20, 50, 100),
    tasks_per_cell=5,
    network_count=1,
)

#: Full statistics over several seeded deployments.
SCALE_PAPER = ScaleSweepScale(
    name="paper",
    node_counts=(2_000, 5_000, 10_000),
    group_sizes=(10, 25, 50, 100),
    tasks_per_cell=25,
    network_count=3,
)

#: Perf-smoke CI preset for the struct-of-arrays core: one 50k-node
#: deployment (a ~7.1 km field at Table-1 density, ~67 average degree),
#: run serial and with ``--workers`` and diffed byte-for-byte.
SCALE_SMOKE50K = ScaleSweepScale(
    name="smoke50k",
    node_counts=(50_000,),
    group_sizes=(20, 100),
    tasks_per_cell=2,
    network_count=1,
)

#: The headline scaling run: 50k and 100k nodes at constant density —
#: 50x-100x the paper's deployments on one machine.
SCALE_DEEP = ScaleSweepScale(
    name="deep",
    node_counts=(50_000, 100_000),
    group_sizes=(20, 100),
    tasks_per_cell=2,
    network_count=1,
)

#: Scale-sweep presets by name (see :func:`repro.experiments.config.preset`).
SCALE_PRESETS: Dict[str, ScaleSweepScale] = {
    s.name: s
    for s in (SCALE_SMOKE, SCALE_QUICK, SCALE_PAPER, SCALE_SMOKE50K, SCALE_DEEP)
}


def scaled_config(base: PaperConfig, node_count: int) -> PaperConfig:
    """Table-1 config resized to ``node_count`` at constant node density.

    The hop TTL grows with the field: three radio ranges per diagonal
    kilometre leaves the same relative headroom for perimeter detours at
    100k nodes as the fixed 250 does at 10k.  Node counts at or below 10k
    keep the historical 250 (the diagonal bound is smaller there), so
    existing preset digests are unchanged.
    """
    side = 1000.0 * math.sqrt(node_count / 1000.0)
    diagonal_hops = math.ceil(
        3.0 * side * math.sqrt(2.0) / base.radio.radio_range_m
    )
    return dataclasses.replace(
        base,
        node_count=node_count,
        field_width_m=side,
        field_height_m=side,
        max_path_length=max(
            base.max_path_length, _SCALE_MAX_PATH_LENGTH, diagonal_hops
        ),
    )


def _scale_tasks(
    config: PaperConfig,
    scale: ScaleSweepScale,
    node_count: int,
    net_index: int,
    group_size: int,
) -> List[MulticastTask]:
    """The (n, network, k) cell's task batch, derived from the master seed."""
    network = cached_network(config, net_index)
    streams = RandomStreams(config.master_seed)
    return generate_tasks(
        network,
        scale.tasks_per_cell,
        group_size,
        streams.stream("scale-workload", node_count, net_index, group_size),
        first_task_id=(node_count // 100) * 1_000_000
        + net_index * 100_000
        + group_size * 100,
    )


@counted_unit
def run_scale_unit(
    config: PaperConfig,
    scale: ScaleSweepScale,
    engine: EngineConfig,
    node_count: int,
    net_index: int,
    group_size: int,
    spec: ProtocolSpec,
) -> List[TaskResult]:
    """One (node count, network, k, protocol) unit; pure in its arguments."""
    network = cached_network(config, net_index)
    tasks = _scale_tasks(config, scale, node_count, net_index, group_size)
    return run_tasks(network, build_protocol(spec), tasks, engine)


@dataclass
class ScaleSweep:
    """Results of one large-scale sweep, keyed ``label -> (n, k) -> batch``."""

    config: PaperConfig
    scale: ScaleSweepScale
    results: Dict[str, Dict[Tuple[int, int], List[TaskResult]]] = field(
        default_factory=dict
    )

    def add(
        self, label: str, node_count: int, group_size: int, batch: Sequence[TaskResult]
    ) -> None:
        self.results.setdefault(label, {}).setdefault(
            (node_count, group_size), []
        ).extend(batch)

    def labels(self) -> List[str]:
        return sorted(self.results)

    def cells(self) -> List[Tuple[int, int]]:
        return [
            (n, k)
            for n in self.scale.node_counts
            for k in self.scale.group_sizes
        ]

    def batch(self, label: str, node_count: int, group_size: int) -> List[TaskResult]:
        return self.results[label][(node_count, group_size)]

    def mean_transmissions(self, label: str, node_count: int, group_size: int) -> float:
        batch = self.batch(label, node_count, group_size)
        return sum(r.transmissions for r in batch) / len(batch)

    def delivery_ratio(self, label: str, node_count: int, group_size: int) -> float:
        batch = self.batch(label, node_count, group_size)
        delivered = sum(len(r.delivered_hops) for r in batch)
        requested = sum(len(r.destination_ids) for r in batch)
        return delivered / requested if requested else 0.0

    def digest(self) -> str:
        """SHA-256 over every task digest in canonical (label, cell) order.

        Serial and ``--workers N`` runs of the same sweep must produce the
        same value — the parallel engine's bit-identity contract at scale.
        """
        h = hashlib.sha256()
        for label in self.labels():
            for cell in sorted(self.results[label]):
                h.update(f"{label}@{cell}".encode("utf-8"))
                for result in self.results[label][cell]:
                    h.update(task_digest(result).encode("utf-8"))
        return h.hexdigest()

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale.name,
            "node_counts": list(self.scale.node_counts),
            "group_sizes": list(self.scale.group_sizes),
            "digest": self.digest(),
            "cells": [
                {
                    "label": label,
                    "node_count": n,
                    "group_size": k,
                    "mean_transmissions": self.mean_transmissions(label, n, k),
                    "delivery_ratio": self.delivery_ratio(label, n, k),
                }
                for label in self.labels()
                for n, k in self.cells()
            ],
        }


def _scale_specs(include_grd: bool) -> List[ProtocolSpec]:
    specs: List[ProtocolSpec] = [("GMP",), ("LGS",)]
    if include_grd:
        specs.append(("GRD",))
    return specs


def run_scale_sweep(
    config: PaperConfig | None = None,
    scale: ScaleSweepScale | None = None,
    workers: int = 1,
    include_grd: bool = True,
    progress: Optional[ProgressFn] = None,
) -> ScaleSweep:
    """Run the large-scale sweep; bit-identical for any ``workers`` value."""
    base = config or PaperConfig()
    scl = scale or SCALE_SMOKE
    sweep = ScaleSweep(config=base, scale=scl)
    specs = _scale_specs(include_grd)
    cells = [
        (node_count, net_index, k)
        for node_count in scl.node_counts
        for net_index in range(scl.network_count)
        for k in scl.group_sizes
    ]
    # One engine per node count: the TTL follows the scaled field diagonal
    # (identical to the old fixed 250 for every count at or below 10k).
    engines = {
        node_count: EngineConfig(
            max_path_length=scaled_config(base, node_count).max_path_length
        )
        for node_count in scl.node_counts
    }

    # Publish each deployment to the shared-memory plane once, before the
    # fan-out, so pool workers attach zero-copy views instead of each
    # rebuilding every network (the plane is a no-op when disabled, and
    # serial runs skip it — cached_network already shares in-process).
    plane = SharedNetworkPlane(seed=base.master_seed)
    try:
        if uses_pool(workers, len(cells) * len(specs)) and shared_plane_enabled():
            for node_count in scl.node_counts:
                cfg_n = scaled_config(base, node_count)
                for net_index in range(scl.network_count):
                    plane.publish(
                        (cfg_n, net_index, None), cached_network(cfg_n, net_index)
                    )
            if progress is not None and plane.active:
                progress(
                    f"published {len(plane.manifests())} deployment(s) "
                    f"({plane.published_bytes() / 1048576.0:.1f} MiB) to the "
                    f"shared-memory plane"
                )
        per_cell = run_cells(
            run_scale_unit,
            cells,
            specs,
            lambda cell, spec: (
                scaled_config(base, cell[0]),
                scl,
                engines[cell[0]],
                *cell,
                spec,
            ),
            workers=workers,
            progress=progress,
            describe=lambda cell: f"n={cell[0]} net={cell[1]} k={cell[2]}",
            plane=plane,
        )
    finally:
        plane.close()

    for (node_count, _net_index, k), batches in zip(cells, per_cell):
        for spec, batch in zip(specs, batches):
            sweep.add(str(spec[0]), node_count, k, batch)
    return sweep


def render_scale_table(sweep: ScaleSweep) -> str:
    """Operator-facing per-cell summary table."""
    labels = sweep.labels()
    header = ["nodes", "k"] + [
        f"{label} tx" for label in labels
    ] + [f"{label} dlv" for label in labels]
    rows = [header]
    for n, k in sweep.cells():
        row = [str(n), str(k)]
        row += [f"{sweep.mean_transmissions(label, n, k):.1f}" for label in labels]
        row += [f"{sweep.delivery_ratio(label, n, k):.3f}" for label in labels]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    title = (
        f"Large-scale sweep ({sweep.scale.name}): GMP vs baselines at "
        f"constant density"
    )
    return "\n".join([title] + lines)
