"""The benchmark's three workloads, each a fixed batch sized for this harness.

A workload builds its deployments in set-up (one set-up unit per
deployment) and splits one pass over its batch into units, each a call
into a public entry point.  Units run closed-loop: each starts when the
previous one ends (on ``sessions-pooled``, inside a unit, a chunk starts
when a slot frees in the bounded stream window).  Splitting a pass lets the
harness take a median per unit across repeated passes, which filters host
noise without shrinking the batch.  Every input derives from the seed,
through ``PaperConfig.master_seed``.

The CLI presets were unusable for timing (smoke runs spread 10-28%,
``figure11 --scale quick`` takes 94 s), so the batches here are sized for a
pass of 2-6 s on a 2-core host.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import EngineConfig, TaskResult
from repro.engine.digest import task_digest
from repro.experiments import sweep as sweep_module
from repro.experiments.config import ExperimentScale, PaperConfig
from repro.experiments.contention import (
    CONTENTION_SPECS,
    ContentionScale,
    run_contention_unit,
)
from repro.experiments.figures import run_density_unit, run_group_size_sweep
from repro.experiments.scale import scaled_config
from repro.experiments.sessions import SessionScale, cell_workload, session_cells
from repro.perf.shm import SharedNetworkPlane
from repro.sessions.runner import run_session_stream

#: A ``cached_network`` key: ``(config, net_index, node_count)``.
DeploymentKey = Tuple[PaperConfig, int, Optional[int]]

#: Pool size of the pooled workload (the reference host has two cores).
POOL_WORKERS = 2

#: Protocols of the Figure 15 density sweep, as ``figure15`` runs them.
FIGURE15_SPECS = (("PBM", 0.3), ("LGS",), ("GMP",))

#: Link-layer tallies, reported per session (``mac.*``) or per run (``link.*``).
LINK_COUNTERS = ("data_frames", "retransmissions", "collisions", "arq_drops", "beacons_sent")


@dataclass
class UnitResult:
    """What one unit computed, reduced to the numbers the metrics need."""

    digest: str
    tasks: int = 0
    completed: int = 0
    delivered: int = 0
    requested: int = 0
    transmissions: float = 0.0
    #: Link-layer tallies of the contended medium (empty elsewhere).
    link: Dict[str, float] = field(default_factory=dict)


def combine(results: Sequence[UnitResult]) -> UnitResult:
    """One pass's totals; the digest chains the unit digests in order."""
    h = hashlib.sha256()
    total = UnitResult(digest="")
    for r in results:
        h.update(r.digest.encode("ascii"))
        total.tasks += r.tasks
        total.completed += r.completed
        total.delivered += r.delivered
        total.requested += r.requested
        total.transmissions += r.transmissions
        for name, value in r.link.items():
            total.link[name] = total.link.get(name, 0.0) + value
    total.digest = h.hexdigest()
    return total


def _from_results(labelled: Sequence[Tuple[str, Sequence[TaskResult]]]) -> UnitResult:
    """Digest (over ``task_digest`` values) and tallies of task results."""
    h = hashlib.sha256()
    out = UnitResult(digest="")
    for label, batch in labelled:
        h.update(label.encode("utf-8"))
        for result in batch:
            h.update(task_digest(result).encode("ascii"))
            out.tasks += 1
            out.completed += int(result.success)
            out.delivered += len(result.delivered_hops)
            out.requested += len(result.destination_ids)
            out.transmissions += result.transmissions
    out.digest = h.hexdigest()
    return out


Unit = Tuple[str, Callable[[], UnitResult]]


class Workload:
    """One named workload: its deployments and the units of one pass."""

    name = ""
    why = ""

    def __init__(self, seed: int) -> None:
        self.config = PaperConfig(master_seed=seed)

    def deployment_keys(self) -> List[DeploymentKey]:
        raise NotImplementedError

    def build(self, key: DeploymentKey, final: bool) -> Callable[[], None]:
        """Build one deployment; returns a release hook to call untimed.

        ``final`` builds through ``cached_network`` so the passes reuse the
        deployment; other samples build a fresh one with ``make_network``.
        """
        if final:
            sweep_module.cached_network(*key)
        else:
            sweep_module.make_network(*key)
        return lambda: None

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up kept for the passes."""


class PaperFigures(Workload):
    name = "paper-figures"
    why = (
        "the paper's Figure 11/12/14 group-size sweep and Figure 15 density sweep at "
        "Table 1; SMT's KMB tree dominates, memos hit, perimeter mode fires"
    )

    SCALE = ExperimentScale(
        name="bench",
        network_count=2,
        tasks_per_network=1,
        group_sizes=(3, 12, 25),
        lambdas=(0.0, 0.3, 0.6),
        density_node_counts=(150, 200, 300, 400, 1000),
    )
    #: Tasks per deployment of the density sweep: its tasks are cheap, and
    #: only the sparse deployments enter perimeter mode, so it gets more.
    DENSITY_TASKS = 8

    def deployment_keys(self) -> List[DeploymentKey]:
        scl = self.SCALE
        keys: List[DeploymentKey] = [(self.config, i, None) for i in range(scl.network_count)]
        keys += [
            (self.config, i, n)
            for n in scl.density_node_counts
            for i in range(scl.network_count)
        ]
        return keys

    def _group_size_unit(self, k: int) -> UnitResult:
        scl = dataclasses.replace(self.SCALE, group_sizes=(k,))
        sweep = run_group_size_sweep(self.config, scl)
        return _from_results(
            [(f"{label}@k={k}", sweep.results[label][k]) for label in sorted(sweep.results)]
        )

    def _density_unit(self, node_count: int) -> UnitResult:
        # figure15's own units, so per-task results (transmissions,
        # deliveries) are not reduced away to failure counts.
        scl = dataclasses.replace(
            self.SCALE, tasks_per_network=self.DENSITY_TASKS, density_node_counts=(node_count,)
        )
        engine = EngineConfig(max_path_length=self.config.max_path_length)
        labelled = []
        for i in range(scl.network_count):
            for spec in FIGURE15_SPECS:
                batch, _ = run_density_unit(self.config, scl, engine, i, node_count, spec)
                labelled.append((f"{spec[0]}@n={node_count} net={i}", batch))
        return _from_results(labelled)

    def units(self) -> List[Unit]:
        out: List[Unit] = [
            (f"k={k}", lambda k=k: self._group_size_unit(k)) for k in self.SCALE.group_sizes
        ]
        out += [
            (f"n={n}", lambda n=n: self._density_unit(n))
            for n in self.SCALE.density_node_counts
        ]
        return out


#: Seeds the session streams of ``sessions-pooled`` whatever the workload
#: seed.  The Zipf 2-40 group sizes are heavy-tailed: with streams drawn
#: from the workload seed, transmissions per task spread 27% over ten
#: seeds, so the mix is held fixed and the seed varies the deployments.
STREAM_CONFIG = PaperConfig()


class SessionsPooled(Workload):
    name = "sessions-pooled"
    why = (
        "Poisson and MMPP streams of Zipf 2-40 groups at 2k and 10k nodes, 2 pool workers, "
        "shared plane on; the only workload where the pool, plane and sketches work"
    )

    SCALE = SessionScale(
        name="bench",
        node_counts=(2_000, 10_000),
        arrivals=("poisson", "mmpp"),
        protocols=(("GMP",), ("LGS",), ("GRD",)),
        sessions_per_cell=24,
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: The final set-up sample's planes, one per deployment.
        self._planes: Dict[DeploymentKey, SharedNetworkPlane] = {}
        #: Every plane set-up created; closing one twice is a no-op.
        self._samples: List[SharedNetworkPlane] = []

    def deployment_keys(self) -> List[DeploymentKey]:
        return [(scaled_config(self.config, n), 0, None) for n in self.SCALE.node_counts]

    def build(self, key: DeploymentKey, final: bool) -> Callable[[], None]:
        """Build one deployment and publish it to the shared plane.

        Each deployment gets its own plane per sample; the final sample's
        planes stay open for the passes (a stream publishes its one
        deployment, so one plane per node count is what the passes use).
        """
        plane = SharedNetworkPlane(seed=self.config.master_seed)
        # Kept before publishing, so close() releases it even if a build fails.
        self._samples.append(plane)
        builder = sweep_module.cached_network if final else sweep_module.make_network
        plane.publish(key, builder(*key))
        if final:
            self._planes[key] = plane
            return lambda: None
        return plane.close

    def _cell_unit(self, node_count: int, arrival: str, spec: Tuple[object, ...]) -> UnitResult:
        scl = self.SCALE
        cell_config = scaled_config(self.config, node_count)
        report = run_session_stream(
            cell_workload(STREAM_CONFIG, node_count, arrival),
            spec,
            cell_config,
            total_sessions=scl.sessions_per_cell,
            engine=EngineConfig(max_path_length=cell_config.max_path_length),
            workers=POOL_WORKERS,
            epsilon=scl.epsilon,
            plane=self._planes.get((cell_config, 0, None)),
        )
        stats = report.stats
        return UnitResult(
            # The line SessionsSweep.digest chains for this cell.
            digest=f"n={node_count} {arrival} {spec[0]} {report.chain_digest}",
            tasks=report.completed,
            completed=stats.sessions - stats.failures,
            delivered=stats.delivered,
            requested=stats.requested,
            transmissions=stats.metrics["tree_cost"].moments.mean * stats.sessions,
        )

    def units(self) -> List[Unit]:
        return [
            (
                f"n={n} {arrival} {spec[0]}",
                lambda n=n, arrival=arrival, spec=spec: self._cell_unit(n, arrival, spec),
            )
            for n, arrival, spec in session_cells(self.SCALE)
        ]

    def close(self) -> None:
        for plane in self._samples:
            plane.close()
        self._samples.clear()
        self._planes.clear()


class Contention(Workload):
    name = "contention"
    why = (
        "concurrent sessions on the CSMA/ARQ medium at two offered loads, "
        "GMP/LGS/GRD/FLOOD, serial; the event loop and MAC take almost all the time"
    )

    #: Three deployments: with one, 24 tasks a pass, the share of tasks
    #: that reach every destination moves in steps of 1/24 and spread 21%
    #: over ten seeds; with three it spread 4%.
    SCALE = ContentionScale(
        name="bench",
        network_count=3,
        node_count=200,
        group_size=6,
        session_counts=(3,),
        interarrival_s=(0.05, 0.005),
    )

    def deployment_keys(self) -> List[DeploymentKey]:
        return [
            (self.config, i, self.SCALE.node_count) for i in range(self.SCALE.network_count)
        ]

    def _unit(self, interarrival: float, spec: Tuple[object, ...]) -> UnitResult:
        scl = self.SCALE
        engine = EngineConfig(
            max_path_length=self.config.max_path_length,
            transmission_model="contended",
            loss_seed=self.config.master_seed,
        )
        labelled = []
        link = {name: 0.0 for name in LINK_COUNTERS}
        for sessions in scl.session_counts:
            for net_index in range(scl.network_count):
                results, _ = run_contention_unit(
                    self.config, scl, engine, net_index, sessions, interarrival, spec
                )
                labelled.append((f"n={net_index} s={sessions}", results))
                for name in LINK_COUNTERS:
                    link[name] += sum((r.perf or {}).get(f"mac.{name}", 0.0) for r in results)
                    # Infrastructure tallies repeat in every session's view.
                    link[name] += (results[0].perf or {}).get(f"link.{name}", 0.0)
        return dataclasses.replace(_from_results(labelled), link=link)

    def units(self) -> List[Unit]:
        return [
            (f"ia={ia!r} {spec[0]}", lambda ia=ia, spec=spec: self._unit(ia, spec))
            for ia in self.SCALE.interarrival_s
            for spec in CONTENTION_SPECS
        ]


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (PaperFigures, SessionsPooled, Contention)
}
