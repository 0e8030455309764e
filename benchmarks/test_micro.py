"""Microbenchmarks: per-operation costs of the core building blocks.

These complement the paper's Section-4.2 complexity analysis — rrSTR is
O(n^2 log n + n*m) per forwarding step, which is what makes it deployable on
sensor nodes where PBM's exponential subset enumeration is not.
"""

import pathlib
from typing import Any

import numpy as np
import pytest

from repro.adversary import JAMMER, AdversarySchedule, AdversarySpec
from repro.engine import EngineConfig, run_task
from repro.experiments.config import PaperConfig
from repro.experiments.scale import SCALE_QUICK, _scale_tasks, scaled_config
from repro.experiments.sweep import cached_network
from repro.geometry import Point
from repro.geometry.fermat import fermat_point
from repro.linklayer import LinkLayer, LinkLayerConfig
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.perf.cache import caches_disabled, clear_caches
from repro.routing import GMPProtocol, LGSProtocol, PBMProtocol, SMTProtocol
from repro.simkit.rng import RandomStreams
from repro.simkit.simulator import Simulator
from repro.steiner.kmb import kmb_steiner_tree
from repro.steiner.mst import euclidean_mst
from repro.steiner.rrstr import RRStrConfig, rrstr


@pytest.fixture(scope="module")
def micro_network():
    rng = np.random.default_rng(31)
    points = uniform_random_topology(400, 1000.0, 1000.0, rng)
    return build_network(points, RadioConfig())


def _random_instance(k, seed=5):
    rng = np.random.default_rng(seed)
    source = Point(*rng.uniform(0, 1000, 2))
    dests = [(i, Point(*rng.uniform(0, 1000, 2))) for i in range(k)]
    return source, dests


def _publish_throughput(benchmark: Any, work_per_round: float) -> None:
    """Declare a throughput-direction bench: ``work_per_round`` per median s.

    ``scripts/bench_compare.py`` gates such benches on downward drift of
    ``extra_info["value"]``.  Under ``--benchmark-disable`` nothing is timed
    (``benchmark.stats`` is None), so there is no value to publish.
    """
    benchmark.extra_info["direction"] = "maximize"
    if benchmark.stats is not None:
        benchmark.extra_info["value"] = work_per_round / benchmark.stats.stats.median


def test_bench_fermat_point(benchmark):
    a, b, c = Point(0, 0), Point(923, 114), Point(411, 780)
    benchmark(fermat_point, a, b, c)


@pytest.mark.parametrize("k", [5, 12, 25])
def test_bench_rrstr(benchmark, k):
    source, dests = _random_instance(k)
    benchmark(rrstr, source, dests, 150.0, RRStrConfig())


def test_bench_rrstr_unrefined(benchmark):
    source, dests = _random_instance(25)
    benchmark(rrstr, source, dests, 150.0, RRStrConfig(refine=False))


def test_bench_euclidean_mst(benchmark):
    source, dests = _random_instance(25)
    benchmark(euclidean_mst, source, dests)


@pytest.fixture(scope="module")
def table1_network():
    """A 1,000-node deployment at the paper's Table 1 density."""
    rng = np.random.default_rng(31)
    points = uniform_random_topology(1000, 1000.0, 1000.0, rng)
    return build_network(points, RadioConfig())


@pytest.mark.parametrize("network, k", [("micro_network", 12), ("table1_network", 25)])
def test_bench_kmb(benchmark, request, network, k):
    # The adjacency SMT's prepare_task hands to KMB.
    adjacency = request.getfixturevalue(network).weighted_adjacency()
    terminals = list(range(0, 10 * k, 10))
    benchmark(kmb_steiner_tree, adjacency, terminals)


def test_bench_network_build(benchmark):
    rng = np.random.default_rng(41)
    points = uniform_random_topology(400, 1000.0, 1000.0, rng)
    benchmark(lambda: build_network(points, RadioConfig()))


def test_bench_planarization(benchmark, micro_network):
    def planarize_sample():
        # Fresh computation each round: bypass the cache.
        from repro.network.planar import gabriel_neighbors

        for node in range(0, 100, 5):
            gabriel_neighbors(
                node,
                micro_network.neighbors_of(node),
                micro_network.location_of,
            )

    benchmark(planarize_sample)


def test_bench_spatial_queries(benchmark, micro_network):
    """Radius queries against the per-cell-bounds pruned SpatialGrid."""
    rng = np.random.default_rng(77)
    centers = [Point(*rng.uniform(0, 1000, 2)) for _ in range(100)]

    def query_sample():
        total = 0
        for center in centers:
            for radius in (80.0, 150.0, 300.0):
                total += len(micro_network.nodes_within(center, radius))
        return total

    benchmark(query_sample)


@pytest.mark.parametrize(
    "factory",
    [GMPProtocol, LGSProtocol, PBMProtocol, SMTProtocol],
    ids=["GMP", "LGS", "PBM", "SMT"],
)
def test_bench_task_execution(benchmark, micro_network, factory):
    dests = [30, 90, 150, 210, 270, 330, 370, 399]
    benchmark.pedantic(
        run_task,
        args=(micro_network, factory(), 0, dests),
        rounds=3,
        iterations=1,
    )


def test_bench_pbm_select_subset(benchmark):
    """PBM's per-hop subset search on a 2-member and a 10-member pool.

    The exact search scores all ``2^p - 1`` subsets of the pool; pools of 2
    are the common hop of the paper's sweeps, 10 is the default exact limit.
    """
    rng = np.random.default_rng(19)
    protocol = PBMProtocol(lam=0.3)
    instances = []
    for size in (2, 10):
        dist = rng.uniform(50.0, 300.0, size=(30, 8))
        own = np.full(8, 320.0)
        instances.append((dist, own, list(range(size))))

    def select_both():
        return [
            protocol._select_subset(dist, own, pool, neighbor_count=30)
            for dist, own, pool in instances
        ]

    benchmark(select_both)


def test_bench_task_execution_gmp_cold(benchmark, micro_network):
    """GMP with all perf caches disabled: the uncached reference path."""
    dests = [30, 90, 150, 210, 270, 330, 370, 399]

    def cold_task():
        clear_caches()
        with caches_disabled():
            return run_task(micro_network, GMPProtocol(), 0, dests)

    benchmark.pedantic(cold_task, rounds=3, iterations=1)


def test_bench_task_execution_gmp_contended(benchmark, micro_network):
    """The same GMP task through the CSMA/ARQ link layer (beacons off).

    The gap to ``test_bench_task_execution[GMP]`` is the price of the
    discrete-event MAC: carrier sense, backoff draws, and the ACK trains.
    """
    dests = [30, 90, 150, 210, 270, 330, 370, 399]
    config = EngineConfig(
        transmission_model="contended", link=LinkLayerConfig(beacons=False)
    )
    benchmark.pedantic(
        run_task,
        args=(micro_network, GMPProtocol(), 0, dests),
        kwargs={"config": config},
        rounds=3,
        iterations=1,
    )


def test_bench_task_execution_gmp_jammed(benchmark, micro_network):
    """Stepping a jammer-saturated contended channel, in jam frames/sec.

    Pairs with ``test_bench_task_execution_gmp_contended``: two duty-0.9
    jammers keep the CSMA medium busy while the same GMP task fights
    through, so the run is dominated by junk-frame channel stepping
    (begin/finish, collision marking, backoff retries).  Throughput
    direction: the compared figure is jam frames stepped per second.
    """
    dests = [30, 90, 150, 210, 270, 330, 370, 399]
    config = EngineConfig(
        transmission_model="contended",
        link=LinkLayerConfig(beacons=False),
        adversary=AdversarySchedule(
            specs=(
                AdversarySpec(60, JAMMER, jam_duty=0.9),
                AdversarySpec(200, JAMMER, jam_duty=0.9),
            ),
            seed=23,
        ),
    )
    frames = {}

    def jammed_task():
        result = run_task(
            micro_network, GMPProtocol(), 0, dests, config=config
        )
        frames["stepped"] = result.perf["adv.jam_frames"]
        return frames["stepped"]

    benchmark.pedantic(jammed_task, rounds=3, iterations=1)
    _publish_throughput(benchmark, frames["stepped"])


def test_bench_fuzz_executor_throughput(benchmark):
    """Fuzz scenarios judged per second (generator -> executor -> oracles).

    The campaign's wall-clock budget is executor-bound: each scenario runs
    its full workload with traces on, runs the benign twin, and evaluates
    four oracles.  Throughput direction: scenarios/sec, higher is better.
    """
    from repro.fuzz.executor import build_scenario_network, run_scenario
    from repro.fuzz.generator import ScenarioSpec

    specs = [
        ScenarioSpec(
            seed=900 + i,
            node_count=80,
            field_size_m=600.0,
            protocol="GMP",
            transmission_model="protocol",
            task_count=2,
            group_size=4,
            link_loss_rate=0.1,
        )
        for i in range(6)
    ]
    for spec in specs:
        build_scenario_network(spec)  # warm the deployment memo

    def sweep():
        digests = {run_scenario(spec).results_digest for spec in specs}
        assert len(digests) == len(specs)
        return digests

    benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=1)
    _publish_throughput(benchmark, len(specs))


# ----------------------------------------------------------------------
# Large-scale (5k / 10k node) benches
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_network_5k():
    """The first seeded deployment of the 5000-node constant-density sweep."""
    return cached_network(scaled_config(PaperConfig(), 5000), 0)


@pytest.fixture(scope="module")
def scale_network_10k():
    return cached_network(scaled_config(PaperConfig(), 10000), 0)


def _scale_task_instance(network, node_count, group_size=100):
    config = scaled_config(PaperConfig(), node_count)
    task = _scale_tasks(config, SCALE_QUICK, node_count, 0, group_size)[0]
    source = network.location_of(task.source_id)
    dests = [(d, network.location_of(d)) for d in task.destination_ids]
    return source, dests


def test_bench_rrstr_5k_gmp(benchmark, scale_network_5k):
    """rrSTR tree for a 5k-node, k=100 GMP task, Fermat memo cold."""
    source, dests = _scale_task_instance(scale_network_5k, 5000)

    def build():
        clear_caches()
        with caches_disabled():
            return rrstr(source, dests, 150.0)

    benchmark.pedantic(build, rounds=7, iterations=1, warmup_rounds=1)


def test_bench_spatial_queries_10k(benchmark, scale_network_10k):
    """Radius queries over the 10k-node grid (per-cell bounds pruning)."""
    side = scaled_config(PaperConfig(), 10000).field_width_m
    rng = np.random.default_rng(93)
    centers = [Point(*rng.uniform(0, side, 2)) for _ in range(200)]

    def query_sample():
        total = 0
        for center in centers:
            for radius in (150.0, 450.0):
                total += len(scale_network_10k.nodes_within(center, radius))
        return total

    benchmark(query_sample)


def test_bench_planarization_10k(benchmark, scale_network_10k):
    """Gabriel witness tests over 10k-node neighbor tables."""
    from repro.network.planar import gabriel_neighbors

    def planarize_sample():
        # Fresh computation each round: bypass the per-node cache.
        for node in range(0, 2000, 20):
            gabriel_neighbors(
                node,
                scale_network_10k.neighbors_of(node),
                scale_network_10k.location_of,
            )

    benchmark(planarize_sample)


def test_bench_reprolint_whole_repo(benchmark):
    """The full static-analysis pass: parse, import/call graphs, 16 rules.

    This is what the CI ratchet gate pays on every run; the repo contract
    (asserted in ``tests/analysis/test_project.py``) is that it stays under
    a few seconds for the whole tree.
    """
    from repro.analysis import analyze_paths, default_registry

    repo_root = pathlib.Path(__file__).resolve().parents[1]
    paths = [
        str(repo_root / tree)
        for tree in ("src", "tests", "scripts", "benchmarks")
    ]

    def lint_everything():
        report = analyze_paths(paths, registry=default_registry())
        assert report.files_checked > 100
        return report.files_checked

    benchmark.pedantic(lint_everything, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# Struct-of-arrays core: network build, worker attach, event scheduler
# ----------------------------------------------------------------------


def test_bench_network_build_5k_soa(benchmark):
    """50k-regime adjacency construction: the ``unit_disk_rows`` CSR path."""
    config = scaled_config(PaperConfig(), 5000)
    rng = np.random.default_rng(41)
    points = uniform_random_topology(
        config.node_count, config.field_width_m, config.field_height_m, rng
    )
    benchmark.pedantic(
        lambda: build_network(points, RadioConfig()),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


@pytest.fixture(scope="module")
def shared_plane_manifest_5k():
    """A 5k-node deployment published once to the shared-memory plane."""
    from repro.perf.shm import SharedNetworkPlane

    config = scaled_config(PaperConfig(), 5000)
    rng = np.random.default_rng(41)
    points = uniform_random_topology(
        config.node_count, config.field_width_m, config.field_height_m, rng
    )
    network = build_network(points, RadioConfig())
    with SharedNetworkPlane(seed=config.master_seed) as plane:
        assert plane.publish(("bench", 5000), network)
        yield plane.manifests()[("bench", 5000)]


def test_bench_network_attach_5k(benchmark, shared_plane_manifest_5k):
    """Zero-copy worker attach to the published 5k deployment.

    Paired with ``test_bench_network_build_5k_soa`` above: the median
    ratio between the two is what each pool worker saves by mapping the
    parent's segment instead of rebuilding the deployment (>= 10x on the
    reference machine; see docs/PERFORMANCE.md).
    """
    from repro.perf.shm import attach_manifest

    def attach():
        network = attach_manifest(shared_plane_manifest_5k)
        assert network is not None and network.node_count == 5000
        return network

    benchmark.pedantic(attach, rounds=5, iterations=1, warmup_rounds=1)


def _mac_like_schedule(churn=60_000, live=30_000, seed=211):
    """Drive a simulator through a contended-MAC-shaped event stream.

    Mimics what the CSMA link layer generates at the 50k-node scale: tens
    of thousands of concurrently pending backoff/ACK/beacon timers with a
    dense sub-millisecond near-future band, churned hold-one-pop-one in
    steady state: every firing timer reschedules itself, as a deferring
    MAC does, until the churn budget is spent and the queue drains.
    """
    rng = np.random.default_rng(seed)
    delays = rng.uniform(1e-4, 5e-3, live + churn).tolist()
    simulator = Simulator()
    churn_delays = iter(delays[live:])

    def timer():
        delay = next(churn_delays, None)
        if delay is not None:
            simulator.schedule_after(delay, timer)

    for delay in delays[:live]:
        simulator.schedule_at(delay, timer)
    simulator.run()
    assert simulator.events_processed == live + churn
    return live + churn


def test_bench_scheduler_heap(benchmark):
    """The simulator's event heap under the contended-MAC event stream."""
    benchmark.pedantic(
        _mac_like_schedule,
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )


# ----------------------------------------------------------------------
# Streaming session engine: throughput-direction bench + sketch overhead
# ----------------------------------------------------------------------


def test_bench_session_stream_throughput(benchmark):
    """Steady-state sessions/sec of the streaming runner at 2k nodes.

    The repo's first *throughput-direction* benchmark: the compared figure
    is ``extra_info["value"]`` (sessions/sec, higher is better), declared
    via ``extra_info["direction"] = "maximize"`` so
    ``scripts/bench_compare.py`` gates on *downward* drift.
    """
    from repro.experiments.sessions import cell_workload
    from repro.sessions import run_session_stream

    total = 16
    base = PaperConfig()
    config = scaled_config(base, 2000)
    workload = cell_workload(base, 2000, "poisson")
    engine = EngineConfig(max_path_length=config.max_path_length)
    cached_network(config, 0)  # warm the deployment memo outside the timer

    def stream():
        report = run_session_stream(
            workload, ("GMP",), config, total_sessions=total, engine=engine
        )
        assert report.completed == total
        return report.chain_digest

    benchmark.pedantic(stream, rounds=3, iterations=1, warmup_rounds=1)
    _publish_throughput(benchmark, total)


def test_bench_session_sketch_fold(benchmark):
    """Folding 10k observations into the bounded-memory stream sketches.

    The per-session aggregation overhead the streaming runner pays instead
    of accumulating TaskResults — must stay far below the cost of running
    a session.
    """
    from repro.sessions import StreamStats

    rng = np.random.default_rng(59)
    latencies = rng.exponential(0.01, 10_000)
    energies = rng.exponential(0.2, 10_000)
    costs = rng.integers(5, 200, 10_000)

    def fold():
        stats = StreamStats(epsilon=0.01)
        for latency, energy, cost in zip(latencies, energies, costs):
            stats.observe(
                latency_s=float(latency),
                delivery_ratio=1.0,
                energy_joules=float(energy),
                tree_cost=float(cost),
                delivered=5,
                requested=5,
            )
        return stats.sessions

    benchmark.pedantic(fold, rounds=3, iterations=1, warmup_rounds=1)


def test_bench_beacon_round(benchmark, micro_network):
    """One full HELLO period over 400 contending nodes."""
    link_config = LinkLayerConfig(warm_start=False)

    def beacon_round():
        simulator = Simulator()
        link = LinkLayer(
            network=micro_network,
            simulator=simulator,
            config=link_config,
            streams=RandomStreams(17),
            failed_node_ids=frozenset(),
            deliver=lambda session, receiver, packet: None,
            charge=lambda session, sender, size, counted: None,
            copy_loss=lambda session, receiver: False,
        )
        link.start_beacons(link_config.beacon_period_s)
        simulator.run(
            until=2.0 * link_config.beacon_period_s, max_events=2_000_000
        )
        return link.stats.global_count("beacons_sent")

    benchmark.pedantic(beacon_round, rounds=3, iterations=1)
