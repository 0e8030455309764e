"""Tests for the experiment harness: config, workload, sweeps, figures."""

import json

import pytest

from repro.engine import EngineConfig
from repro.experiments import (
    PAPER_SCALE,
    QUICK_SCALE,
    SMOKE_SCALE,
    PaperConfig,
    best_lambda_results,
    generate_tasks,
    make_network,
    render_figure_table,
    render_ratio_summary,
    run_tasks,
)
from repro.experiments.figures import (
    delivery_summary,
    figure11,
    figure12,
    figure14,
    figure15,
    figure_latency,
    run_group_size_sweep,
)
from repro.experiments.config import FIGURE_PRESETS, preset
from repro.experiments.contention import (
    CONTENTION_PRESETS,
    PAPER_CONTENTION_SCALE,
    QUICK_CONTENTION_SCALE,
    SMOKE_CONTENTION_SCALE,
)
from repro.experiments.report import figure_as_dict_rows
from repro.experiments.robustness import (
    PAPER_ROBUSTNESS_SCALE,
    QUICK_ROBUSTNESS_SCALE,
    ROBUSTNESS_PRESETS,
    SMOKE_ROBUSTNESS_SCALE,
)
from repro.experiments.scale import (
    SCALE_DEEP,
    SCALE_PAPER,
    SCALE_PRESETS,
    SCALE_QUICK,
    SCALE_SMOKE,
    SCALE_SMOKE50K,
)
from repro.experiments.sessions import (
    SESSION_PRESETS,
    SESSIONS_PAPER,
    SESSIONS_QUICK,
    SESSIONS_SMOKE,
)
from repro.simkit.rng import RandomStreams


@pytest.fixture(scope="module")
def small_sweep():
    """A tiny but real sweep shared by the figure tests."""
    config = PaperConfig(node_count=350)
    scale = SMOKE_SCALE
    return run_group_size_sweep(config, scale)


#: Each family's preset table and the presets it must resolve to.
PRESET_TABLES = {
    "figures": (
        FIGURE_PRESETS,
        (PAPER_SCALE, QUICK_SCALE, SMOKE_SCALE),
    ),
    "contention": (
        CONTENTION_PRESETS,
        (SMOKE_CONTENTION_SCALE, QUICK_CONTENTION_SCALE, PAPER_CONTENTION_SCALE),
    ),
    "robustness": (
        ROBUSTNESS_PRESETS,
        (SMOKE_ROBUSTNESS_SCALE, QUICK_ROBUSTNESS_SCALE, PAPER_ROBUSTNESS_SCALE),
    ),
    "scale": (
        SCALE_PRESETS,
        (SCALE_SMOKE, SCALE_QUICK, SCALE_PAPER, SCALE_SMOKE50K, SCALE_DEEP),
    ),
    "sessions": (
        SESSION_PRESETS,
        (SESSIONS_SMOKE, SESSIONS_QUICK, SESSIONS_PAPER),
    ),
}


@pytest.mark.parametrize("family", sorted(PRESET_TABLES))
def test_preset_lookup(family):
    table, presets = PRESET_TABLES[family]
    assert sorted(table) == sorted(p.name for p in presets)
    for expected in presets:
        assert preset(table, expected.name) is expected
    with pytest.raises(ValueError, match="unknown preset 'galactic'"):
        preset(table, "galactic")


class TestConfig:
    def test_table1_description(self):
        text = PaperConfig().describe()
        assert "1000m X 1000m" in text
        assert "1Mbps" in text
        assert "150m" in text
        assert "128B" in text

    def test_paper_scale_matches_paper(self):
        assert PAPER_SCALE.network_count == 10
        assert PAPER_SCALE.tasks_per_network == 100
        assert PAPER_SCALE.lambdas == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert min(PAPER_SCALE.group_sizes) == 3
        assert max(PAPER_SCALE.group_sizes) == 25
        assert {400, 600, 800, 1000} <= set(PAPER_SCALE.density_node_counts)
        assert PAPER_SCALE.density_group_size == 12


class TestWorkload:
    def test_tasks_are_valid(self, dense_network, rng):
        tasks = generate_tasks(dense_network, 20, 5, rng)
        assert len(tasks) == 20
        for task in tasks:
            assert task.group_size == 5
            assert task.source_id not in task.destination_ids
            assert len(set(task.destination_ids)) == 5

    def test_reproducible(self, dense_network):
        import numpy as np

        a = generate_tasks(dense_network, 5, 4, np.random.default_rng(1))
        b = generate_tasks(dense_network, 5, 4, np.random.default_rng(1))
        assert a == b

    def test_validation(self, dense_network, rng):
        with pytest.raises(ValueError):
            generate_tasks(dense_network, 0, 5, rng)
        with pytest.raises(ValueError):
            generate_tasks(dense_network, 5, 0, rng)
        with pytest.raises(ValueError):
            generate_tasks(dense_network, 5, dense_network.node_count, rng)


class TestSweep:
    def test_make_network_deterministic(self):
        config = PaperConfig(node_count=200)
        a = make_network(config, 0)
        b = make_network(config, 0)
        assert (a.locations == b.locations).all()
        c = make_network(config, 1)
        assert not (a.locations == c.locations).all()

    def test_node_count_override(self):
        config = PaperConfig(node_count=200)
        net = make_network(config, 0, node_count=120)
        assert net.node_count == 120

    def test_best_lambda_picks_minimum(self):
        config = PaperConfig(node_count=300)
        network = make_network(config, 0)
        streams = RandomStreams(1)
        tasks = generate_tasks(network, 4, 5, streams.stream("w"))
        engine = EngineConfig(max_path_length=100)
        lambdas = (0.0, 0.3, 0.6)
        best = best_lambda_results(network, tasks, lambdas, engine)
        assert len(best) == len(tasks)
        # The selected result can never exceed any single-lambda run.
        for lam in lambdas:
            from repro.routing.pbm import PBMProtocol

            single = run_tasks(network, PBMProtocol(lam=lam), tasks, engine)
            for chosen, candidate in zip(best, single):
                if chosen.success == candidate.success:
                    assert chosen.transmissions <= candidate.transmissions

    def test_best_lambda_requires_lambdas(self, dense_network):
        with pytest.raises(ValueError):
            best_lambda_results(dense_network, [], [])


class TestFigures:
    def test_sweep_has_all_protocols(self, small_sweep):
        assert set(small_sweep.results) == {"GMP", "GMPnr", "LGS", "SMT", "GRD", "PBM"}

    def test_figure11_series_and_values(self, small_sweep):
        fig = figure11(small_sweep)
        assert fig.figure_id == "figure11"
        assert set(fig.labels()) == {"PBM", "LGS", "GMP", "GMPnr", "SMT"}
        for label in fig.labels():
            for x in fig.xs():
                assert fig.value(label, x) > 0

    def test_figure12_includes_grd(self, small_sweep):
        fig = figure12(small_sweep)
        assert "GRD" in fig.labels()

    def test_figure14_energy_positive(self, small_sweep):
        fig = figure14(small_sweep)
        for label in fig.labels():
            for x in fig.xs():
                assert fig.value(label, x) > 0

    def test_energy_tracks_transmissions(self, small_sweep):
        # Energy is transmissions weighted by listener counts; near-ties can
        # swap, but protocols that clearly differ in transmissions (>= 15%)
        # must order the same way in energy.
        hops = figure11(small_sweep)
        energy = figure14(small_sweep)
        for x in hops.xs():
            for a in hops.labels():
                for b in hops.labels():
                    if hops.value(a, x) * 1.15 < hops.value(b, x):
                        assert energy.value(a, x) < energy.value(b, x), (a, b, x)

    def test_figure15_monotone_shape(self):
        config = PaperConfig(node_count=350)
        scale = SMOKE_SCALE
        fig = figure15(config, scale)
        assert set(fig.labels()) == {"PBM", "LGS", "GMP"}
        for label in fig.labels():
            series = fig.series[label]
            assert series[0][0] < series[-1][0]  # x ascending.
            assert all(y >= 0 for _, y in series)

    def test_missing_point_raises(self, small_sweep):
        fig = figure11(small_sweep)
        with pytest.raises(KeyError):
            fig.value("GMP", 99.0)

    def test_latency_extension_figure(self, small_sweep):
        fig = figure_latency(small_sweep)
        for label in fig.labels():
            for x in fig.xs():
                assert fig.value(label, x) > 0
        # Sequential LGS completes later than GMP at the largest k.
        k_max = max(fig.xs())
        assert fig.value("GMP", k_max) <= fig.value("LGS", k_max)

    def test_delivery_summary(self, small_sweep):
        ratios = delivery_summary(small_sweep)
        assert 0.9 <= ratios["GMP"][4] <= 1.0

    def test_json_roundtrip(self, small_sweep):
        fig = figure11(small_sweep)
        payload = json.loads(json.dumps(fig.to_json_dict()))
        assert payload["figure_id"] == "figure11"
        assert set(payload["series"]) == set(fig.labels())


class TestReport:
    def test_table_rendering(self, small_sweep):
        text = render_figure_table(figure11(small_sweep))
        assert "Total number of hops" in text
        assert "GMP" in text
        assert "LGS" in text

    def test_ratio_summary(self, small_sweep):
        text = render_ratio_summary(figure11(small_sweep), "GMP", ["LGS", "PBM"])
        assert "vs LGS" in text
        assert "%" in text

    def test_ratio_summary_unknown_reference(self, small_sweep):
        with pytest.raises(KeyError):
            render_ratio_summary(figure11(small_sweep), "NOPE", ["LGS"])

    def test_dict_rows(self, small_sweep):
        rows = figure_as_dict_rows(figure11(small_sweep))
        assert rows[0]["x"] == min(SMOKE_SCALE.group_sizes)
        assert "GMP" in rows[0]
