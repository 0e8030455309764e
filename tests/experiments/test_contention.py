"""Contention sweep harness: determinism, the ARQ ablation, and presets."""

import pytest

from repro.experiments.config import PaperConfig, preset
from repro.experiments.contention import (
    CONTENTION_PRESETS,
    CONTENTION_SPECS,
    ContentionScale,
    PAPER_CONTENTION_SCALE,
    QUICK_CONTENTION_SCALE,
    SMOKE_CONTENTION_SCALE,
    arq_ablation,
    contention_sweep,
    run_contention_unit,
    _contended_engine,
)
from repro.experiments.sweep import build_protocol
from repro.routing.flooding import FloodingProtocol
from repro.routing.gmp import GMPProtocol

#: Small enough to keep the whole module in the tier-1 budget.
TINY_SCALE = ContentionScale(
    name="tiny",
    network_count=1,
    node_count=60,
    group_size=3,
    session_counts=(1, 2),
    interarrival_s=(0.01,),
    ablation_loss_rates=(0.0, 0.3),
    ablation_sessions=2,
)

TINY_CONFIG = PaperConfig(node_count=60, master_seed=404)


class TestScalePresets:
    def test_lookup_by_name(self):
        assert preset(CONTENTION_PRESETS, "smoke") is SMOKE_CONTENTION_SCALE
        assert preset(CONTENTION_PRESETS, "quick") is QUICK_CONTENTION_SCALE
        assert preset(CONTENTION_PRESETS, "paper") is PAPER_CONTENTION_SCALE

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            preset(CONTENTION_PRESETS, "galactic")

    def test_paper_scale_is_larger_than_smoke(self):
        assert PAPER_CONTENTION_SCALE.node_count > SMOKE_CONTENTION_SCALE.node_count
        assert len(PAPER_CONTENTION_SCALE.session_counts) > len(
            SMOKE_CONTENTION_SCALE.session_counts
        )


class TestProtocolFactory:
    def test_flood_spec_builds_flooding(self):
        assert isinstance(build_protocol(("FLOOD",)), FloodingProtocol)

    def test_standard_specs_build(self):
        assert isinstance(build_protocol(("GMP",)), GMPProtocol)

    def test_sweep_covers_flooding_reference(self):
        assert ("FLOOD",) in CONTENTION_SPECS


class TestUnitPurity:
    def test_unit_is_replayable(self):
        engine = _contended_engine(TINY_CONFIG)
        first = run_contention_unit(
            TINY_CONFIG, TINY_SCALE, engine, 0, 2, 0.01, ("GMP",)
        )
        second = run_contention_unit(
            TINY_CONFIG, TINY_SCALE, engine, 0, 2, 0.01, ("GMP",)
        )
        results_a, _ = first
        results_b, _ = second
        assert [r.delivered_hops for r in results_a] == [
            r.delivered_hops for r in results_b
        ]
        assert [r.energy_joules for r in results_a] == [
            r.energy_joules for r in results_b
        ]

    def test_sessions_independent_of_offered_load(self):
        engine = _contended_engine(TINY_CONFIG)
        slow, _ = run_contention_unit(
            TINY_CONFIG, TINY_SCALE, engine, 0, 2, 0.01, ("GMP",)
        )
        fast, _ = run_contention_unit(
            TINY_CONFIG, TINY_SCALE, engine, 0, 2, 0.0001, ("GMP",)
        )
        # Same sessions at both loads — only the spacing differs.
        assert [r.task_id for r in slow] == [r.task_id for r in fast]
        assert [r.destination_ids for r in slow] == [
            r.destination_ids for r in fast
        ]


class TestSweepDeterminism:
    def test_serial_and_pooled_runs_agree_byte_for_byte(self):
        serial = contention_sweep(TINY_CONFIG, scale=TINY_SCALE, workers=1)
        pooled = contention_sweep(TINY_CONFIG, scale=TINY_SCALE, workers=2)
        assert {k: f.to_json_dict() for k, f in serial.items()} == {
            k: f.to_json_dict() for k, f in pooled.items()
        }

    def test_sweep_shape(self):
        figures = contention_sweep(TINY_CONFIG, scale=TINY_SCALE)
        assert set(figures) == {
            "contention-delivery",
            "contention-latency",
            "contention-energy",
        }
        delivery = figures["contention-delivery"]
        assert set(delivery.series) == {spec[0] for spec in CONTENTION_SPECS}
        for points in delivery.series.values():
            assert [x for x, _ in points] == [1.0, 2.0]
            assert all(0.0 <= y <= 1.0 for _, y in points)


class TestArqAblation:
    def test_arq_never_hurts_and_helps_under_loss(self):
        figure = arq_ablation(TINY_CONFIG, scale=TINY_SCALE)
        with_arq = dict(figure.series["GMP ARQ"])
        without_arq = dict(figure.series["GMP no-ARQ"])
        assert set(with_arq) == set(without_arq) == {0.0, 0.3}
        for loss in with_arq:
            assert with_arq[loss] >= without_arq[loss]
        assert with_arq[0.3] > without_arq[0.3]

    def test_ablation_pooled_matches_serial(self):
        serial = arq_ablation(TINY_CONFIG, scale=TINY_SCALE, workers=1)
        pooled = arq_ablation(TINY_CONFIG, scale=TINY_SCALE, workers=2)
        assert serial.to_json_dict() == pooled.to_json_dict()
