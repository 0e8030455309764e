"""Tests for the robustness experiment harness."""

import dataclasses

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.robustness import (
    RobustnessScale,
    adversary_sweep,
    link_loss_sweep,
    node_failure_sweep,
)

SMALL_CONFIG = PaperConfig(node_count=300)
SMALL_SCALE = RobustnessScale(
    network_count=1,
    tasks_per_network=6,
    group_size=5,
    loss_rates=(0.0, 0.3),
    failed_fractions=(0.0, 0.15),
)


class TestLinkLossSweep:
    @pytest.fixture(scope="class")
    def figures(self):
        return link_loss_sweep(SMALL_CONFIG, SMALL_SCALE)

    def test_series_shape(self, figures):
        delivery, energy = figures
        assert set(delivery.series) == {"GMP", "LGS", "FLOOD"}
        assert delivery.xs() == [0.0, 0.3]
        assert energy.xs() == [0.0, 0.3]

    def test_lossless_delivers_everything(self, figures):
        delivery, _ = figures
        for label in delivery.labels():
            assert delivery.value(label, 0.0) == pytest.approx(1.0)

    def test_loss_hurts_routing_protocols(self, figures):
        delivery, _ = figures
        for label in ("GMP", "LGS"):
            assert delivery.value(label, 0.3) < 1.0

    def test_flooding_most_robust(self, figures):
        delivery, _ = figures
        assert delivery.value("FLOOD", 0.3) >= delivery.value("GMP", 0.3)
        assert delivery.value("FLOOD", 0.3) >= delivery.value("LGS", 0.3)

    def test_flooding_most_expensive(self, figures):
        _, energy = figures
        assert energy.value("FLOOD", 0.0) > energy.value("GMP", 0.0)


class TestNodeFailureSweep:
    @pytest.fixture(scope="class")
    def figure(self):
        return node_failure_sweep(SMALL_CONFIG, SMALL_SCALE)

    def test_no_failures_full_delivery(self, figure):
        for label in figure.labels():
            assert figure.value(label, 0.0) == pytest.approx(1.0)

    def test_crashes_degrade_delivery(self, figure):
        assert figure.value("GMP", 0.15) <= 1.0
        # Flooding routes around dead nodes via redundancy.
        assert figure.value("FLOOD", 0.15) >= figure.value("GMP", 0.15) - 0.05


class TestLinkLossBatch:
    def test_every_loss_rate_replays_the_same_batch(self):
        # Two equal x values must give equal points: each loss rate draws
        # its tasks from its own arguments, not from a shared stream that
        # advances once per loss rate.
        scale = dataclasses.replace(SMALL_SCALE, loss_rates=(0.3, 0.3))
        delivery, energy = link_loss_sweep(SMALL_CONFIG, scale)
        for figure in (delivery, energy):
            for label, points in figure.series.items():
                assert points[0] == points[1], label


class TestPooledSweeps:
    SCALE = dataclasses.replace(
        SMALL_SCALE, tasks_per_network=3, adversary_counts=(0, 3)
    )

    def test_pooled_matches_serial(self):
        def run(workers):
            figures = [
                *link_loss_sweep(SMALL_CONFIG, self.SCALE, workers=workers),
                node_failure_sweep(SMALL_CONFIG, self.SCALE, workers=workers),
                *adversary_sweep(SMALL_CONFIG, self.SCALE, workers=workers),
            ]
            return [figure.to_json_dict() for figure in figures]

        assert run(1) == run(2)
