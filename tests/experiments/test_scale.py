"""Tests for the large-scale constant-density sweep (experiments.scale)."""

import dataclasses
import math

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.scale import (
    SCALE_DEEP,
    SCALE_PAPER,
    SCALE_QUICK,
    SCALE_SMOKE,
    SCALE_SMOKE50K,
    ScaleSweepScale,
    render_scale_table,
    run_scale_sweep,
    scale_sweep_scale_by_name,
    scaled_config,
)
from repro.perf.shm import shared_plane_disabled
from tests.conftest import scalar_gates

#: Small enough for tier-1 wall clock, large enough to shard across workers.
_TINY = ScaleSweepScale(
    name="tiny",
    node_counts=(300, 500),
    group_sizes=(5, 10),
    tasks_per_cell=2,
    network_count=1,
)


class TestScaledConfig:
    def test_constant_density(self):
        base = PaperConfig()
        for n in (1000, 2000, 5000, 10000):
            cfg = scaled_config(base, n)
            area_km2 = (cfg.field_width_m / 1000.0) * (cfg.field_height_m / 1000.0)
            assert cfg.node_count == n
            assert n / area_km2 == pytest.approx(1000.0)  # nodes per km^2
            assert cfg.field_width_m == cfg.field_height_m

    def test_1000_nodes_reproduces_table_1_field(self):
        cfg = scaled_config(PaperConfig(), 1000)
        assert cfg.field_width_m == pytest.approx(1000.0)

    def test_ttl_scales_with_diagonal(self):
        for n in (10_000, 50_000, 100_000):
            cfg = scaled_config(PaperConfig(), n)
            diagonal_hops = math.hypot(cfg.field_width_m, cfg.field_height_m) / 150.0
            assert cfg.max_path_length >= diagonal_hops

    def test_ttl_unchanged_at_or_below_10k(self):
        """Digest back-compat: the historical fixed TTL up to 10k nodes."""
        for n in (2_000, 5_000, 10_000):
            assert scaled_config(PaperConfig(), n).max_path_length == 250

    def test_ttl_grows_for_100k_diagonal(self):
        cfg = scaled_config(PaperConfig(), 100_000)
        assert cfg.max_path_length > 250
        assert cfg.field_width_m == pytest.approx(10_000.0)

    def test_scale_lookup(self):
        assert scale_sweep_scale_by_name("smoke") is SCALE_SMOKE
        assert scale_sweep_scale_by_name("quick") is SCALE_QUICK
        assert scale_sweep_scale_by_name("paper") is SCALE_PAPER
        assert scale_sweep_scale_by_name("smoke50k") is SCALE_SMOKE50K
        assert scale_sweep_scale_by_name("deep") is SCALE_DEEP
        with pytest.raises(ValueError):
            scale_sweep_scale_by_name("galactic")

    def test_large_presets_stay_ci_sized(self):
        """The 50k smoke preset must fit the perf-smoke budget: a handful
        of units, one network, constant Table-1 density."""
        assert SCALE_SMOKE50K.node_counts == (50_000,)
        assert SCALE_SMOKE50K.network_count == 1
        assert SCALE_SMOKE50K.tasks_per_cell <= 2
        assert SCALE_DEEP.node_counts == (50_000, 100_000)


class TestScaleSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_scale_sweep(PaperConfig(), _TINY, include_grd=False)

    def test_cells_and_labels(self, sweep):
        assert sweep.labels() == ["GMP", "LGS"]
        assert sweep.cells() == [(300, 5), (300, 10), (500, 5), (500, 10)]
        for label in sweep.labels():
            for n, k in sweep.cells():
                batch = sweep.batch(label, n, k)
                assert len(batch) == _TINY.tasks_per_cell
                for result in batch:
                    assert len(result.destination_ids) == k

    def test_full_delivery_at_tiny_scale(self, sweep):
        for label in sweep.labels():
            for n, k in sweep.cells():
                assert sweep.delivery_ratio(label, n, k) == pytest.approx(1.0)

    def test_parallel_workers_bit_identical(self, sweep):
        """Pooled with the shared plane on (the default): same digest."""
        parallel = run_scale_sweep(PaperConfig(), _TINY, workers=3, include_grd=False)
        assert parallel.digest() == sweep.digest()

    def test_shared_plane_off_pooled_bit_identical(self, sweep):
        """Pooled with the plane disabled (workers rebuild): same digest."""
        with shared_plane_disabled():
            rebuilt = run_scale_sweep(
                PaperConfig(), _TINY, workers=3, include_grd=False
            )
        assert rebuilt.digest() == sweep.digest()

    def test_vectorized_off_bit_identical(self, sweep):
        """Every kernel call site on its scalar loop: same digest."""
        with scalar_gates():
            scalar = run_scale_sweep(PaperConfig(), _TINY, include_grd=False)
        assert scalar.digest() == sweep.digest()

    def test_digest_sensitive_to_results(self, sweep):
        other_scale = dataclasses.replace(_TINY, tasks_per_cell=1)
        other = run_scale_sweep(PaperConfig(), other_scale, include_grd=False)
        assert other.digest() != sweep.digest()

    def test_json_roundtrip(self, sweep):
        payload = sweep.to_json_dict()
        assert payload["scale"] == "tiny"
        assert payload["digest"] == sweep.digest()
        assert len(payload["cells"]) == len(sweep.labels()) * len(sweep.cells())
        for cell in payload["cells"]:
            assert cell["delivery_ratio"] == pytest.approx(
                sweep.delivery_ratio(cell["label"], cell["node_count"], cell["group_size"])
            )

    def test_render_table(self, sweep):
        table = render_scale_table(sweep)
        assert "GMP tx" in table and "LGS dlv" in table
        assert str(500) in table

    def test_grd_included_by_default(self):
        one_cell = ScaleSweepScale(
            name="one", node_counts=(300,), group_sizes=(5,),
            tasks_per_cell=1, network_count=1,
        )
        sweep = run_scale_sweep(PaperConfig(), one_cell)
        assert sweep.labels() == ["GMP", "GRD", "LGS"]
        # GRD unicasts independently to every destination: never cheaper
        # than the multicast tree GMP builds.
        assert sweep.mean_transmissions("GRD", 300, 5) >= sweep.mean_transmissions(
            "GMP", 300, 5
        )
