"""Tests for the parallel sweep path and the figure JSON round-trip."""

import json

from repro.experiments import sweep as sweep_mod
from repro.experiments.config import PaperConfig, SMOKE_SCALE
from repro.experiments.figures import (
    FigureResult,
    figure11,
    figure15,
    run_group_size_sweep,
)
from repro.perf.counters import GLOBAL_COUNTERS


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        config = PaperConfig(node_count=250)
        serial = figure11(run_group_size_sweep(config, SMOKE_SCALE, workers=1))
        parallel = figure11(run_group_size_sweep(config, SMOKE_SCALE, workers=2))
        assert serial.series == parallel.series

    def test_progress_callback_called(self):
        config = PaperConfig(node_count=250)
        messages = []
        run_group_size_sweep(
            config, SMOKE_SCALE, progress=messages.append, workers=1
        )
        expected = SMOKE_SCALE.network_count * len(SMOKE_SCALE.group_sizes)
        assert len(messages) == expected


class TestPooledPerfCounters:
    @staticmethod
    def _counters_moved(workers):
        """Names of the counters a fresh figure15 + group-size run moves."""
        saved = dict(sweep_mod._NETWORK_MEMO)
        sweep_mod._NETWORK_MEMO.clear()
        try:
            before = GLOBAL_COUNTERS.snapshot()
            config = PaperConfig(node_count=250)
            figure15(config, SMOKE_SCALE, workers=workers)
            run_group_size_sweep(config, SMOKE_SCALE, workers=workers)
            return set(GLOBAL_COUNTERS.delta_since(before))
        finally:
            sweep_mod._NETWORK_MEMO.clear()
            sweep_mod._NETWORK_MEMO.update(saved)

    def test_pooled_run_reports_every_serial_counter(self):
        serial = self._counters_moved(1)
        # Deployment builds move it; a pooled run builds in its workers.
        assert any(name.startswith("vector.adjacency.") for name in serial)
        assert serial <= self._counters_moved(2)


class TestFigureJSON:
    def test_roundtrip(self):
        fig = FigureResult(
            figure_id="f", title="T", x_label="x", y_label="y",
            series={"A": [(1.0, 2.0), (3.0, 4.5)], "B": [(1.0, 0.5)]},
        )
        restored = FigureResult.from_json_dict(
            json.loads(json.dumps(fig.to_json_dict()))
        )
        assert restored == fig

    def test_cli_json_loadable(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "out.json"
        main([
            "figure11", "--scale", "smoke", "--nodes", "300", "--quiet",
            "--json", str(path),
        ])
        payload = json.loads(path.read_text())
        fig = FigureResult.from_json_dict(payload["figure11"])
        assert fig.figure_id == "figure11"
        assert "GMP" in fig.labels()

    def test_cli_workers_flag(self, capsys):
        from repro.cli import main

        assert main([
            "figure11", "--scale", "smoke", "--nodes", "250",
            "--workers", "2", "--quiet",
        ]) == 0
        assert "figure11" in capsys.readouterr().out
