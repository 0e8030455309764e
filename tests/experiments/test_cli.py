"""Tests for the command-line harness."""

import json

import pytest

from repro.cli import _format_peak_rss, _rss_divisor, main


class TestCLI:
    def test_config_command(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "Simulation setup" in out
        assert "150m" in out

    def test_figure11_smoke(self, capsys):
        assert main(["figure11", "--scale", "smoke", "--nodes", "350", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "figure11" in out
        assert "GMP savings" in out

    def test_figure15_smoke(self, capsys):
        assert main(["figure15", "--scale", "smoke", "--nodes", "350", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "failed tasks" in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert (
            main(
                [
                    "figure12",
                    "--scale",
                    "smoke",
                    "--nodes",
                    "350",
                    "--quiet",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert "figure12" in payload
        assert payload["scale"] == "smoke"

    def test_seed_override_changes_results(self, capsys):
        main(["figure11", "--scale", "smoke", "--nodes", "350", "--quiet"])
        base = capsys.readouterr().out
        main(
            ["figure11", "--scale", "smoke", "--nodes", "350", "--seed", "99", "--quiet"]
        )
        reseeded = capsys.readouterr().out
        assert base != reseeded

    def test_unknown_scale_exits_2_with_one_line_error(self, capsys):
        assert main(["figure11", "--scale", "galactic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "galactic" in err
        assert "Traceback" not in err

    def test_bad_robustness_scale_exits_2(self, capsys):
        assert main(["robustness", "--scale", "galactic"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_ablations_reject_workers(self, capsys):
        assert main(["ablations", "--workers", "4", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--workers" in err
        assert "Traceback" not in err

    def test_ablations_write_json_and_perf(self, tmp_path, capsys):
        path = tmp_path / "abl.json"
        argv = ["ablations", "--nodes", "200", "--quiet", "--perf", "--json", str(path)]
        assert main(argv) == 0
        payload = json.loads(path.read_text())
        assert [o["name"] for o in payload["ablations"]][0] == "radio-range-awareness"
        assert payload["scale"] is None
        assert "== radio-range-awareness ==" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestFuzzCLI:
    def test_fuzz_stdout_is_deterministic(self, capsys):
        argv = ["fuzz", "--seed", "7", "--budget", "2", "--quiet"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "store digest:" in first

    def test_fuzz_fail_on_findings(self, capsys):
        # Seed 7 scenario 0 is a known finding under the default limits.
        argv = [
            "fuzz",
            "--seed",
            "7",
            "--budget",
            "1",
            "--quiet",
            "--no-shrink",
            "--fail-on-findings",
        ]
        assert main(argv) == 1
        assert "findings: 1 / 1" in capsys.readouterr().out

    def test_fuzz_writes_store_and_fixtures(self, tmp_path, capsys):
        store_path = tmp_path / "store.json"
        fixtures_dir = tmp_path / "fixtures"
        argv = [
            "fuzz",
            "--seed",
            "7",
            "--budget",
            "1",
            "--quiet",
            "--json",
            str(store_path),
            "--fixtures-dir",
            str(fixtures_dir),
        ]
        assert main(argv) == 0
        payload = json.loads(store_path.read_text())
        assert payload["root_seed"] == 7
        assert len(list(fixtures_dir.glob("fuzz_7_*.json"))) == 1

    def test_fuzz_rejects_non_positive_budget(self, capsys):
        assert main(["fuzz", "--budget", "0", "--quiet"]) == 2
        assert "budget" in capsys.readouterr().err


class TestPeakRssReport:
    def test_divisor_is_bytes_on_darwin_kib_elsewhere(self):
        # ru_maxrss is reported in bytes on macOS, KiB on Linux.
        assert _rss_divisor("darwin") == 1024.0 * 1024.0
        assert _rss_divisor("linux") == 1024.0
        assert _rss_divisor("freebsd") == 1024.0

    def test_format_self_only(self):
        assert _format_peak_rss(312.4, 0.0, 0.0) == "peak RSS: 312 MiB"

    def test_format_includes_worker_and_shared_components(self):
        message = _format_peak_rss(312.0, 55.6, 12.3)
        assert message.startswith("peak RSS: 312 MiB")
        assert "largest worker 56 MiB" in message
        assert "shared=12 MiB" in message
        assert "counted once" in message


class TestSharedPlaneFlag:
    def test_no_shared_plane_disables_the_plane(self):
        from repro.perf.shm import set_shared_plane_enabled, shared_plane_enabled

        assert shared_plane_enabled()
        try:
            assert main(["config", "--no-shared-plane"]) == 0
            assert not shared_plane_enabled()
        finally:
            set_shared_plane_enabled(True)

    def test_plane_enabled_by_default(self):
        from repro.perf.shm import shared_plane_enabled

        assert main(["config"]) == 0
        assert shared_plane_enabled()
