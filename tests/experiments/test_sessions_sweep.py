"""The streaming-session sweep: presets, digests, truncation, resume."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.sessions import (
    SESSIONS_PAPER,
    SESSIONS_SMOKE,
    render_sessions_table,
    run_sessions_sweep,
    session_cells,
)

#: The smoke preset shrunk to a unit-test deployment (the preset's 2k-node
#: cell stays for CI's perf-smoke job).
TINY = dataclasses.replace(SESSIONS_SMOKE, node_counts=(150,), sessions_per_cell=10)


@pytest.fixture(scope="module")
def config():
    return PaperConfig()


def test_paper_preset_covers_the_matrix():
    cells = session_cells(SESSIONS_PAPER)
    assert len(cells) == 3 * 3 * 3  # node counts x arrivals x protocols
    assert {spec[0] for _, _, spec in cells} == {"GMP", "LGS", "GRD"}
    assert max(n for n, _, _ in cells) == 50_000


def test_sweep_serial_equals_pooled(config):
    serial = run_sessions_sweep(config, TINY)
    pooled = run_sessions_sweep(config, TINY, workers=2)
    assert serial.digest() == pooled.digest()
    assert json.dumps(serial.to_json_dict(), sort_keys=True) == json.dumps(
        pooled.to_json_dict(), sort_keys=True
    )


def test_sweep_pooled_plane_off_equals_serial(config):
    """The A/B switch: pooled workers rebuilding instead of attaching."""
    from repro.perf.shm import shared_plane_disabled

    serial = run_sessions_sweep(config, TINY)
    with shared_plane_disabled():
        rebuilt = run_sessions_sweep(config, TINY, workers=2)
    assert rebuilt.digest() == serial.digest()


def test_sweep_report_and_table(config):
    sweep = run_sessions_sweep(config, TINY)
    assert not sweep.truncated
    assert sweep.completed_sessions == 10
    table = render_sessions_table(sweep)
    assert "150" in table and "poisson" in table and "GMP" in table
    payload = sweep.to_json_dict()
    assert payload["digest"] == sweep.digest()
    assert payload["cells"][0]["completed"] == 10


def test_stop_after_then_resume_matches_uninterrupted(config, tmp_path):
    reference = run_sessions_sweep(config, TINY)
    interrupted = run_sessions_sweep(
        config, TINY, checkpoint_dir=str(tmp_path), stop_after=4
    )
    assert interrupted.truncated
    assert interrupted.reports == {}  # no cell finished before the stop
    resumed = run_sessions_sweep(config, TINY, checkpoint_dir=str(tmp_path))
    assert not resumed.truncated
    assert resumed.digest() == reference.digest()
    assert json.dumps(resumed.to_json_dict(), sort_keys=True) == json.dumps(
        reference.to_json_dict(), sort_keys=True
    )


def test_completed_cells_resume_from_checkpoint_without_rework(config, tmp_path):
    first = run_sessions_sweep(config, TINY, checkpoint_dir=str(tmp_path))
    again = run_sessions_sweep(config, TINY, checkpoint_dir=str(tmp_path))
    assert again.digest() == first.digest()
