"""Streaming runner contracts: worker/chunk identity, resume, bounded memory."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import PaperConfig
from repro.sessions import (
    CheckpointStore,
    PoissonArrivals,
    SessionWorkload,
    ZipfGroups,
    run_session_stream,
)
from repro.sessions import runner
from repro.sessions.store import CheckpointError

NODE_COUNT = 120


@pytest.fixture(scope="module")
def config():
    return PaperConfig(node_count=NODE_COUNT)


def _workload(seed=7):
    return SessionWorkload(
        seed=seed,
        node_count=NODE_COUNT,
        arrival=PoissonArrivals(rate_per_s=2.0),
        groups=ZipfGroups(alpha=1.2, min_size=2, max_size=8),
    )


def _chunked(monkeypatch, chunk):
    """Ship ``chunk`` sessions per unit in every stream that follows."""
    monkeypatch.setattr(runner, "DEFAULT_CHUNK", chunk)


def _report_bytes(report):
    """The canonical serialized report the identity contracts compare."""
    return json.dumps(report.to_json_dict(), sort_keys=True)


def test_report_is_complete_and_sane(config):
    report = run_session_stream(_workload(), ("GMP",), config, total_sessions=15)
    assert report.completed == 15
    assert report.protocol == "GMP"
    assert report.stats.sessions == 15
    assert 0.0 < report.stats.aggregate_delivery_ratio <= 1.0
    assert report.cursor.index == 15
    assert len(report.chain_digest) == 64
    payload = report.to_json_dict()
    assert payload["completed"] == 15
    assert set(payload["metrics"]) == {
        "latency_s",
        "delivery_ratio",
        "energy_joules",
        "tree_cost",
    }


def test_chunk_size_cannot_change_the_report(config, monkeypatch):
    reference = run_session_stream(_workload(), ("GMP",), config, total_sessions=17)
    for chunk in (1, 3, 17, 50):
        _chunked(monkeypatch, chunk)
        other = run_session_stream(_workload(), ("GMP",), config, total_sessions=17)
        assert _report_bytes(other) == _report_bytes(reference)


def test_workers_cannot_change_the_report(config, monkeypatch):
    """The PR 2 contract extended to streams: pooled == serial, byte for byte."""
    _chunked(monkeypatch, 2)
    serial = run_session_stream(_workload(), ("GMP",), config, total_sessions=16)
    pooled = run_session_stream(
        _workload(), ("GMP",), config, total_sessions=16, workers=3
    )
    assert _report_bytes(pooled) == _report_bytes(serial)


def test_protocols_see_identical_sessions(config):
    """The workload replays the same stream under every protocol."""
    gmp = run_session_stream(_workload(), ("GMP",), config, total_sessions=10)
    lgs = run_session_stream(_workload(), ("LGS",), config, total_sessions=10)
    assert gmp.cursor == lgs.cursor
    assert gmp.chain_digest != lgs.chain_digest  # results differ, stream not


def test_resume_reproduces_uninterrupted_report(tmp_path, config, monkeypatch):
    _chunked(monkeypatch, 4)
    reference = run_session_stream(_workload(), ("GMP",), config, total_sessions=21)
    store = CheckpointStore(str(tmp_path / "cell.json"))
    # "Kill" the run after 9 sessions, checkpointing every 3.
    _chunked(monkeypatch, 3)
    partial = run_session_stream(
        _workload(),
        ("GMP",),
        config,
        total_sessions=9,
        checkpoint=store,
        checkpoint_every=3,
    )
    assert partial.completed == 9
    # Resume toward the full target — with a different chunk size.
    _chunked(monkeypatch, 5)
    resumed = run_session_stream(
        _workload(),
        ("GMP",),
        config,
        total_sessions=21,
        checkpoint=store,
        checkpoint_every=3,
    )
    assert resumed.completed == 21
    assert _report_bytes(resumed) == _report_bytes(reference)


def test_resume_from_every_checkpoint_cadence(tmp_path, config, monkeypatch):
    _chunked(monkeypatch, 2)
    reference = run_session_stream(_workload(), ("GMP",), config, total_sessions=12)
    for stop in (2, 5, 11):
        store = CheckpointStore(str(tmp_path / f"stop{stop}.json"))
        run_session_stream(
            _workload(),
            ("GMP",),
            config,
            total_sessions=stop,
            checkpoint=store,
            checkpoint_every=2,
        )
        resumed = run_session_stream(
            _workload(),
            ("GMP",),
            config,
            total_sessions=12,
            checkpoint=store,
            checkpoint_every=2,
        )
        assert _report_bytes(resumed) == _report_bytes(reference)


def test_checkpoint_identity_mismatch_refuses_resume(tmp_path, config):
    store = CheckpointStore(str(tmp_path / "cell.json"))
    run_session_stream(
        _workload(seed=7),
        ("GMP",),
        config,
        total_sessions=4,
        checkpoint=store,
    )
    with pytest.raises(CheckpointError):
        run_session_stream(
            _workload(seed=8),  # different stream — must not silently resume
            ("GMP",),
            config,
            total_sessions=8,
            checkpoint=store,
        )


def test_memory_state_is_flat_in_completed_sessions(config):
    """The runner's retained state must not grow with the session count.

    Proxy for peak RSS flatness: the checkpoint payload *is* the whole
    retained aggregate (cursor + sketches + chain), so its size bounds the
    parent's per-session memory.  GK allows logarithmic growth; 10x the
    sessions must cost well under 1.5x the state, where a linear
    accumulator would cost ~10x.
    """
    sizes = {}
    for total in (50, 500):
        report = run_session_stream(
            _workload(), ("GMP",), config, total_sessions=total, epsilon=0.05
        )
        state_bytes = len(
            json.dumps(
                {
                    "cursor": report.cursor.to_json_dict(),
                    "chain": report.chain_digest,
                    "stats": report.stats.state(),
                }
            )
        )
        sizes[total] = state_bytes
    assert sizes[500] < 1.5 * sizes[50]


def test_workload_config_mismatch_rejected(config):
    wrong = SessionWorkload(
        seed=1,
        node_count=NODE_COUNT + 1,
        arrival=PoissonArrivals(1.0),
        groups=ZipfGroups(alpha=1.2, min_size=2, max_size=8),
    )
    with pytest.raises(ValueError):
        run_session_stream(wrong, ("GMP",), config, total_sessions=1)
    with pytest.raises(ValueError):
        run_session_stream(_workload(), ("GMP",), config, total_sessions=-1)
