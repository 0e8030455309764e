"""Harness tests: span arithmetic, names, zero-fill, digest gate, patch hygiene.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS, UnitResult

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_self_time_subtracts_direct_children_only():
    synthetic = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 3.5, 4.5, 1),
        ("a", 6.0, 9.0, 0),
        ("c", 6.5, 7.0, 4),
    ]
    assert spans.self_times(synthetic) == pytest.approx(
        {"root": 3.0, "a": 4.5, "b": 2.0, "c": 0.5}
    )


def test_self_times_sum_to_root_wall_time():
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    tracer.run("root", lambda: tracer.run("a", lambda: tracer.run("b", lambda: None)))
    finished = tracer.finished()
    assert sum(spans.self_times(finished).values()) == pytest.approx(
        finished[0][2] - finished[0][1]
    )


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 99) == 99
    assert spans.percentile([], 99) == 0.0


def test_names_are_well_formed_and_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        declared = json.load(handle)
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)


def test_every_layer_metric_is_zero_filled_when_idle():
    idle = run.layer_metrics(run.Accumulator(), run.Accumulator(), {}, {}, 0.0)
    assert list(idle) == [name for name, _ in run.PER_LAYER]
    assert all(value == 0.0 for value in idle.values())


class _Stub:
    """A workload with no deployments and one constant unit."""

    name = "stub"

    def __init__(self, seed):
        self.seed = seed

    def deployment_keys(self):
        return []

    def units(self):
        return [("u", lambda: UnitResult("d1", tasks=2, completed=2, delivered=4, requested=4,
                                         transmissions=6.0))]

    def close(self):
        pass


@pytest.fixture
def stub(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "stub", _Stub)

    def pin(digest):
        path = tmp_path / "digests.json"
        path.write_text(json.dumps({"stub": digest}))
        monkeypatch.setattr(run, "PINS_PATH", str(path))

    return pin


def test_pinned_digest_passes(stub):
    from workloads import combine

    stub(combine([UnitResult("d1")]).digest)
    result, ok = run.measure("stub", run.DEFAULT_SEED, 0.0, trace=False)
    assert ok and result["correct"] and result["failed"] == 0
    assert [name for name in result["metrics"]] == [name for name, _ in run.END_TO_END]


def test_tampered_digest_fails_the_run(stub):
    stub("0" * 64)
    result, ok = run.measure("stub", run.DEFAULT_SEED, 0.0, trace=False)
    assert not ok
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert run.check_digest("stub", 1, "anything", {}) is None


def test_pooled_set_up_leaves_no_plane_or_process():
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.experiments.config import PaperConfig
    from repro.perf import shm
    from workloads import SessionsPooled

    workload = SessionsPooled(run.DEFAULT_SEED)
    key = (PaperConfig(node_count=50), 0, None)
    workload.build(key, final=False)  # release hook skipped, as on an error path
    workload.build(key, final=True)
    assert len(shm._LIVE_PLANES) == 2
    assert resource_tracker._resource_tracker._pid is not None
    workload.close()
    assert len(shm._LIVE_PLANES) == 0
    run.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs prctl and /proc")
def test_orphans_of_children_are_reaped():
    # The shell exits at once; its background sleep is orphaned to the run.
    script = "\n".join((
        "import subprocess, run",
        "run.become_subreaper()",
        "shell = ['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!']",
        "pid = int(subprocess.run(shell, capture_output=True, text=True).stdout)",
        "assert run.child_pids() == [pid], run.child_pids()",
        "run.reap_children()",
        "assert run.child_pids() == []",
        "print('reaped')",
    ))
    env = dict(os.environ, PYTHONPATH=run.HERE)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "reaped"


def _bound():
    """The object bound at every patched seam right now."""
    return {(path, attr): spans._target(path).__dict__[attr] for path, attr, _ in spans.PATCHES}


def test_wrappers_are_gone_after_a_traced_run(stub):
    from repro.experiments import sweep
    from repro.experiments.config import PaperConfig

    before = _bound()
    tracer = spans.Tracer()
    installed = spans.Installed(tracer)
    try:
        assert all(_bound()[seam] is not before[seam] for seam in before)
        sweep.make_network(PaperConfig(node_count=50), 0)
    finally:
        installed.restore()
    assert _bound() == before
    assert tracer.calls() == {"network.build": 1}

    from workloads import combine

    stub(combine([UnitResult("d1")]).digest)
    result, ok = run.measure("stub", run.DEFAULT_SEED, 0.0, trace=True)
    assert ok and list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert _bound() == before
    assert spans._ACTIVE is None
