"""Tests for the deterministic process-pool fan-out and its shared pool."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.experiments.config import PaperConfig
from repro.experiments.sweep import cached_network, counted_unit, run_cells
from repro.perf import parallel
from repro.perf.cache import clear_caches
from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.parallel import retire_pool, run_units, start_context, stream_units
from repro.perf.shm import SharedNetworkPlane
from tests.conftest import make_line_network

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _unit(a, b):
    """Module-level so it is picklable by worker processes."""
    return (a * 10 + b, a - b)


def _pid(_index):
    return os.getpid()


def _slow_logged(path, index):
    time.sleep(0.2)
    with open(path, "a", encoding="ascii") as handle:
        handle.write(f"{index}\n")
    return index


def _die(_index):
    os._exit(3)


@counted_unit
def _deployment_unit(config, _arm):
    return cached_network(config, 0).node_count


def _children():
    return {child.pid for child in multiprocessing.active_children()}


class TestRunUnits:
    def test_serial_matches_list_comprehension(self):
        args = [(i, j) for i in range(4) for j in range(3)]
        assert run_units(_unit, args, workers=1) == [_unit(*a) for a in args]

    def test_parallel_matches_serial_in_order(self):
        args = [(i, j) for i in range(5) for j in range(4)]
        serial = run_units(_unit, args, workers=1)
        parallel = run_units(_unit, args, workers=3)
        assert parallel == serial

    def test_progress_called_once_per_unit(self):
        args = [(i, 0) for i in range(5)]
        messages = []
        run_units(_unit, args, workers=1, progress=messages.append)
        assert len(messages) == 5
        assert messages[0] == "unit 1 done (1/5)"
        assert messages[-1] == "unit 5 done (5/5)"

    def test_empty_and_single(self):
        assert run_units(_unit, [], workers=4) == []
        assert run_units(_unit, [(2, 1)], workers=4) == [(21, 1)]


class TestPoolLifetime:
    UNITS = [(i,) for i in range(8)]

    def _pids(self, workers=2, plane=None):
        """Pids the units ran in; all belong to the live pool's workers."""
        seen = set(run_units(_pid, self.UNITS, workers=workers, plane=plane))
        assert seen <= _children()
        return seen

    def _pool_of(self, workers=2, plane=None):
        """Run the units; the worker pids of the pool they ran on."""
        self._pids(workers, plane)
        return _children()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
    )
    def test_pool_forks_explicitly(self):
        assert start_context().get_start_method() == "fork"
        run_units(_unit, [(1, 2), (3, 4)], workers=2)
        assert parallel._POOL._mp_context.get_start_method() == "fork"

    def test_calls_reuse_one_pool(self):
        workers = self._pool_of()
        assert len(workers) == 2
        assert self._pool_of() == workers
        assert set(stream_units(_pid, iter(self.UNITS), workers=2)) <= workers
        assert _children() == workers

    def test_clear_caches_retires_the_pool(self):
        first = self._pool_of()
        clear_caches()
        assert multiprocessing.active_children() == []
        assert self._pids().isdisjoint(first)

    def test_other_worker_count_retires_the_pool(self):
        first = self._pool_of(workers=2)
        assert self._pool_of(workers=3).isdisjoint(first)
        assert len(_children()) == 3

    def test_closing_the_pool_plane_retires_it(self):
        plane = SharedNetworkPlane(seed=1)
        if not plane.publish(("line", 4), make_line_network(4, 100.0)):
            pytest.skip("shared-memory plane unavailable")
        try:
            first = self._pool_of(plane=plane)
            assert self._pool_of(plane=plane) == first
            # Another plane leaves this pool alone.
            SharedNetworkPlane(seed=2).close()
            assert _children() == first
        finally:
            plane.close()
        assert multiprocessing.active_children() == []
        assert self._pids(plane=plane).isdisjoint(first)

    def test_new_publication_retires_the_pool(self):
        plane = SharedNetworkPlane(seed=3)
        try:
            if not plane.publish(("line", 4), make_line_network(4, 100.0)):
                pytest.skip("shared-memory plane unavailable")
            first = self._pool_of(plane=plane)
            plane.publish(("line", 5), make_line_network(5, 100.0))
            assert self._pids(plane=plane).isdisjoint(first)
        finally:
            plane.close()

    def test_retire_joins_every_worker(self):
        self._pids()
        retire_pool()
        assert multiprocessing.active_children() == []
        retire_pool()  # idempotent

    def test_abandoned_stream_cancels_queued_units(self, tmp_path):
        log = tmp_path / "ran.txt"
        stream = stream_units(
            _slow_logged, ((str(log), i) for i in range(20)), workers=2, window=8
        )
        assert next(stream) == 0
        stream.close()
        args = [(1, 2), (3, 4)]
        assert run_units(_unit, args, workers=2) == [_unit(*a) for a in args]
        retire_pool()
        ran = log.read_text(encoding="ascii").split()
        # Eight were submitted; those still queued when the stream was
        # dropped never ran.
        assert len(ran) < 8

    def test_broken_pool_is_replaced(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            run_units(_die, self.UNITS, workers=2)
        args = [(1, 2), (3, 4)]
        assert run_units(_unit, args, workers=2) == [_unit(*a) for a in args]

    def test_exit_without_retire_joins_workers(self):
        script = textwrap.dedent(
            """
            import multiprocessing, os
            from repro.perf.parallel import run_units
            run_units(abs, [(-1,), (-2,), (-3,)], workers=2)
            print(" ".join(str(c.pid) for c in multiprocessing.active_children()))
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def test_consecutive_sweeps_build_each_deployment_once_per_worker():
    """Two ``run_cells`` calls over one deployment fork one pool, so each
    worker builds the deployment once: two adjacency builds, not four."""
    config = PaperConfig(node_count=200, master_seed=424242)
    before = GLOBAL_COUNTERS.snapshot()
    for _ in range(2):
        per_cell = run_cells(
            _deployment_unit, [config], range(8), lambda c, a: (c, a), workers=2
        )
        assert per_cell == [[200] * 8]
    built = GLOBAL_COUNTERS.delta_since(before).get("vector.adjacency.batches", 0.0)
    assert 1 <= built <= 2
