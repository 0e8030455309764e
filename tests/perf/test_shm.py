"""The zero-copy shared-memory network plane (repro.perf.shm).

Pins the plane's four contracts: byte-identical results attach-vs-rebuild,
the A/B switch, copy-on-write isolation of worker-local mutation, and
guaranteed segment cleanup (including stale-name reclaim and a worker
killed mid-run).
"""

from __future__ import annotations

import glob
import os
import signal

import multiprocessing
import numpy as np
import pytest

from repro.engine.digest import batch_digest
from repro.geometry import Point
from repro.experiments import sweep as sweep_mod
from repro.experiments.config import PaperConfig
from repro.experiments.sweep import build_protocol, cached_network, make_network, run_tasks
from repro.perf import shm
from repro.perf.shm import (
    SharedNetworkPlane,
    attach_manifest,
    attached_network,
    install_worker_manifests,
    peak_published_bytes,
    shared_plane_disabled,
    shared_plane_enabled,
)
from repro.sessions.workload import MulticastTask

CONFIG = PaperConfig(node_count=250)

TASKS = (
    MulticastTask(task_id=0, source_id=3, destination_ids=(10, 40, 77, 121)),
    MulticastTask(task_id=1, source_id=200, destination_ids=(5, 99)),
)


def _dev_shm_planes():
    return sorted(glob.glob("/dev/shm/*gmp-plane-*"))


@pytest.fixture(autouse=True)
def _clean_worker_state():
    """Isolate the module-level worker caches and the network memo."""
    saved_manifests = dict(shm._WORKER_MANIFESTS)
    saved_memo = dict(sweep_mod._NETWORK_MEMO)
    shm._WORKER_MANIFESTS.clear()
    sweep_mod._NETWORK_MEMO.clear()
    yield
    shm._WORKER_MANIFESTS.clear()
    shm._WORKER_MANIFESTS.update(saved_manifests)
    for segment in shm._ATTACHED_SEGMENTS.values():
        try:
            segment.close()
        except BufferError:
            pass
    shm._ATTACHED_SEGMENTS.clear()
    sweep_mod._NETWORK_MEMO.clear()
    sweep_mod._NETWORK_MEMO.update(saved_memo)


def _published_plane():
    """A plane holding CONFIG's deployment, plus the (still fresh) network."""
    network = make_network(CONFIG, 0)
    plane = SharedNetworkPlane(seed=CONFIG.master_seed)
    assert plane.publish((CONFIG, 0, None), network)
    return plane, network


class TestPublishAttachParity:
    def test_attached_equals_fresh_build(self):
        plane, _ = _published_plane()
        try:
            manifest = plane.manifests()[(CONFIG, 0, None)]
            attached = attach_manifest(manifest)
            fresh = make_network(CONFIG, 0)
            assert attached is not None
            assert attached.node_count == fresh.node_count == 250
            for node_id in (0, 17, 128, 249):
                assert attached.neighbors_of(node_id) == fresh.neighbors_of(node_id)
                assert attached.gabriel_neighbors_of(
                    node_id
                ) == fresh.gabriel_neighbors_of(node_id)
                assert attached.location_of(node_id) == fresh.location_of(node_id)
        finally:
            plane.close()

    def test_task_digests_identical_attach_vs_build(self):
        plane, _ = _published_plane()
        try:
            attached = attach_manifest(plane.manifests()[(CONFIG, 0, None)])
            fresh = make_network(CONFIG, 0)
            digests = []
            for network in (attached, fresh):
                results = run_tasks(network, build_protocol(("GMP",)), TASKS)
                digests.append(batch_digest(results))
            assert digests[0] == digests[1]
        finally:
            plane.close()

    def test_attach_is_zero_copy(self):
        plane, _ = _published_plane()
        try:
            attached = attach_manifest(plane.manifests()[(CONFIG, 0, None)])
            assert not attached.locations.flags.writeable
            assert attached.locations.base is not None
            assert not attached.alive.flags.writeable
        finally:
            plane.close()

    def test_publish_is_idempotent_per_key(self):
        plane, network = _published_plane()
        try:
            before = plane.published_bytes()
            assert plane.publish((CONFIG, 0, None), network)
            assert plane.published_bytes() == before
            assert len(plane.manifests()) == 1
        finally:
            plane.close()

    def test_peak_published_bytes_high_water_mark(self):
        baseline = peak_published_bytes()
        plane, _ = _published_plane()
        try:
            assert plane.published_bytes() > 0
            assert peak_published_bytes() >= max(baseline, plane.published_bytes())
        finally:
            plane.close()
        assert peak_published_bytes() >= plane.published_bytes()  # peak persists


class TestCopyOnWrite:
    def test_mutation_stays_worker_local(self):
        plane, _ = _published_plane()
        try:
            manifest = plane.manifests()[(CONFIG, 0, None)]
            first = attach_manifest(manifest)
            victim = first.neighbors_of(0)[0]
            first.fail_node(victim)
            first.drain_energy(victim, 0.25)
            second = attach_manifest(manifest)
            fresh = make_network(CONFIG, 0)
            assert victim not in second.failed_nodes
            assert second.neighbors_of(victim) == fresh.neighbors_of(victim)
            assert victim in first.failed_nodes
            assert bool(second.alive[victim])
            assert not bool(first.alive[victim])
        finally:
            plane.close()

    def test_mutated_attached_equals_mutated_fresh(self):
        plane, _ = _published_plane()
        try:
            attached = attach_manifest(plane.manifests()[(CONFIG, 0, None)])
            fresh = make_network(CONFIG, 0)
            for network in (attached, fresh):
                network.fail_node(42)
                network.move_node(7, Point(80.0, 60.0))
            for node_id in (0, 7, 41, 43, 120):
                assert attached.neighbors_of(node_id) == fresh.neighbors_of(node_id)
            assert attached.location_of(7) == fresh.location_of(7)
        finally:
            plane.close()

    def test_segment_bytes_untouched_by_mutation(self):
        plane, _ = _published_plane()
        try:
            manifest = plane.manifests()[(CONFIG, 0, None)]
            segment = shm._attach_segment(manifest.segment)
            before = bytes(segment.buf)
            attached = attach_manifest(manifest)
            attached.fail_node(11)
            attached.move_node(12, Point(10.0, 10.0))
            attached.drain_energy(13, 0.5)
            assert bytes(segment.buf) == before
        finally:
            plane.close()


class TestDegradedPaths:
    def test_disabled_switch_refuses_publish_and_attach(self):
        network = make_network(CONFIG, 0)
        plane = SharedNetworkPlane(seed=CONFIG.master_seed)
        try:
            with shared_plane_disabled():
                assert not shared_plane_enabled()
                assert not plane.publish((CONFIG, 0, None), network)
                assert attached_network((CONFIG, 0, None)) is None
            assert shared_plane_enabled()
        finally:
            plane.close()

    def test_locally_mutated_network_declines_publish(self):
        network = make_network(CONFIG, 0)
        network.fail_node(5)
        plane = SharedNetworkPlane(seed=CONFIG.master_seed)
        try:
            assert network.shared_state_arrays() is None
            assert not plane.publish((CONFIG, 0, None), network)
        finally:
            plane.close()

    def test_shm_unavailable_falls_back_to_rebuild(self, monkeypatch):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        network = make_network(CONFIG, 0)
        plane = SharedNetworkPlane(seed=CONFIG.master_seed)
        try:
            assert not plane.publish((CONFIG, 0, None), network)
            rebuilt = cached_network(CONFIG, 0)
            results = run_tasks(rebuilt, build_protocol(("GMP",)), TASKS)
            baseline = run_tasks(network, build_protocol(("GMP",)), TASKS)
            assert batch_digest(results) == batch_digest(baseline)
        finally:
            plane.close()

    def test_missing_segment_falls_back_to_rebuild(self):
        plane, _ = _published_plane()
        install_worker_manifests(plane.manifests())
        plane.close()  # the segment is gone, the manifest still installed
        assert attached_network((CONFIG, 0, None)) is None
        rebuilt = cached_network(CONFIG, 0)
        fresh = make_network(CONFIG, 0)
        digest = batch_digest(run_tasks(rebuilt, build_protocol(("GMP",)), TASKS))
        assert digest == batch_digest(
            run_tasks(fresh, build_protocol(("GMP",)), TASKS)
        )

    def test_cached_network_attaches_from_installed_manifests(self):
        plane, _ = _published_plane()
        try:
            install_worker_manifests(plane.manifests())
            counter = shm.GLOBAL_COUNTERS.counter("network.shm_attach")
            hits_before = counter.hits
            network = cached_network(CONFIG, 0)
            assert counter.hits == hits_before + 1
            assert not network.locations.flags.writeable  # a mapped view
            assert cached_network(CONFIG, 0) is network  # memo hit, no re-attach
            assert counter.hits == hits_before + 1
        finally:
            plane.close()


class TestCleanup:
    def test_close_removes_dev_shm_entries(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        plane, _ = _published_plane()
        name = plane.manifests()[(CONFIG, 0, None)].segment
        assert any(name in path for path in _dev_shm_planes())
        plane.close()
        assert not any(name in path for path in _dev_shm_planes())
        plane.close()  # idempotent

    def test_stale_segment_is_reclaimed(self):
        from multiprocessing import shared_memory

        network = make_network(CONFIG, 0)
        plane = SharedNetworkPlane(seed=CONFIG.master_seed)
        stale = shared_memory.SharedMemory(
            name=plane.segment_name(0), create=True, size=64
        )
        stale.close()  # leaked name, as if a predecessor died mid-run
        try:
            assert plane.publish((CONFIG, 0, None), network)
            assert plane.manifests()[(CONFIG, 0, None)].nbytes > 64
        finally:
            plane.close()

    def test_killed_attacher_leaves_no_leak(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        plane, _ = _published_plane()
        name = plane.manifests()[(CONFIG, 0, None)].segment
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_attach_and_die, args=(name,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL
        plane.close()
        assert not any(name in path for path in _dev_shm_planes())

    def test_publish_on_closed_plane_raises(self):
        plane = SharedNetworkPlane(seed=CONFIG.master_seed)
        plane.close()
        with pytest.raises(ValueError):
            plane.publish((CONFIG, 0, None), make_network(CONFIG, 0))

    def test_context_manager_closes(self):
        with SharedNetworkPlane(seed=CONFIG.master_seed) as plane:
            assert plane.publish((CONFIG, 0, None), make_network(CONFIG, 0))
            name = plane.manifests()[(CONFIG, 0, None)].segment
        assert not any(name in path for path in _dev_shm_planes())

    def test_deterministic_segment_names(self):
        plane = SharedNetworkPlane(seed=123)
        try:
            assert plane.segment_name(0) == (
                f"gmp-plane-123-{plane._plane_index}-0"
            )
        finally:
            plane.close()


def _attach_and_die(name):
    """Child half of the killed-worker test: attach, then die uncleanly."""
    segment = shm._attach_segment(name)
    assert segment is not None
    os.kill(os.getpid(), signal.SIGKILL)
