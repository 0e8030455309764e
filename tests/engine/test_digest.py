"""Tests for the canonical task-result digests."""

import dataclasses

import numpy as np

from repro.engine import EngineConfig, batch_digest, run_task, task_digest
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.routing import GMPProtocol


def _network(seed=19, count=200):
    rng = np.random.default_rng(seed)
    points = uniform_random_topology(count, 1000.0, 1000.0, rng)
    return build_network(points, RadioConfig())


class TestTaskDigest:
    def test_stable_across_reruns(self):
        network = _network()
        cfg = EngineConfig(collect_traces=True)
        first = run_task(network, GMPProtocol(), 0, [40, 90, 150], config=cfg)
        second = run_task(network, GMPProtocol(), 0, [40, 90, 150], config=cfg)
        assert task_digest(first) == task_digest(second)

    def test_differs_for_different_tasks(self):
        network = _network()
        a = run_task(network, GMPProtocol(), 0, [40, 90, 150])
        b = run_task(network, GMPProtocol(), 0, [41, 90, 150])
        assert task_digest(a) != task_digest(b)

    def test_trace_contributes(self):
        network = _network()
        traced = run_task(
            network, GMPProtocol(), 0, [40, 90, 150],
            config=EngineConfig(collect_traces=True),
        )
        untraced = run_task(network, GMPProtocol(), 0, [40, 90, 150])
        assert task_digest(traced) != task_digest(untraced)

    def test_perf_instrumentation_excluded(self):
        network = _network()
        instrumented = run_task(
            network, GMPProtocol(), 0, [40, 90, 150],
            config=EngineConfig(transmission_model="contended"),
        )
        plain = dataclasses.replace(instrumented, perf=None)
        assert instrumented.perf is not None
        assert task_digest(plain) == task_digest(instrumented)


class TestBatchDigest:
    def test_order_sensitive(self):
        network = _network()
        a = run_task(network, GMPProtocol(), 0, [40, 90, 150], task_id=1)
        b = run_task(network, GMPProtocol(), 5, [60, 120, 180], task_id=2)
        assert batch_digest([a, b]) != batch_digest([b, a])
        assert batch_digest([a, b]) == batch_digest([a, b])


class TestDigestFieldPolicy:
    """The policy tables must classify exactly the fields that exist.

    reprolint R014 checks this statically; this is the runtime half of the
    same contract — adding a record field without declaring its digest fate
    fails here even when the linter is not run.
    """

    RECORDS = {
        "TaskResult": "repro.engine.stats",
        "ResultSummary": "repro.engine.stats",
        "TaskTrace": "repro.engine.trace",
        "FrameRecord": "repro.engine.trace",
        "CopyRecord": "repro.engine.trace",
    }

    def _actual_fields(self, class_name):
        import dataclasses
        import importlib

        cls = getattr(importlib.import_module(self.RECORDS[class_name]), class_name)
        return {f.name for f in dataclasses.fields(cls)}

    def test_every_field_is_classified_exactly_once(self):
        from repro.engine.digest import (
            DIGEST_EXCLUDED_FIELDS,
            DIGEST_INCLUDED_FIELDS,
        )

        for class_name in self.RECORDS:
            included = set(DIGEST_INCLUDED_FIELDS.get(class_name, ()))
            excluded = set(DIGEST_EXCLUDED_FIELDS.get(class_name, ()))
            assert not included & excluded, f"{class_name}: fields in both tables"
            assert included | excluded == self._actual_fields(class_name), (
                f"{class_name}: policy tables out of sync with the dataclass"
            )

    def test_policy_tables_cover_no_unknown_records(self):
        from repro.engine.digest import (
            DIGEST_EXCLUDED_FIELDS,
            DIGEST_INCLUDED_FIELDS,
        )

        known = set(self.RECORDS)
        assert set(DIGEST_INCLUDED_FIELDS) <= known
        assert set(DIGEST_EXCLUDED_FIELDS) <= known
