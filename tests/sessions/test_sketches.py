"""Property tests: sketches vs exact references, state round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.sessions.sketches import (
    GKQuantiles,
    MetricSketch,
    StreamStats,
    Welford,
    exact_quantile,
)

#: Seeded value streams the quantile properties are asserted over —
#: including the adversarial sorted/reversed orders that stress GK's
#: compression the hardest.
STREAMS = {
    "uniform": lambda rng: rng.uniform(0.0, 1.0, 5000),
    "exponential": lambda rng: rng.exponential(2.0, 5000),
    "heavy-tail": lambda rng: rng.pareto(1.5, 5000),
    "sorted": lambda rng: np.sort(rng.uniform(0.0, 1.0, 5000)),
    "reversed": lambda rng: np.sort(rng.uniform(0.0, 1.0, 5000))[::-1],
    "duplicates": lambda rng: rng.integers(0, 20, 5000).astype(float),
}


# ----------------------------------------------------------------------
# Welford
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_welford_matches_two_pass_reference(name):
    values = STREAMS[name](np.random.default_rng(17))
    acc = Welford()
    for value in values:
        acc.update(float(value))
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(float(np.mean(values)), rel=1e-10)
    assert acc.variance == pytest.approx(float(np.var(values, ddof=1)), rel=1e-9)
    assert acc.min_value == float(np.min(values))
    assert acc.max_value == float(np.max(values))


def test_welford_merge_matches_single_accumulator():
    values = STREAMS["exponential"](np.random.default_rng(5))
    whole = Welford()
    for value in values:
        whole.update(float(value))
    left, right = Welford(), Welford()
    for value in values[:1234]:
        left.update(float(value))
    for value in values[1234:]:
        right.update(float(value))
    left.merge(right)
    assert left.count == whole.count
    assert left.mean == pytest.approx(whole.mean, rel=1e-12)
    assert left.variance == pytest.approx(whole.variance, rel=1e-9)


def test_welford_state_round_trip_is_exact():
    acc = Welford()
    for value in STREAMS["heavy-tail"](np.random.default_rng(23))[:100]:
        acc.update(float(value))
    restored = Welford.from_state(json.loads(json.dumps(acc.state())))
    for value in (0.5, 10.0, -3.25):
        acc.update(value)
        restored.update(value)
    assert restored.state() == acc.state()


# ----------------------------------------------------------------------
# Greenwald-Khanna
# ----------------------------------------------------------------------


def _rank_error(values, answer, quantile):
    """How many ranks the sketch's answer is from the target rank."""
    ordered = np.sort(values)
    target = math.ceil(quantile * len(ordered))
    # All positions where the answer occurs are acceptable ranks.
    positions = np.flatnonzero(ordered == answer) + 1
    return min(abs(int(p) - target) for p in positions)


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("epsilon", [0.05, 0.01])
def test_gk_rank_error_within_bound(name, epsilon):
    """GK Theorem 1: every query is within ``epsilon * n`` ranks of exact."""
    values = STREAMS[name](np.random.default_rng(41))
    sketch = GKQuantiles(epsilon)
    for value in values:
        sketch.update(float(value))
    for quantile in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        answer = sketch.query(quantile)
        assert answer in values
        assert _rank_error(values, answer, quantile) <= epsilon * len(values) + 1


def test_gk_tracks_numpy_percentile_closely():
    values = STREAMS["uniform"](np.random.default_rng(7))
    sketch = GKQuantiles(0.01)
    for value in values:
        sketch.update(float(value))
    for quantile in (0.5, 0.9, 0.99):
        exact = float(np.percentile(values, 100.0 * quantile))
        assert sketch.query(quantile) == pytest.approx(exact, abs=0.05)


def test_gk_space_is_sublinear():
    """Stored tuples must grow like log(n), not n."""
    rng = np.random.default_rng(3)
    sketch = GKQuantiles(0.01)
    sizes = {}
    for count in range(1, 50_001):
        sketch.update(float(rng.uniform()))
        if count in (5_000, 50_000):
            sizes[count] = len(sketch)
    assert sizes[50_000] < 2 * sizes[5_000]
    assert sizes[50_000] < 1200  # far below the 50k values folded in


def test_gk_extremes_are_exact():
    values = STREAMS["exponential"](np.random.default_rng(19))
    sketch = GKQuantiles(0.02)
    for value in values:
        sketch.update(float(value))
    assert sketch.query(0.0) == float(np.min(values))
    assert sketch.query(1.0) == float(np.max(values))


def test_gk_state_round_trip_continues_identically():
    rng = np.random.default_rng(29)
    values = rng.exponential(1.0, 2000)
    whole = GKQuantiles(0.01)
    for value in values:
        whole.update(float(value))
    half = GKQuantiles(0.01)
    for value in values[:777]:
        half.update(float(value))
    restored = GKQuantiles.from_state(json.loads(json.dumps(half.state())))
    for value in values[777:]:
        restored.update(float(value))
    assert restored.state() == whole.state()


def test_gk_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GKQuantiles(0.0)
    sketch = GKQuantiles(0.1)
    with pytest.raises(ValueError):
        sketch.query(0.5)  # empty
    sketch.update(1.0)
    with pytest.raises(ValueError):
        sketch.query(1.5)


# ----------------------------------------------------------------------
# StreamStats
# ----------------------------------------------------------------------


def _observe_many(stats, count, seed=47):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        requested = int(rng.integers(1, 10))
        delivered = int(rng.integers(0, requested + 1))
        stats.observe(
            latency_s=float(rng.exponential(0.01)),
            delivery_ratio=delivered / requested,
            energy_joules=float(rng.exponential(0.5)),
            tree_cost=float(rng.integers(1, 100)),
            delivered=delivered,
            requested=requested,
        )


def test_stream_stats_tallies_and_rows():
    stats = StreamStats(epsilon=0.02)
    _observe_many(stats, 500)
    assert stats.sessions == 500
    assert 0.0 < stats.aggregate_delivery_ratio < 1.0
    rows = stats.summary_rows()
    assert [row[0] for row in rows] == [
        "latency_s",
        "delivery_ratio",
        "energy_joules",
        "tree_cost",
    ]
    for _name, mean, std, p50, p90, p99 in rows:
        assert std >= 0.0
        assert p50 <= p90 <= p99
        assert mean > 0.0


def _observation_list(count, seed=3):
    rng = np.random.default_rng(seed)
    observations = []
    for _ in range(count):
        requested = int(rng.integers(1, 10))
        delivered = int(rng.integers(0, requested + 1))
        observations.append(
            dict(
                latency_s=float(rng.exponential(0.01)),
                delivery_ratio=delivered / requested,
                energy_joules=float(rng.exponential(0.5)),
                tree_cost=float(rng.integers(1, 100)),
                delivered=delivered,
                requested=requested,
            )
        )
    return observations


def test_stream_stats_state_round_trip_continues_identically():
    """Checkpoint mid-stream, restore through JSON, finish: state matches
    the uninterrupted fold exactly (the resume-identity building block)."""
    observations = _observation_list(400)
    whole = StreamStats(epsilon=0.02)
    for obs in observations:
        whole.observe(**obs)
    half = StreamStats(epsilon=0.02)
    for obs in observations[:150]:
        half.observe(**obs)
    restored = StreamStats.from_state(json.loads(json.dumps(half.state())))
    for obs in observations[150:]:
        restored.observe(**obs)
    assert restored.state() == whole.state()


def test_metric_sketch_state_round_trip():
    sketch = MetricSketch(epsilon=0.05)
    for value in np.random.default_rng(11).uniform(0, 1, 300):
        sketch.update(float(value))
    restored = MetricSketch.from_state(json.loads(json.dumps(sketch.state())))
    assert restored.state() == sketch.state()


def test_exact_quantile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile(values, 0.5) == 2.0
    assert exact_quantile(values, 1.0) == 4.0
    with pytest.raises(ValueError):
        exact_quantile([], 0.5)
