"""PBM picks the same pool, subset and groups as its one-subset-at-a-time form.

``pbm_oracle`` keeps the search as it was before every subset of a pool was
scored in one NumPy pass.  Over seeded matrices built to tie (integer
distances, duplicated and all-equal rows), across lambdas, pool sizes up to
and past the exact limit, and hops with no admissible subset, every pick
must match it exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.routing.greedy import PROGRESS_EPSILON
from repro.routing.pbm import PBMProtocol
from tests.routing.pbm_oracle import (
    oracle_assign,
    oracle_candidate_pool,
    oracle_select_subset,
)

LAMBDAS = (0.0, 0.3, 0.6, 1.0)
CASES = 2400
#: The oracle spends one score call per mask, so exact searches over more
#: than 10 members share this many masks; the pools of 13 and 14 among them
#: cross the 2^12-mask block boundary.
LARGE_EXACT_MASKS = 3 * 2**14


def _matrix(rng: np.random.Generator):
    """A (neighbors x destinations) distance matrix and own distances, with
    the ties and degeneracies the search branches on."""
    neighbors = int(rng.integers(1, 26))
    columns = int(rng.integers(1, 13))
    shape = int(rng.integers(0, 5))
    if shape == 0:  # Small integers: equal minima and exactly tied f.
        dist = rng.integers(0, 6, size=(neighbors, columns)).astype(float)
        own = rng.integers(1, 8, size=columns).astype(float)
    elif shape == 1:  # All rows equal.
        dist = np.tile(rng.integers(0, 5, size=columns).astype(float), (neighbors, 1))
        own = rng.integers(1, 7, size=columns).astype(float)
    else:
        dist = rng.uniform(50.0, 400.0, size=(neighbors, columns))
        if shape == 2:
            dist = np.round(dist / 25.0) * 25.0
        own = rng.uniform(150.0, 400.0, size=columns)
    if shape == 3 and neighbors > 1:  # Duplicated rows.
        copies = rng.integers(0, neighbors, size=neighbors // 2)
        dist[rng.integers(0, neighbors, size=copies.size)] = dist[copies]
    if rng.random() < 0.15:  # Push one column out of reach: no admissible
        dist[:, int(rng.integers(0, columns))] = own.max() + 1.0  # subset.
    return dist, own


def _protocol(rng: np.random.Generator) -> PBMProtocol:
    return PBMProtocol(
        lam=float(rng.choice(LAMBDAS)),
        candidates_per_destination=int(rng.integers(1, 5)),
        exact_pool_limit=int(rng.choice([1, 3, 10, 14])),
    )


def _check(protocol: PBMProtocol, dist, own, neighbor_count: int, pool):
    subset = protocol._select_subset(dist, own, pool, neighbor_count)
    expected = oracle_select_subset(
        dist, own, pool, neighbor_count, protocol.lam, protocol.exact_pool_limit
    )
    assert subset == expected
    assert all(type(m) is int for m in subset)
    assert protocol._assign(dist, subset) == oracle_assign(dist, subset)
    return subset


def test_matches_oracle_on_seeded_matrices():
    rng = np.random.default_rng(20061)
    fallbacks = descents = crossing = 0
    large_masks = 0
    for _ in range(CASES):
        protocol = _protocol(rng)
        dist, own = _matrix(rng)
        neighbor_count = dist.shape[0] + int(rng.choice([0, 0, 3, 40]))
        pool = oracle_candidate_pool(dist, own, protocol.candidates_per_destination)
        assert protocol._candidate_pool(dist, own) == pool
        if rng.random() < 0.5:  # Any pool, up to the whole neighborhood.
            size = int(rng.integers(1, min(dist.shape[0], 16) + 1))
            pool = rng.permutation(dist.shape[0])[:size].tolist()
        exact = len(pool) <= protocol.exact_pool_limit
        if exact and len(pool) > 10:
            if large_masks + 2 ** len(pool) > LARGE_EXACT_MASKS:
                continue
            large_masks += 2 ** len(pool)
            crossing += len(pool) > 12
        subset = _check(protocol, dist, own, neighbor_count, pool)
        if not exact:
            descents += 1
        elif not (dist[subset].min(axis=0) < own - PROGRESS_EPSILON).all():
            fallbacks += 1  # Exact search found nothing admissible.
    assert fallbacks > 20 and descents > 100 and crossing >= 2


def test_near_tie_within_1e_15_goes_to_fewer_members():
    # {P, Q} reaches the column minima 0.1 and 0.2, X alone 0.1 and the next
    # float but two above 0.2: the sums differ in the last bit only, so the
    # later, smaller subset {X} displaces {P, Q}.
    dist = np.array([[0.1, 9.0], [9.0, 0.2], [0.1, 0.2000000000000001]])
    own = np.array([1.0, 1.0])
    assert dist[2].sum() != dist[:2].min(axis=0).sum()
    protocol = PBMProtocol(lam=0.0)
    assert _check(protocol, dist, own, 3, [0, 1, 2]) == [2]


def test_pool_spanning_several_blocks_matches_oracle():
    # 16 members put four high-bit values over the 2^12-mask low table.
    rng = np.random.default_rng(7)
    dist = rng.integers(0, 9, size=(16, 6)).astype(float)
    dist[8:12] = dist[:4]
    own = np.full(6, 9.0)
    protocol = PBMProtocol(lam=0.3, exact_pool_limit=16)
    _check(protocol, dist, own, 16, list(range(16)))


@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_pool_of_twenty_stays_within_memory_bound(lam):
    rng = np.random.default_rng(11)
    dist = rng.uniform(50.0, 300.0, size=(20, 12))
    own = np.full(12, 320.0)
    protocol = PBMProtocol(lam=lam, exact_pool_limit=20)
    tracemalloc.start()
    try:
        subset = protocol._select_subset(dist, own, list(range(20)), 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert subset and len(set(subset)) == len(subset)
    assert (dist[subset].min(axis=0) < own - PROGRESS_EPSILON).all()
