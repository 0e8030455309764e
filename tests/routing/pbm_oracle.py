"""Test-only oracle: PBM's pool, subset search and assignment, one subset at a time.

This is how ``repro.routing.pbm`` scored candidate subsets before the whole
subset lattice moved into one NumPy pass: one ``score`` call per subset in
mask order, the sequential 1e-15 tie rule, a greedy removal descent that
rescores each single-member removal, and a per-destination ``min`` over the
chosen subset.  Kept as the reference the vectorized search must match pick
for pick, ties included.

Not collected by pytest (no ``test_`` prefix); ``test_pbm_oracle.py`` drives
it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.greedy import PROGRESS_EPSILON


def oracle_candidate_pool(
    dist: np.ndarray, own_dist: np.ndarray, candidates_per_destination: int
) -> List[int]:
    """Nearest progress-making neighbors per destination, deduplicated."""
    pool: Dict[int, None] = {}
    for z in range(dist.shape[1]):
        order = np.argsort(dist[:, z], kind="stable")
        taken = 0
        for i in order:
            if dist[i, z] >= own_dist[z] - PROGRESS_EPSILON:
                break  # Sorted: nothing further makes progress either.
            pool.setdefault(int(i), None)
            taken += 1
            if taken >= candidates_per_destination:
                break
    return list(pool)


def oracle_select_subset(
    dist: np.ndarray,
    own_dist: np.ndarray,
    pool: Sequence[int],
    neighbor_count: int,
    lam: float,
    exact_pool_limit: int,
) -> List[int]:
    """Minimize f(W) over admissible subsets of the candidate pool."""
    own_total = float(own_dist.sum())

    def score(member_rows: np.ndarray) -> Tuple[bool, float]:
        mins = dist[member_rows].min(axis=0)
        valid = bool((mins < own_dist - PROGRESS_EPSILON).all())
        f = lam * len(member_rows) / neighbor_count + (1.0 - lam) * (
            float(mins.sum()) / own_total if own_total > 0 else 0.0
        )
        return valid, f

    if len(pool) <= exact_pool_limit:
        best: Optional[List[int]] = None
        best_score = float("inf")
        pool_list = list(pool)
        for mask in range(1, 1 << len(pool_list)):
            members = [pool_list[i] for i in range(len(pool_list)) if mask >> i & 1]
            valid, f = score(np.asarray(members))
            if valid and (
                f < best_score - 1e-15
                or (
                    abs(f - best_score) <= 1e-15
                    and best is not None
                    and len(members) < len(best)
                )
            ):
                best, best_score = members, f
        if best is not None:
            return best
        # Fall through to the always-valid per-destination-best subset.

    # Greedy removal descent from the per-destination-best subset.
    current = sorted({int(np.argmin(dist[:, z])) for z in range(dist.shape[1])})
    _, current_score = score(np.asarray(current))
    improved = True
    while improved and len(current) > 1:
        improved = False
        for member in list(current):
            candidate = [m for m in current if m != member]
            valid, f = score(np.asarray(candidate))
            if valid and f < current_score - 1e-15:
                current, current_score = candidate, f
                improved = True
                break
    return current


def oracle_assign(sub_dist: np.ndarray, subset: Sequence[int]) -> List[int]:
    """The subset member each destination column is assigned to: the closest,
    the first in subset order on a tie."""
    return [
        min(subset, key=lambda m: sub_dist[m, col])
        for col in range(sub_dist.shape[1])
    ]
