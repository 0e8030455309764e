"""The scalar next-hop rules pick the neighbor the NumPy formulas picked.

Greedy, closest-neighbor and GMP's group rule used to run as NumPy kernels
(``einsum`` squared distances, ``sqrt(...).sum(axis=1)`` group totals).
Those formulas are kept here as the reference: on 10,000 seeded random
neighborhoods, with collocated neighbors and exactly equidistant ties, the
scalar loops in :mod:`repro.routing.greedy` must choose the same neighbor
(or the same ``None``) every time.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, distance
from repro.routing.greedy import (
    PROGRESS_EPSILON,
    best_neighbor_for_group,
    closest_neighbor_to,
    greedy_next_hop,
)

NEIGHBORHOODS = 10_000


class _View:
    """The three view members the next-hop rules read."""

    def __init__(self, location: Point, neighbors: Sequence[Point]) -> None:
        self.location = location
        self.neighbor_ids = tuple(range(100, 100 + len(neighbors)))
        self._array = np.array([[p.x, p.y] for p in neighbors], dtype=float)

    def neighbor_location_array(self) -> np.ndarray:
        return self._array


def _squared(locations: np.ndarray, target: Point) -> np.ndarray:
    deltas = locations - np.asarray([target[0], target[1]])
    return np.einsum("ij,ij->i", deltas, deltas)


def _reference_closest(view: _View, target: Point) -> Optional[int]:
    if not view.neighbor_ids:
        return None
    return view.neighbor_ids[int(np.argmin(_squared(view._array, target)))]


def _reference_greedy(view: _View, target: Point) -> Optional[int]:
    if not view.neighbor_ids:
        return None
    dists = np.sqrt(_squared(view._array, target))
    best = int(np.argmin(dists))
    if dists[best] < distance(view.location, target) - PROGRESS_EPSILON:
        return view.neighbor_ids[best]
    return None


def _reference_group(view: _View, pivot: Point, group: Sequence[Point]) -> Optional[int]:
    if not view.neighbor_ids:
        return None
    targets = np.asarray([[p[0], p[1]] for p in group])
    diff = view._array[:, None, :] - targets[None, :, :]
    sums = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=1)
    threshold = sum(distance(view.location, p) for p in group)
    eligible = np.flatnonzero(sums < threshold - PROGRESS_EPSILON)
    if eligible.size == 0:
        return None
    pivot_sq = _squared(view._array[eligible], pivot)
    return view.neighbor_ids[int(eligible[int(np.argmin(pivot_sq))])]


def _neighborhood(rng: random.Random) -> Tuple[Point, List[Point], Point, List[Point]]:
    """A node, its 1-30 neighbors, a target and a 1-40 destination group.

    Every fourth neighborhood lives on a small integer lattice, where
    collocated neighbors and exactly equidistant ties are common; the
    others draw some neighbors as copies or mirror images of earlier ones
    and sometimes put the target or group members on a neighbor.
    """
    degree = rng.randint(1, 30)
    size = rng.randint(1, 40)
    if rng.random() < 0.25:
        def draw() -> Point:
            return Point(float(rng.randint(-3, 3)), float(rng.randint(-3, 3)))

        node = Point(0.0, 0.0)
        neighbors = [draw() for _ in range(degree)]
        return node, neighbors, draw(), [draw() for _ in range(size)]
    node = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
    neighbors: List[Point] = []
    for _ in range(degree):
        roll = rng.random()
        if neighbors and roll < 0.1:
            neighbors.append(rng.choice(neighbors))  # collocated
        elif neighbors and roll < 0.2:
            p = rng.choice(neighbors)  # mirror image through the node
            neighbors.append(Point(2.0 * node.x - p.x, 2.0 * node.y - p.y))
        else:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.0, 150.0)
            neighbors.append(Point(node.x + r * math.cos(theta), node.y + r * math.sin(theta)))

    def far() -> Point:
        if rng.random() < 0.15:
            return rng.choice(neighbors)
        return Point(rng.uniform(-500.0, 1500.0), rng.uniform(-500.0, 1500.0))

    target = node if rng.random() < 0.05 else far()
    return node, neighbors, target, [far() for _ in range(size)]


def test_scalar_rules_pick_the_numpy_formulas_neighbor():
    rng = random.Random(20061004)
    ties = 0
    group_picks = 0
    for _ in range(NEIGHBORHOODS):
        node, neighbors, target, group = _neighborhood(rng)
        view = _View(node, neighbors)
        squared = _squared(view._array, target)
        ties += int((squared == squared.min()).sum() > 1)
        assert closest_neighbor_to(view, target) == _reference_closest(view, target)
        assert greedy_next_hop(view, target) == _reference_greedy(view, target)
        pick = best_neighbor_for_group(view, target, group)
        assert pick == _reference_group(view, target, group)
        group_picks += pick is not None
    assert ties >= 1000
    assert group_picks >= 1000
