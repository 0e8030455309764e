"""Greedy geographic forwarding primitives shared by all protocols.

Each rule scans the node's neighbor table (locations read through the
view, so a beacon-fed view answers from what it heard) in
``neighbor_ids`` order; among equal distances the first neighbor wins.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.geometry import Point, distance
from repro.routing.base import NodeView

#: Strictness slack for progress comparisons: a neighbor must beat the
#: current node's distance by more than this to count as progress, so
#: floating-point ties can never produce a forwarding loop.
PROGRESS_EPSILON = 1e-9


def total_distance(origin: Point, targets: Iterable[Point]) -> float:
    """Sum of Euclidean distances from ``origin`` to each target.

    Summed left to right with ``+=``, so every total GMP compares has one
    summation order on every CPython (``sum`` of floats is compensated
    from 3.12 on).
    """
    total = 0.0
    for target in targets:
        total += distance(origin, target)
    return total


def closest_neighbor_to(view: NodeView, target: Point) -> Optional[int]:
    """The neighbor nearest to ``target`` (no progress constraint)."""
    ids = view.neighbor_ids
    if not ids:
        return None
    tx, ty = target[0], target[1]
    best = 0
    best_sq = math.inf
    for index, (x, y) in enumerate(view.neighbor_location_array().tolist()):
        dx = x - tx
        dy = y - ty
        dist_sq = dx * dx + dy * dy
        if dist_sq < best_sq:
            best, best_sq = index, dist_sq
    return ids[best]


def greedy_next_hop(view: NodeView, target: Point) -> Optional[int]:
    """Greedy geographic unicast step toward ``target``.

    Returns the neighbor closest to ``target`` among those *strictly* closer
    to it than the current node, or ``None`` at a local minimum (void).
    """
    ids = view.neighbor_ids
    if not ids:
        return None
    tx, ty = target[0], target[1]
    best = 0
    best_dist = math.inf
    for index, (x, y) in enumerate(view.neighbor_location_array().tolist()):
        dx = x - tx
        dy = y - ty
        dist = math.sqrt(dx * dx + dy * dy)
        if dist < best_dist:
            best, best_dist = index, dist
    if best_dist < distance(view.location, target) - PROGRESS_EPSILON:
        return ids[best]
    return None


def best_neighbor_for_group(
    view: NodeView,
    pivot_location: Point,
    group_locations: Sequence[Point],
) -> Optional[int]:
    """GMP's next-hop rule (paper Figure 7, step 4).

    The neighbor nearest to the pivot, among neighbors whose *total*
    distance to the group's destinations is strictly smaller than the
    current node's — the strict decrease is what rules out routing loops.
    A neighbor no nearer the pivot than the best so far cannot win, so its
    total is never summed.
    """
    ids = view.neighbor_ids
    threshold = total_distance(view.location, group_locations) - PROGRESS_EPSILON
    px, py = pivot_location[0], pivot_location[1]
    best = None
    best_sq = math.inf
    for neighbor, (x, y) in zip(ids, view.neighbor_location_array().tolist()):
        dx = x - px
        dy = y - py
        dist_sq = dx * dx + dy * dy
        if dist_sq < best_sq and total_distance(Point(x, y), group_locations) < threshold:
            best, best_sq = neighbor, dist_sq
    return best
