"""Greedy geographic forwarding primitives shared by all protocols."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.geometry import Point, distance
from repro.perf import kernels
from repro.routing.base import NodeView

#: Strictness slack for progress comparisons: a neighbor must beat the
#: current node's distance by more than this to count as progress, so
#: floating-point ties can never produce a forwarding loop.
PROGRESS_EPSILON = 1e-9


def total_distance(origin: Point, targets: Iterable[Point]) -> float:
    """Sum of Euclidean distances from ``origin`` to each target."""
    return sum(distance(origin, t) for t in targets)


def closest_neighbor_to(view: NodeView, target: Point) -> Optional[int]:
    """The neighbor nearest to ``target`` (no progress constraint)."""
    ids = view.neighbor_ids
    if not ids:
        return None
    return ids[kernels.nearest_index(view.neighbor_location_array(), target)]


def greedy_next_hop(view: NodeView, target: Point) -> Optional[int]:
    """Greedy geographic unicast step toward ``target``.

    Returns the neighbor closest to ``target`` among those *strictly* closer
    to it than the current node, or ``None`` at a local minimum (void).
    """
    ids = view.neighbor_ids
    if not ids:
        return None
    dists = np.sqrt(kernels.distances_sq_to(view.neighbor_location_array(), target))
    own = distance(view.location, target)
    best_idx = int(np.argmin(dists))
    if dists[best_idx] < own - PROGRESS_EPSILON:
        return ids[best_idx]
    return None


def group_distance_sums(view: NodeView, group_locations: Sequence[Point]) -> np.ndarray:
    """Per-neighbor sums of distances to every location in the group.

    Vectorized backbone of GMP/PBM next-hop selection: entry ``i`` is
    ``sum_z d(neighbor_i, z)`` aligned with ``view.neighbor_ids``.
    """
    return kernels.group_distance_sums(view.neighbor_location_array(), group_locations)


def best_neighbor_for_group(
    view: NodeView,
    pivot_location: Point,
    group_locations: Sequence[Point],
) -> Optional[int]:
    """GMP's next-hop rule (paper Figure 7, step 4).

    The neighbor nearest to the pivot, among neighbors whose *total*
    distance to the group's destinations is strictly smaller than the
    current node's — the strict decrease is what rules out routing loops.
    """
    ids = view.neighbor_ids
    if not ids:
        return None
    sums = group_distance_sums(view, group_locations)
    threshold = total_distance(view.location, group_locations)
    eligible = np.flatnonzero(sums < threshold - PROGRESS_EPSILON)
    if eligible.size == 0:
        return None
    locations = view.neighbor_location_array()[eligible]
    pivot_dists = kernels.distances_sq_to(locations, pivot_location)
    return ids[int(eligible[int(np.argmin(pivot_dists))])]
