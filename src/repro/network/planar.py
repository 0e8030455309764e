"""Local planarization: Gabriel and Relative Neighborhood graphs.

Perimeter-mode forwarding (paper Section 4.1) applies the right-hand rule on
a planarized subgraph of the unit-disk graph; both the Gabriel graph [Gabriel
& Sokal 1969] and the RNG [Toussaint 1980] can be computed by each node from
nothing but its own neighbor table, which is why GPSR-family protocols use
them.  Both constructions keep the network connected whenever the unit-disk
graph is connected.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.geometry import Point, distance_sq, midpoint
from repro.perf.kernels import MIN_BATCH, gabriel_keep_mask, rng_keep_mask


def _neighbor_coords(
    neighbor_ids: Sequence[int], location_of: Callable[[int], Point]
) -> np.ndarray:
    return np.array([location_of(v) for v in neighbor_ids], dtype=float)


def gabriel_neighbors(
    node_id: int,
    neighbor_ids: Sequence[int],
    location_of: Callable[[int], Point],
) -> Tuple[int, ...]:
    """Subset of ``neighbor_ids`` kept by the Gabriel-graph criterion.

    Edge ``uv`` survives iff no *witness* node lies strictly inside the
    circle having ``uv`` as diameter.  Witnesses are drawn from ``u``'s own
    neighbor table: any node inside that circle is within ``d(u, v) <= rr``
    of ``u``, hence necessarily a neighbor of ``u`` — so the local check is
    exact, not an approximation.
    """
    u = location_of(node_id)
    if len(neighbor_ids) >= MIN_BATCH:
        mask = gabriel_keep_mask(u, _neighbor_coords(neighbor_ids, location_of))
        return tuple(v for v, keep in zip(neighbor_ids, mask) if keep)
    kept: List[int] = []
    for v_id in neighbor_ids:
        v = location_of(v_id)
        center = midpoint(u, v)
        radius_sq = distance_sq(u, v) / 4.0
        witnessed = False
        for w_id in neighbor_ids:
            if w_id == v_id:
                continue
            if distance_sq(location_of(w_id), center) < radius_sq - 1e-12:
                witnessed = True
                break
        if not witnessed:
            kept.append(v_id)
    return tuple(kept)


def rng_neighbors(
    node_id: int,
    neighbor_ids: Sequence[int],
    location_of: Callable[[int], Point],
) -> Tuple[int, ...]:
    """Subset of ``neighbor_ids`` kept by the Relative-Neighborhood criterion.

    Edge ``uv`` survives iff no witness ``w`` satisfies
    ``max(d(u,w), d(v,w)) < d(u,v)`` (the "lune" test).  As with the Gabriel
    graph, every potential witness is within ``d(u,v)`` of ``u`` and thus in
    ``u``'s neighbor table, so the local computation is exact.
    """
    u = location_of(node_id)
    if len(neighbor_ids) >= MIN_BATCH:
        mask = rng_keep_mask(u, _neighbor_coords(neighbor_ids, location_of))
        return tuple(v for v, keep in zip(neighbor_ids, mask) if keep)
    kept: List[int] = []
    for v_id in neighbor_ids:
        v = location_of(v_id)
        uv_sq = distance_sq(u, v)
        witnessed = False
        for w_id in neighbor_ids:
            if w_id == v_id:
                continue
            w = location_of(w_id)
            if (
                distance_sq(u, w) < uv_sq - 1e-12
                and distance_sq(v, w) < uv_sq - 1e-12
            ):
                witnessed = True
                break
        if not witnessed:
            kept.append(v_id)
    return tuple(kept)
