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

from repro.geometry import Point, distance_sq, midpoint


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
    located = [(v_id, location_of(v_id)) for v_id in neighbor_ids]
    kept: List[int] = []
    for v_id, v in located:
        cx, cy = midpoint(u, v)
        limit = distance_sq(u, v) / 4.0 - 1e-12
        for w_id, (wx, wy) in located:
            dx = wx - cx
            dy = wy - cy
            if w_id != v_id and dx * dx + dy * dy < limit:
                break
        else:
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
    located = [(v_id, location_of(v_id)) for v_id in neighbor_ids]
    from_u = [distance_sq(u, w) for _, w in located]
    kept: List[int] = []
    for v_id, v in located:
        limit = distance_sq(u, v) - 1e-12
        for (w_id, w), uw_sq in zip(located, from_u):
            if w_id != v_id and uw_sq < limit and distance_sq(v, w) < limit:
                break
        else:
            kept.append(v_id)
    return tuple(kept)
