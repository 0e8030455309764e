"""The reduction-ratio measure (paper Section 3.1).

For a source ``s`` and a destination pair ``(u, v)``::

    RR(s, u, v) = 1 - (d(s,t) + d(t,u) + d(t,v)) / (d(s,u) + d(s,v))

where ``t`` is the exact Steiner (Fermat) point of ``{s, u, v}``.  RR is the
relative saving of the optimal 3-terminal Steiner tree over two independent
source-to-destination segments; the paper proves (statement only) that

* ``RR < 1/2`` always,
* among equidistant pairs, RR grows with distance from the source,
* RR grows as the angle subtended at the source shrinks.

Our property-based tests check all three.

rrSTR ranks pairs by RR but needs the exact value of only the few pairs that
reach the top of its merge heap; :func:`reduction_ratio_bound` is the cheap
upper bound it ranks the rest by.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.geometry import Point, distance
from repro.geometry.fermat import fermat_point
from repro.geometry.primitives import is_zero


def reduction_ratio_point(s: Point, u: Point, v: Point) -> Tuple[float, Point]:
    """Reduction ratio of pair ``(u, v)`` w.r.t. source ``s`` and its Steiner point.

    Degenerate inputs collapse gracefully: if both destinations coincide
    with the source the ratio is defined as 0 (no saving possible).
    """
    t = fermat_point(s, u, v)
    direct = distance(s, u) + distance(s, v)
    if is_zero(direct):
        return 0.0, t
    steiner_length = distance(s, t) + distance(t, u) + distance(t, v)
    return 1.0 - steiner_length / direct, t


def reduction_ratio(s: Point, u: Point, v: Point) -> float:
    """Just the ratio; see :func:`reduction_ratio_point`."""
    return reduction_ratio_point(s, u, v)[0]


#: Added to :func:`reduction_ratio_bound` so that the rounding in a computed
#: RR (a few ulps of a value below 1/2) can never lift it above the bound.
_BOUND_SLACK = 1e-9


def reduction_ratio_bound(d_su: float, d_sv: float, d_uv: float) -> float:
    """Upper bound on ``RR(s, u, v)`` from the three pairwise distances.

    For any point ``t`` the triangle inequalities on ``(s,u)``, ``(s,v)``
    and ``(u,v)`` sum to ``2*(d(s,t) + d(t,u) + d(t,v)) >= d(s,u) + d(s,v)
    + d(u,v)``, so ``RR <= 1/2 - d(u,v) / (2*(d(s,u) + d(s,v)))``.  Where
    :func:`reduction_ratio_point` defines RR as 0 (both destinations at the
    source) the bound is ``inf``.
    """
    direct = d_su + d_sv
    if is_zero(direct):
        return math.inf
    return 0.5 - d_uv / (2.0 * direct) + _BOUND_SLACK
