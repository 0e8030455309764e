"""Exact Steiner (Fermat / Torricelli) point of three points.

The rrSTR heuristic (paper Section 3) leans on the classical fact that the
Euclidean Steiner tree of exactly three terminals is computable in closed
form [Neuberg 1886; Hwang et al. 1992]:

* if one interior angle of the triangle is at least 120 degrees, the Steiner
  point coincides with that vertex;
* otherwise it is the unique interior point seeing every side under 120
  degrees, constructed as the intersection of two Simpson lines (vertex to
  the apex of the outward equilateral triangle on the opposite side).

:func:`weiszfeld_point` provides an independent iterative solver used by the
property-based tests to cross-check the construction.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.geometry.point import Point, distance
from repro.geometry.primitives import segment_intersection

#: A triangle angle at least this wide (120 degrees, less rounding slack)
#: makes its vertex the Fermat point.
_WIDE_ANGLE = 2.0 * math.pi / 3.0 - 1e-12
#: Coincidence tolerance (``primitives.points_coincide``) and the
#: Simpson-line parameter slack (``primitives.segment_intersection``).
_EPS = 1e-12
#: ``rotate_about``'s factors for the two outward-apex candidates.
_COS_CCW = math.cos(math.pi / 3.0)
_SIN_CCW = math.sin(math.pi / 3.0)
_COS_CW = math.cos(-math.pi / 3.0)
_SIN_CW = math.sin(-math.pi / 3.0)


def _outward_apex(
    ax: float, ay: float, bx: float, by: float, ox: float, oy: float
) -> Tuple[float, float]:
    """Apex of the equilateral triangle on ``ab`` away from ``o``.

    Rotates ``b`` about ``a`` by +/-60 degrees (``rotate_about``) and keeps
    the candidate farther from ``o``; a tie keeps the CCW one.
    """
    dx = bx - ax
    dy = by - ay
    ccw_x = ax + dx * _COS_CCW - dy * _SIN_CCW
    ccw_y = ay + dx * _SIN_CCW + dy * _COS_CCW
    cw_x = ax + dx * _COS_CW - dy * _SIN_CW
    cw_y = ay + dx * _SIN_CW + dy * _COS_CW
    ex = ccw_x - ox
    ey = ccw_y - oy
    fx = cw_x - ox
    fy = cw_y - oy
    if math.sqrt(ex * ex + ey * ey) >= math.sqrt(fx * fx + fy * fy):
        return ccw_x, ccw_y
    return cw_x, cw_y


def fermat_point(a: Point, b: Point, c: Point) -> Point:
    """Exact Fermat/Torricelli point of the triangle ``abc``.

    Handles every degeneracy that arises inside rrSTR: coincident vertices,
    collinear triples (the middle point is the minimizer) and wide angles
    (the wide vertex is the minimizer).

    This is rrSTR's innermost routine, so it works on local floats.  Every
    value is the IEEE result of the same operations, in the same order, as
    the :mod:`repro.geometry.point` helpers it spells out (``distance``,
    ``angle_at``, ``rotate_about``, ``points_coincide``), which keeps it
    bit-identical to composing those helpers.
    """
    ax = a[0]
    ay = a[1]
    bx = b[0]
    by = b[1]
    cx = c[0]
    cy = c[1]
    # Coincident-vertex degeneracies: the repeated vertex is optimal, since
    # the problem collapses to a two-point (or one-point) median.
    if (abs(ax - bx) <= _EPS and abs(ay - by) <= _EPS) or (
        abs(ax - cx) <= _EPS and abs(ay - cy) <= _EPS
    ):
        return Point(ax, ay)
    if abs(bx - cx) <= _EPS and abs(by - cy) <= _EPS:
        return Point(bx, by)

    # Wide-angle (>= 120 degrees) case, which also covers collinear triples:
    # the wide vertex itself is the Fermat point.  The angle at a vertex is
    # ``atan2(|cross|, dot)`` of its two edge vectors, none of which is zero
    # once the coincidences above are ruled out.
    abx = bx - ax
    aby = by - ay
    acx = cx - ax
    acy = cy - ay
    if math.atan2(abs(abx * acy - aby * acx), abx * acx + aby * acy) >= _WIDE_ANGLE:
        return Point(ax, ay)
    bax = ax - bx
    bay = ay - by
    bcx = cx - bx
    bcy = cy - by
    if math.atan2(abs(bax * bcy - bay * bcx), bax * bcx + bay * bcy) >= _WIDE_ANGLE:
        return Point(bx, by)
    cax = ax - cx
    cay = ay - cy
    cbx = bx - cx
    cby = by - cy
    if math.atan2(abs(cax * cby - cay * cbx), cax * cbx + cay * cby) >= _WIDE_ANGLE:
        return Point(cx, cy)

    # General case: intersect two Simpson lines.  Each Simpson line runs from
    # a vertex to the apex of the outward equilateral triangle erected on the
    # opposite side, and all three concur at the Fermat point.
    apex_bc_x, apex_bc_y = _outward_apex(bx, by, cx, cy, ax, ay)
    apex_ca_x, apex_ca_y = _outward_apex(cx, cy, ax, ay, bx, by)
    # segment_intersection(a, apex_bc, b, apex_ca), non-parallel branch.
    rx = apex_bc_x - ax
    ry = apex_bc_y - ay
    sx = apex_ca_x - bx
    sy = apex_ca_y - by
    denom = rx * sy - ry * sx
    hit: Optional[Tuple[float, float]] = None
    if abs(denom) < _EPS:
        parallel = segment_intersection(
            a, Point(apex_bc_x, apex_bc_y), b, Point(apex_ca_x, apex_ca_y)
        )
        if parallel is not None:
            hit = (parallel[0], parallel[1])
    else:
        qpx = bx - ax
        qpy = by - ay
        t = (qpx * sy - qpy * sx) / denom
        u = (qpx * ry - qpy * rx) / denom
        if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
            hit = (ax + t * rx, ay + t * ry)
    if hit is None:
        # Numerical grazing near the 120-degree boundary; fall back to the
        # iterative solver, which is robust there.
        median = weiszfeld_point((a, b, c))
        hit = (median[0], median[1])
    hx, hy = hit
    # Numerical safety net: the true Fermat point is never worse than any
    # vertex, so if precision loss (e.g. near-degenerate or subnormal
    # triangles) produced a bad construction, fall back to the best vertex.
    # Star lengths d(p,a)+d(p,b)+d(p,c); the first minimum wins.
    d_ab = math.sqrt(abx * abx + aby * aby)
    d_ac = math.sqrt(acx * acx + acy * acy)
    d_bc = math.sqrt(bcx * bcx + bcy * bcy)
    best_x = ax
    best_y = ay
    best = d_ab + d_ac
    star = d_ab + d_bc
    if star < best:
        best_x, best_y, best = bx, by, star
    star = d_ac + d_bc
    if star < best:
        best_x, best_y, best = cx, cy, star
    dx = hx - ax
    dy = hy - ay
    star = math.sqrt(dx * dx + dy * dy)
    dx = hx - bx
    dy = hy - by
    star += math.sqrt(dx * dx + dy * dy)
    dx = hx - cx
    dy = hy - cy
    star += math.sqrt(dx * dx + dy * dy)
    if star < best:
        best_x, best_y = hx, hy
    return Point(best_x, best_y)


def fermat_total_length(a: Point, b: Point, c: Point) -> float:
    """Length of the optimal 3-terminal Steiner tree (star through the Fermat point)."""
    t = fermat_point(a, b, c)
    return distance(t, a) + distance(t, b) + distance(t, c)


def weiszfeld_point(
    points: Sequence[Point],
    max_iterations: int = 200,
    tolerance: float = 1e-12,
) -> Point:
    """Geometric median of ``points`` via Weiszfeld iteration.

    For three points the geometric median *is* the Fermat point, so this is
    the reference oracle for :func:`fermat_point`.  Vertex-sticking (the
    iterate landing on an input point) is handled with the standard
    subgradient check: if the pull of the remaining points does not exceed
    the vertex's own weight, the vertex is optimal.

    rrSTR's refinement relocates every higher-degree virtual vertex with
    this, so the iteration runs on local floats, with the same IEEE
    operations in the same order as the ``distance``-based formulation.
    """
    if not points:
        raise ValueError("geometric median of no points is undefined")
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    coords = [(p[0], p[1]) for p in points]
    for _ in range(max_iterations):
        num_x = 0.0
        num_y = 0.0
        denom = 0.0
        stuck = False
        for px, py in coords:
            dx = cx - px
            dy = cy - py
            d = math.sqrt(dx * dx + dy * dy)
            if d < 1e-15:
                stuck = True
                continue
            w = 1.0 / d
            num_x += px * w
            num_y += py * w
            denom += w
        if stuck:
            # Subgradient test at the vertex.
            pull_x = 0.0
            pull_y = 0.0
            for px, py in coords:
                dx = cx - px
                dy = cy - py
                d = math.sqrt(dx * dx + dy * dy)
                if d < 1e-15:
                    continue
                pull_x += (px - cx) / d
                pull_y += (py - cy) / d
            if math.hypot(pull_x, pull_y) <= 1.0 + 1e-12:
                return Point(cx, cy)
        if abs(denom) <= _EPS:
            return Point(cx, cy)
        nx = num_x / denom
        ny = num_y / denom
        dx = nx - cx
        dy = ny - cy
        if math.sqrt(dx * dx + dy * dy) <= tolerance:
            return Point(nx, ny)
        cx = nx
        cy = ny
    return Point(cx, cy)
