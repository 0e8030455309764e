"""Tests for the exact 3-point Steiner (Fermat/Torricelli) point.

The Fermat point is the backbone of the paper's rrSTR heuristic, so this is
tested hard: closed-form cases, the 120-degree degeneracies, and a
property-based cross-check against the independent Weiszfeld solver.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, distance
from repro.geometry.fermat import fermat_point, fermat_total_length, weiszfeld_point
from repro.geometry.point import angle_at, rotate_about
from repro.geometry.primitives import is_zero, points_coincide, segment_intersection

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def star_length(t, pts):
    return sum(distance(t, p) for p in pts)


class TestClosedFormCases:
    def test_equilateral_triangle_center(self):
        a, b, c = Point(0, 0), Point(2, 0), Point(1, math.sqrt(3))
        t = fermat_point(a, b, c)
        # Fermat point of an equilateral triangle is its centroid.
        assert t.x == pytest.approx(1.0, abs=1e-9)
        assert t.y == pytest.approx(math.sqrt(3) / 3, abs=1e-9)

    def test_sees_every_side_at_120_degrees(self):
        a, b, c = Point(0, 0), Point(10, 0), Point(3, 8)
        t = fermat_point(a, b, c)

        def angle(u, v):
            du = (u.x - t.x, u.y - t.y)
            dv = (v.x - t.x, v.y - t.y)
            dot = du[0] * dv[0] + du[1] * dv[1]
            return math.acos(dot / (math.hypot(*du) * math.hypot(*dv)))

        for u, v in ((a, b), (b, c), (a, c)):
            assert angle(u, v) == pytest.approx(2 * math.pi / 3, abs=1e-6)


class TestDegenerateCases:
    def test_wide_angle_vertex_is_fermat_point(self):
        # Angle at b is ~170 degrees: b itself is the minimizer.
        a, b, c = Point(0, 0), Point(5, 0.2), Point(10, 0)
        assert fermat_point(a, b, c) == b

    def test_collinear_middle_point(self):
        a, b, c = Point(0, 0), Point(5, 0), Point(10, 0)
        assert fermat_point(a, b, c) == b

    def test_coincident_pair(self):
        a = Point(1, 1)
        c = Point(5, 5)
        assert fermat_point(a, a, c) == a

    def test_all_coincident(self):
        a = Point(2, 3)
        assert fermat_point(a, a, a) == a

    def test_exactly_120_degrees(self):
        # Construct an angle of exactly 120 degrees at the origin.
        a = Point(0, 0)
        b = Point(10, 0)
        c = Point(10 * math.cos(2 * math.pi / 3), 10 * math.sin(2 * math.pi / 3))
        t = fermat_point(a, b, c)
        assert distance(t, a) < 1e-6


class TestOptimality:
    @given(points, points, points)
    @settings(max_examples=200)
    def test_beats_every_vertex(self, a, b, c):
        t = fermat_point(a, b, c)
        best_vertex = min(star_length(v, (a, b, c)) for v in (a, b, c))
        assert star_length(t, (a, b, c)) <= best_vertex + 1e-6

    @given(points, points, points)
    @settings(max_examples=200)
    def test_matches_weiszfeld(self, a, b, c):
        exact = fermat_total_length(a, b, c)
        iterate = star_length(weiszfeld_point((a, b, c), max_iterations=500), (a, b, c))
        scale = max(1.0, exact)
        assert exact <= iterate + 1e-5 * scale

    @given(points, points, points, points, points)
    @settings(max_examples=100)
    def test_never_beaten_by_random_interior_point(self, a, b, c, r1, r2):
        t = fermat_point(a, b, c)
        for probe in (r1, r2):
            assert star_length(t, (a, b, c)) <= star_length(probe, (a, b, c)) + 1e-6


class TestWeiszfeld:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weiszfeld_point(())

    def test_single_point(self):
        assert weiszfeld_point((Point(3, 4),)) == Point(3, 4)

    def test_two_points_median_on_segment(self):
        m = weiszfeld_point((Point(0, 0), Point(10, 0)))
        # Any point on the segment is optimal; length must equal the gap.
        assert star_length(m, (Point(0, 0), Point(10, 0))) == pytest.approx(
            10.0, abs=1e-6
        )

    def test_four_point_cross(self):
        pts = (Point(-1, 0), Point(1, 0), Point(0, -1), Point(0, 1))
        m = weiszfeld_point(pts)
        assert abs(m.x) < 1e-6 and abs(m.y) < 1e-6

    def test_vertex_sticking_resolved(self):
        # Start centroid coincides with an input point for this set; the
        # subgradient check must still certify/escape correctly.
        pts = (Point(0, 0), Point(3, 0), Point(-3, 0), Point(0, 3), Point(0, -3))
        m = weiszfeld_point(pts)
        assert star_length(m, pts) == pytest.approx(12.0, abs=1e-6)


# ----------------------------------------------------------------------
# Parity with the Point-form formulation
# ----------------------------------------------------------------------
#
# ``fermat_point`` and ``weiszfeld_point`` spell their geometry out on local
# floats.  The references below are the same algorithms written with the
# ``repro.geometry`` helpers; results must agree to the bit (``repr``).


def _reference_outward_apex(base_a, base_b, opposite):
    candidate_ccw = rotate_about(base_b, base_a, math.pi / 3.0)
    candidate_cw = rotate_about(base_b, base_a, -math.pi / 3.0)
    if distance(candidate_ccw, opposite) >= distance(candidate_cw, opposite):
        return candidate_ccw
    return candidate_cw


def reference_fermat_point(a, b, c):
    if points_coincide(a, b) or points_coincide(a, c):
        return Point(a[0], a[1])
    if points_coincide(b, c):
        return Point(b[0], b[1])
    if angle_at(a, b, c) >= 2.0 * math.pi / 3.0 - 1e-12:
        return Point(a[0], a[1])
    if angle_at(b, a, c) >= 2.0 * math.pi / 3.0 - 1e-12:
        return Point(b[0], b[1])
    if angle_at(c, a, b) >= 2.0 * math.pi / 3.0 - 1e-12:
        return Point(c[0], c[1])
    apex_bc = _reference_outward_apex(b, c, a)
    apex_ca = _reference_outward_apex(c, a, b)
    hit = segment_intersection(a, apex_bc, b, apex_ca)
    if hit is None:
        hit = reference_weiszfeld_point((a, b, c))

    def star(p):
        return distance(p, a) + distance(p, b) + distance(p, c)

    best = min((a, b, c, hit), key=star)
    return Point(best[0], best[1])


def reference_weiszfeld_point(points, max_iterations=200, tolerance=1e-12):
    current = Point(
        sum(p[0] for p in points) / len(points),
        sum(p[1] for p in points) / len(points),
    )
    for _ in range(max_iterations):
        num_x = 0.0
        num_y = 0.0
        denom = 0.0
        stuck_vertex = None
        for p in points:
            d = distance(current, p)
            if d < 1e-15:
                stuck_vertex = p
                continue
            w = 1.0 / d
            num_x += p[0] * w
            num_y += p[1] * w
            denom += w
        if stuck_vertex is not None:
            pull_x = 0.0
            pull_y = 0.0
            for p in points:
                d = distance(current, p)
                if d < 1e-15:
                    continue
                pull_x += (p[0] - current[0]) / d
                pull_y += (p[1] - current[1]) / d
            if math.hypot(pull_x, pull_y) <= 1.0 + 1e-12:
                return current
            if is_zero(denom):
                return current
        if is_zero(denom):
            return current
        nxt = Point(num_x / denom, num_y / denom)
        if distance(nxt, current) <= tolerance:
            return nxt
        current = nxt
    return current


def _random_point(rng, span=1000.0):
    return Point(rng.uniform(-span, span), rng.uniform(-span, span))


def _degenerate_triples():
    """Coincident, collinear, exact-120 degree, tiny and subnormal triangles."""
    tiny = 5e-324
    c120 = Point(10 * math.cos(2 * math.pi / 3), 10 * math.sin(2 * math.pi / 3))
    yield Point(0, 0), Point(0, 0), Point(0, 0)
    yield Point(1, 1), Point(1, 1), Point(5, 5)
    yield Point(1, 1), Point(5, 5), Point(1, 1)
    yield Point(5, 5), Point(1, 1), Point(1, 1)
    yield Point(0.0, 0.0), Point(1e-13, 0.0), Point(3.0, 4.0)
    yield Point(0, 0), Point(5, 0), Point(10, 0)
    yield Point(0, 0), Point(10, 0), Point(5, 0)
    yield Point(0.0, 0.0), Point(5.0, 0.2), Point(10.0, 0.0)
    yield Point(0.0, 0.0), Point(10.0, 0.0), c120
    yield Point(10.0, 0.0), c120, Point(0.0, 0.0)
    yield Point(0, 0), Point(2, 0), Point(1, math.sqrt(3))
    yield Point(0.0, 0.0), Point(tiny, 0.0), Point(0.0, tiny)
    yield Point(tiny, tiny), Point(-tiny, 0.0), Point(0.0, 3 * tiny)
    yield Point(1e-300, 0.0), Point(0.0, 1e-300), Point(-1e-300, -1e-300)
    yield Point(1e-7, 2e-7), Point(3e-7, -1e-7), Point(-2e-7, 1e-7)


class TestInlinedParity:
    def test_fermat_point_random_triples(self):
        rng = random.Random(2006)
        for _ in range(3000):
            a, b, c = (_random_point(rng) for _ in range(3))
            assert repr(fermat_point(a, b, c)) == repr(reference_fermat_point(a, b, c))

    def test_fermat_point_near_degenerate_triples(self):
        # Thin triangles straddle the 120-degree test; jitter hits both sides.
        rng = random.Random(1886)
        for _ in range(2000):
            a = _random_point(rng)
            b = _random_point(rng)
            t = rng.uniform(-0.2, 1.2)
            jitter = rng.choice((0.0, 1e-9, 1e-3, 1.0))
            c = Point(
                a.x + t * (b.x - a.x) + rng.uniform(-jitter, jitter),
                a.y + t * (b.y - a.y) + rng.uniform(-jitter, jitter),
            )
            for triple in ((a, b, c), (c, a, b), (b, c, a)):
                assert repr(fermat_point(*triple)) == repr(
                    reference_fermat_point(*triple)
                )

    def test_fermat_point_degenerate_cases(self):
        for triple in _degenerate_triples():
            assert repr(fermat_point(*triple)) == repr(reference_fermat_point(*triple))

    def test_weiszfeld_random_stars(self):
        rng = random.Random(1937)
        for _ in range(300):
            star = [_random_point(rng) for _ in range(rng.randint(3, 7))]
            assert repr(weiszfeld_point(star)) == repr(reference_weiszfeld_point(star))

    def test_weiszfeld_degenerate_stars(self):
        tiny = 5e-324
        stars = [
            # Centroid lands on an input point (the stuck-vertex branch).
            (Point(0, 0), Point(3, 0), Point(-3, 0), Point(0, 3), Point(0, -3)),
            (Point(0, 0), Point(1, 0), Point(-1, 0)),
            (Point(3, 4),),
            (Point(0, 0), Point(10, 0)),
            (Point(2, 2), Point(2, 2), Point(2, 2), Point(9, 1)),
            (Point(0.0, 0.0), Point(5.0, 0.0), Point(10.0, 0.0), Point(15.0, 0.0)),
            (Point(0.0, 0.0), Point(tiny, 0.0), Point(0.0, tiny), Point(tiny, tiny)),
            tuple(_degenerate_triples())[8],
        ]
        for star in stars:
            assert repr(weiszfeld_point(star)) == repr(reference_weiszfeld_point(star))
            assert repr(weiszfeld_point(star, max_iterations=3)) == repr(
                reference_weiszfeld_point(star, max_iterations=3)
            )

    @given(points, points, points)
    @settings(max_examples=300)
    def test_fermat_point_property(self, a, b, c):
        assert repr(fermat_point(a, b, c)) == repr(reference_fermat_point(a, b, c))
