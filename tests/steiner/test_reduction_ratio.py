"""Tests for the reduction-ratio measure (paper Section 3.1).

The paper states three properties (proofs omitted there); we verify all
three, by construction and property-based, plus the upper bound rrSTR
ranks its unevaluated pairs by.
"""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.geometry import Point, distance
from repro.steiner import reduction_ratio, reduction_ratio_point
from repro.steiner.reduction_ratio import reduction_ratio_bound

coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestBasics:
    def test_steiner_point_returned(self):
        rr, t = reduction_ratio_point(Point(0, 0), Point(100, 10), Point(100, -10))
        assert rr > 0
        # The Steiner point lies between the source and the pair.
        assert 0 < t.x < 100

    def test_zero_when_collinear_opposite(self):
        # Destinations on opposite sides of the source share nothing.
        ratio = reduction_ratio(Point(0, 0), Point(100, 0), Point(-100, 0))
        assert ratio == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_all_at_source(self):
        p = Point(5, 5)
        assert reduction_ratio(p, p, p) == 0.0


class TestPaperProperties:
    @given(points, points, points)
    @settings(max_examples=300)
    def test_always_at_most_half(self, s, u, v):
        # Strict < 1/2 for distinct destinations (the paper's property 1);
        # the supremum 1/2 is attained exactly when u and v coincide.
        rr = reduction_ratio(s, u, v)
        assert rr <= 0.5
        if u != v and distance(u, v) > 1e-9:
            assert rr < 0.5

    @given(points, points, points)
    @settings(max_examples=300)
    def test_never_negative(self, s, u, v):
        # The 3-point Steiner tree is never longer than the two spokes.
        assert reduction_ratio(s, u, v) >= -1e-9

    def test_half_approached_by_far_collocated_pair(self):
        # Two destinations at the same far point: RR -> 1/2 from below.
        s = Point(0, 0)
        rr = reduction_ratio(s, Point(1000, 0), Point(1000, 1e-6))
        assert 0.49 < rr < 0.5

    @given(
        st.floats(min_value=50, max_value=400),
        st.floats(min_value=0.05, max_value=0.8),
    )
    @settings(max_examples=100)
    def test_monotone_in_distance(self, base_distance, half_angle):
        # Equidistant pairs under the same angle: the farther pair has the
        # larger reduction ratio (paper property 2, Figure 2a).
        s = Point(0, 0)

        def pair_at(dist):
            return (
                Point(dist * math.cos(half_angle), dist * math.sin(half_angle)),
                Point(dist * math.cos(-half_angle), dist * math.sin(-half_angle)),
            )

        near_u, near_v = pair_at(base_distance)
        far_u, far_v = pair_at(base_distance * 2.0)
        assert reduction_ratio(s, far_u, far_v) >= reduction_ratio(s, near_u, near_v) - 1e-9

    @given(
        st.floats(min_value=50, max_value=400),
        st.floats(min_value=0.05, max_value=0.7),
        st.floats(min_value=1.1, max_value=2.5),
    )
    @settings(max_examples=100)
    def test_monotone_in_angle(self, dist, angle, widening):
        # Same distances, smaller subtended angle => larger reduction ratio
        # (paper property 3, Figure 2b).
        assume(angle * widening < math.pi * 0.9)
        s = Point(0, 0)

        def pair_at(theta):
            return (
                Point(dist, 0.0),
                Point(dist * math.cos(theta), dist * math.sin(theta)),
            )

        narrow_u, narrow_v = pair_at(angle)
        wide_u, wide_v = pair_at(angle * widening)
        assert reduction_ratio(s, narrow_u, narrow_v) >= reduction_ratio(s, wide_u, wide_v) - 1e-9

    @given(points, points, points)
    @settings(max_examples=200)
    def test_consistent_with_steiner_length(self, s, u, v):
        rr, t = reduction_ratio_point(s, u, v)
        direct = distance(s, u) + distance(s, v)
        assume(direct > 1e-6)
        steiner_len = distance(s, t) + distance(t, u) + distance(t, v)
        assert rr == pytest.approx(1.0 - steiner_len / direct, abs=1e-9)


class TestUpperBound:
    @given(points, points, points)
    @example(Point(0, 0), Point(0, 0), Point(0, 0))  # all at the source
    @example(Point(0, 0), Point(0, 0), Point(300, 40))  # u at the source
    @example(Point(5, 5), Point(400, -20), Point(400, -20))  # u, v coincide
    @example(Point(0, 0), Point(100, 0), Point(250, 0))  # collinear, same side
    @example(Point(0, 0), Point(100, 0), Point(-250, 0))  # collinear, opposite
    @example(Point(0, 0), Point(1000, 0), Point(1000, 1e-6))  # RR near 1/2
    @settings(max_examples=300)
    def test_bound_is_never_below_the_exact_ratio(self, s, u, v):
        # The bound is what rrSTR keys a pair by until it reaches the top of
        # the heap; the exact ratio must never sort before it.
        bound = reduction_ratio_bound(distance(s, u), distance(s, v), distance(u, v))
        assert bound >= reduction_ratio(s, u, v)
