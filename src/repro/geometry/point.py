"""Immutable 2-D points and basic metric helpers.

A :class:`Point` is a ``NamedTuple`` so it unpacks, hashes and compares like
a plain ``(x, y)`` tuple while keeping attribute access readable.  All
distances are Euclidean; the wireless-network model of the paper (Section 2)
lives entirely in this plane.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

#: Default tolerance for "collocated" point tests.  The paper's rrSTR
#: algorithm branches on Steiner points being collocated with the source or a
#: destination; coordinates in our experiments are on the order of 1e3
#: meters, so 1e-9 relative slack is far below any meaningful separation.
DEFAULT_TOLERANCE = 1e-9


class Point(NamedTuple):
    """A point in the 2-D Euclidean plane (coordinates in meters)."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":  # type: ignore[override]
        return Point(self.x + other[0], self.y + other[1])

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other[0], self.y - other[1])

    def scaled(self, factor: float) -> "Point":
        """Return this point's position vector scaled by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        """Euclidean norm of the position vector."""
        return math.hypot(self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between ``a`` and ``b``.

    Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``: IEEE-754
    multiply/add/sqrt are correctly rounded and therefore reproduced
    bit-for-bit by every inlined copy of this formula (rrSTR, the greedy
    next-hop scans) and by NumPy, whereas CPython's ``math.hypot`` and
    ``numpy.hypot`` use different algorithms and disagree in the last ulp
    for ~0.6% of inputs.  Experiment
    coordinates are bounded (~1e3 m), so the squaring cannot over- or
    underflow.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


def distance_sq(a: Point, b: Point) -> float:
    """Squared Euclidean distance (avoids the sqrt for comparisons)."""
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of segment ``ab``."""
    return Point((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)


def lerp(a: Point, b: Point, t: float) -> Point:
    """Linear interpolation from ``a`` (t=0) to ``b`` (t=1)."""
    return Point(a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points.

    GMP's perimeter mode routes toward the *average location* of the void
    destinations (Section 4.1, step 2); this is that average.
    """
    xs = 0.0
    ys = 0.0
    count = 0
    for p in points:
        xs += p[0]
        ys += p[1]
        count += 1
    if count == 0:
        raise ValueError("centroid of an empty point collection is undefined")
    return Point(xs / count, ys / count)


def nearly_equal_points(a: Point, b: Point, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Whether two points are collocated up to ``tolerance``."""
    return abs(a[0] - b[0]) <= tolerance and abs(a[1] - b[1]) <= tolerance


def angle_between(u: Point, v: Point) -> float:
    """Angle in radians between two position vectors, in ``[0, pi]``."""
    nu = math.hypot(u[0], u[1])
    nv = math.hypot(v[0], v[1])
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle with a zero-length vector is undefined")
    # atan2 of (|cross|, dot) avoids the norm product, which can underflow
    # to zero for subnormal coordinates even though both norms are nonzero.
    dot = u[0] * v[0] + u[1] * v[1]
    cross = u[0] * v[1] - u[1] * v[0]
    return math.atan2(abs(cross), dot)


def angle_at(vertex: Point, a: Point, b: Point) -> float:
    """Interior angle at ``vertex`` of the triangle ``(vertex, a, b)``.

    Used to detect the degenerate Fermat-point case where one triangle angle
    is at least 120 degrees.
    """
    return angle_between(
        Point(a[0] - vertex[0], a[1] - vertex[1]),
        Point(b[0] - vertex[0], b[1] - vertex[1]),
    )


def rotate_about(p: Point, pivot: Point, theta: float) -> Point:
    """Rotate point ``p`` around ``pivot`` by ``theta`` radians (CCW)."""
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    dx = p[0] - pivot[0]
    dy = p[1] - pivot[1]
    return Point(
        pivot[0] + dx * cos_t - dy * sin_t,
        pivot[1] + dx * sin_t + dy * cos_t,
    )


def unit_toward(src: Point, dst: Point) -> Point:
    """Unit vector pointing from ``src`` toward ``dst``."""
    d = distance(src, dst)
    if d == 0.0:
        raise ValueError("unit vector between coincident points is undefined")
    return Point((dst[0] - src[0]) / d, (dst[1] - src[1]) / d)
