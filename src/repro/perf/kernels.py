"""Batched NumPy geometry kernels, bit-identical to their scalar references.

Every kernel here evaluates *many* instances of a scalar geometry routine in
one vectorized call, using the **same elementwise formulas in the same
operation order** as the scalar reference, so each result is the same
IEEE-754 double a per-element call would produce:

========================  =================================================
kernel                    scalar reference
========================  =================================================
``fermat_point_batch``    :func:`repro.geometry.fermat.fermat_point`
``reduction_ratio_batch`` :func:`repro.steiner.reduction_ratio.reduction_ratio_point`
``disk_mask``             the per-point test in ``SpatialGrid.indices_within``
``unit_disk_rows``        ``WirelessNetwork._build_neighbor_lists`` (whole graph)
``gabriel_keep_mask``     :func:`repro.network.planar.gabriel_neighbors`
``rng_keep_mask``         :func:`repro.network.planar.rng_neighbors`
``nearest_index`` etc.    per-row :func:`repro.geometry.point.distance_sq` /
                          :func:`repro.routing.greedy.total_distance`
========================  =================================================

Bit-identity is achievable because the scalar layer restricts itself to
operations that IEEE 754 defines exactly (add/sub/mul/div/sqrt are correctly
rounded, and NumPy performs the identical double operations) plus ``atan2``
/ ``cos`` / ``sin``, which CPython and NumPy both delegate to the platform
libm.  ``math.hypot`` is the one exception — CPython ships its own
algorithm — which is why :func:`repro.geometry.point.distance` uses the
``sqrt(dx*dx + dy*dy)`` form.  The equality is enforced two ways: seeded
property tests assert ``==`` (not ``allclose``) against the scalar reference
over thousands of random and degenerate inputs, and the experiment digests
(:mod:`repro.engine.digest`) must be byte-identical with every call site's
size gate forced to its scalar side.

Rows that reach a scalar code path with data-dependent control flow (the
parallel-Simpson-line fallback and the Weiszfeld fallback inside
``fermat_point``) are delegated to the scalar function per-row; they are a
vanishing fraction of real workloads.

Call sites choose between kernel and scalar loop by batch size alone
(:data:`MIN_BATCH`); the scalar loops below each gate double as the parity
oracles.  Each kernel invocation is tallied in
:data:`~repro.perf.counters.GLOBAL_COUNTERS` under ``vector.<name>`` (batch
count and total items), surfaced by the CLI ``--perf`` report.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.fermat import fermat_point
from repro.geometry.point import Point
from repro.perf.counters import GLOBAL_COUNTERS

#: Kernel name → dotted path of the scalar routine it must match bit-for-bit.
#: reprolint R013 checks this table: every public kernel below needs an entry
#: whose target resolves in the project, and a parity test in ``tests/perf/``
#: must reference the kernel by name.  The prose table in the module
#: docstring is for humans; this one is for the analyzer.
SCALAR_REFERENCES: Dict[str, str] = {
    "fermat_point_batch": "repro.geometry.fermat.fermat_point",
    "reduction_ratio_batch": "repro.steiner.reduction_ratio.reduction_ratio_point",
    "pair_indices": "repro.steiner.rrstr.rrstr",
    "disk_mask": "repro.network.graph.SpatialGrid.indices_within",
    "unit_disk_rows": "repro.network.graph.WirelessNetwork._build_neighbor_lists",
    "gabriel_keep_mask": "repro.network.planar.gabriel_neighbors",
    "rng_keep_mask": "repro.network.planar.rng_neighbors",
    "distances_to": "repro.geometry.point.distance",
    "pairwise_distances": "repro.geometry.point.distance",
    "distances_sq_to": "repro.geometry.point.distance_sq",
    "nearest_index": "repro.geometry.point.distance_sq",
    "group_distance_sums": "repro.routing.greedy.total_distance",
}

#: Minimum batch size for which call sites prefer the vectorized kernel;
#: below this the per-call NumPy dispatch overhead exceeds the scalar loop.
#: Purely a performance gate — results are identical on either side.
MIN_BATCH = 4

#: Tolerances mirrored from the scalar layer (values must stay in lockstep
#: with :mod:`repro.geometry.primitives` / :mod:`repro.geometry.fermat`).
_EPS = 1e-12
_ANGLE_THRESHOLD = 2.0 * math.pi / 3.0 - 1e-12
_SLACK = 1e-12

#: Rotation constants exactly as ``rotate_about`` computes them for the
#: outward-apex construction (``theta = +/- pi / 3``).
_COS_CCW = math.cos(math.pi / 3.0)
_SIN_CCW = math.sin(math.pi / 3.0)
_COS_CW = math.cos(-math.pi / 3.0)
_SIN_CW = math.sin(-math.pi / 3.0)


def _record(name: str, size: int) -> None:
    GLOBAL_COUNTERS.batch(name).record(size)


def _dist(ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Elementwise Euclidean distance, same formula as ``geometry.point.distance``."""
    dx = ax - bx
    dy = ay - by
    return np.sqrt(dx * dx + dy * dy)


# ----------------------------------------------------------------------
# Fermat / Torricelli points
# ----------------------------------------------------------------------


def fermat_point_batch(triples: np.ndarray) -> np.ndarray:
    """Fermat points of ``m`` triangles given as an ``(m, 6)`` array.

    Columns are ``(ax, ay, bx, by, cx, cy)``; returns an ``(m, 2)`` array
    where row ``i`` equals ``fermat_point(a_i, b_i, c_i)`` bit-for-bit.
    """
    tri = np.asarray(triples, dtype=float)
    m = tri.shape[0]
    out = np.empty((m, 2), dtype=float)
    if m == 0:
        return out
    _record("fermat_point", m)
    ax, ay, bx, by, cx, cy = (tri[:, i] for i in range(6))
    done = np.zeros(m, dtype=bool)

    def settle(mask: np.ndarray, px: np.ndarray, py: np.ndarray) -> None:
        take = mask & ~done
        if take.any():
            out[take, 0] = px[take] if isinstance(px, np.ndarray) else px
            out[take, 1] = py[take] if isinstance(py, np.ndarray) else py
        done[take] = True

    # Coincident-vertex degeneracies, in the scalar branch order.
    co_ab = (np.abs(ax - bx) <= _EPS) & (np.abs(ay - by) <= _EPS)
    co_ac = (np.abs(ax - cx) <= _EPS) & (np.abs(ay - cy) <= _EPS)
    settle(co_ab | co_ac, ax, ay)
    co_bc = (np.abs(bx - cx) <= _EPS) & (np.abs(by - cy) <= _EPS)
    settle(co_bc, bx, by)

    # Wide-angle (>= 120 degree) vertices; ``angle_at`` is
    # ``atan2(|cross|, dot)`` of the two edge vectors at the vertex.
    def angle(ux: np.ndarray, uy: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        dot = ux * vx + uy * vy
        cross = ux * vy - uy * vx
        return np.arctan2(np.abs(cross), dot)

    settle(angle(bx - ax, by - ay, cx - ax, cy - ay) >= _ANGLE_THRESHOLD, ax, ay)
    settle(angle(ax - bx, ay - by, cx - bx, cy - by) >= _ANGLE_THRESHOLD, bx, by)
    settle(angle(ax - cx, ay - cy, bx - cx, by - cy) >= _ANGLE_THRESHOLD, cx, cy)

    general = ~done
    if not general.any():
        return out

    # Outward equilateral apexes (``rotate_about`` by +/- 60 degrees, keep
    # the candidate farther from the opposite vertex — ties keep CCW).
    def rot(px: np.ndarray, py: np.ndarray, vx: np.ndarray, vy: np.ndarray,
            cos_t: float, sin_t: float) -> Tuple[np.ndarray, np.ndarray]:
        dx = px - vx
        dy = py - vy
        return vx + dx * cos_t - dy * sin_t, vy + dx * sin_t + dy * cos_t

    def outward_apex(
        base_ax: np.ndarray, base_ay: np.ndarray,
        base_bx: np.ndarray, base_by: np.ndarray,
        ox: np.ndarray, oy: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        ccw_x, ccw_y = rot(base_bx, base_by, base_ax, base_ay, _COS_CCW, _SIN_CCW)
        cw_x, cw_y = rot(base_bx, base_by, base_ax, base_ay, _COS_CW, _SIN_CW)
        use_ccw = _dist(ccw_x, ccw_y, ox, oy) >= _dist(cw_x, cw_y, ox, oy)
        return np.where(use_ccw, ccw_x, cw_x), np.where(use_ccw, ccw_y, cw_y)

    apex_bc_x, apex_bc_y = outward_apex(bx, by, cx, cy, ax, ay)
    apex_ca_x, apex_ca_y = outward_apex(cx, cy, ax, ay, bx, by)

    # Simpson-line intersection (``segment_intersection(a, apex_bc, b, apex_ca)``).
    rx = apex_bc_x - ax
    ry = apex_bc_y - ay
    sx = apex_ca_x - bx
    sy = apex_ca_y - by
    denom = rx * sy - ry * sx
    qpx = bx - ax
    qpy = by - ay
    parallel = np.abs(denom) < _EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (qpx * sy - qpy * sx) / denom
        u = (qpx * ry - qpy * rx) / denom
    inside = (
        (-_SLACK <= t) & (t <= 1.0 + _SLACK) & (-_SLACK <= u) & (u <= 1.0 + _SLACK)
    )
    clean = general & ~parallel & inside
    fallback = general & ~clean

    if clean.any():
        hx = ax + t * rx
        hy = ay + t * ry
        # ``min((a, b, c, hit), key=star)`` with star(p) = d(p,a)+d(p,b)+d(p,c)
        # evaluated left-associatively; np.argmin keeps the first minimum,
        # matching Python min's first-wins tie rule.
        d_ab = _dist(ax, ay, bx, by)
        d_ac = _dist(ax, ay, cx, cy)
        d_bc = _dist(bx, by, cx, cy)
        star_a = (0.0 + d_ab) + d_ac
        star_b = (d_ab + 0.0) + d_bc
        star_c = (d_ac + d_bc) + 0.0
        star_h = (_dist(hx, hy, ax, ay) + _dist(hx, hy, bx, by)) + _dist(hx, hy, cx, cy)
        pick = np.argmin(np.stack([star_a, star_b, star_c, star_h]), axis=0)
        px = np.choose(pick, [ax, bx, cx, hx])
        py = np.choose(pick, [ay, by, cy, hy])
        settle(clean, px, py)

    # Data-dependent scalar paths (parallel Simpson lines, Weiszfeld
    # fallback): delegate the whole row to the scalar reference.
    for i in np.flatnonzero(fallback):
        point = fermat_point(
            Point(ax[i], ay[i]), Point(bx[i], by[i]), Point(cx[i], cy[i])
        )
        out[i, 0] = point[0]
        out[i, 1] = point[1]
    return out


# ----------------------------------------------------------------------
# Reduction ratios (rrSTR pair seeding)
# ----------------------------------------------------------------------


def reduction_ratio_batch(
    source: Point, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduction ratios and Steiner points of ``n`` destination pairs.

    ``us`` / ``vs`` are ``(n, 2)`` destination coordinates sharing ``source``;
    returns ``(rr, t)`` with ``rr`` shaped ``(n,)`` and ``t`` shaped
    ``(n, 2)``, each row bit-equal to
    ``reduction_ratio_point(source, u_i, v_i)``.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    n = us.shape[0]
    if n == 0:
        return np.empty(0, dtype=float), np.empty((0, 2), dtype=float)
    _record("reduction_ratio", n)
    sx = float(source[0])
    sy = float(source[1])
    triples = np.empty((n, 6), dtype=float)
    triples[:, 0] = sx
    triples[:, 1] = sy
    triples[:, 2:4] = us
    triples[:, 4:6] = vs
    t = fermat_point_batch(triples)
    d_su = _dist(sx, sy, us[:, 0], us[:, 1])
    d_sv = _dist(sx, sy, vs[:, 0], vs[:, 1])
    direct = d_su + d_sv
    d_st = _dist(sx, sy, t[:, 0], t[:, 1])
    d_tu = _dist(t[:, 0], t[:, 1], us[:, 0], us[:, 1])
    d_tv = _dist(t[:, 0], t[:, 1], vs[:, 0], vs[:, 1])
    steiner_length = (d_st + d_tu) + d_tv
    degenerate = np.abs(direct) <= _EPS
    safe_direct = np.where(degenerate, 1.0, direct)
    rr = np.where(degenerate, 0.0, 1.0 - steiner_length / safe_direct)
    return rr, t


def pair_indices(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """All unordered index pairs ``i < j`` in nested-loop (row-major) order.

    Matches the ``for i: for j > i`` enumeration the scalar rrSTR seeding
    uses, so batch results can be consumed positionally.
    """
    return np.triu_indices(count, k=1)


# ----------------------------------------------------------------------
# Spatial queries
# ----------------------------------------------------------------------


def disk_mask(
    xs: np.ndarray, ys: np.ndarray, px: float, py: float, radius_sq: float
) -> np.ndarray:
    """Which of the points lie within ``sqrt(radius_sq)`` of ``(px, py)``.

    Identical to the scalar per-point test in ``SpatialGrid.indices_within``:
    ``dx*dx + dy*dy <= radius_sq`` on the raw coordinate differences.
    """
    _record("grid_disk", xs.shape[0])
    dx = xs - px
    dy = ys - py
    return dx * dx + dy * dy <= radius_sq


def unit_disk_rows(
    xs: np.ndarray, ys: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency ``(indptr, indices)`` of the unit-disk graph in one call.

    Row ``i`` (``indices[indptr[i]:indptr[i+1]]``) lists, ascending, every
    ``j != i`` with ``dx*dx + dy*dy <= radius*radius`` — the same inclusive
    disk test, on the same raw coordinate differences, as the per-node
    ``SpatialGrid`` range queries in
    ``WirelessNetwork._build_neighbor_lists``, so both construction paths
    yield identical rows.

    The batch construction bins points into a ``radius``-sized grid (one
    stable argsort), then tests each occupied cell's members against the
    concatenated 3x3 candidate neighborhood with a single broadcast mask —
    no per-node Python loop over candidates.
    """
    n = xs.shape[0]
    indptr = np.zeros(n + 1, dtype=np.intp)
    if n == 0:
        return indptr, np.empty(0, dtype=np.intp)
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    _record("adjacency", n)
    radius_sq = radius * radius
    cell_x = np.floor(xs / radius).astype(np.int64)
    cell_y = np.floor(ys / radius).astype(np.int64)
    # Pack (cx, cy) into one integer key with a one-cell pad on each side so
    # the +/-1 neighbor offsets of edge cells never alias another row.
    span_y = int(cell_y.max() - cell_y.min()) + 3
    key = (cell_x - cell_x.min() + 1) * span_y + (cell_y - cell_y.min() + 1)
    order = np.argsort(key, kind="stable")  # ties keep ascending node id
    sorted_keys = key[order]
    breaks = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.intp), breaks))
    ends = np.concatenate((breaks, np.asarray([n], dtype=np.intp)))
    cells = {
        int(sorted_keys[s]): order[s:e]
        for s, e in zip(starts.tolist(), ends.tolist())
    }
    offsets = (
        -span_y - 1, -span_y, -span_y + 1, -1, 0, 1, span_y - 1, span_y, span_y + 1
    )
    rows: List[Optional[np.ndarray]] = [None] * n
    for cell_key, members in cells.items():
        parts = [
            cells[cell_key + off] for off in offsets if cell_key + off in cells
        ]
        candidates = np.sort(np.concatenate(parts) if len(parts) > 1 else parts[0])
        dx = xs[candidates][None, :] - xs[members][:, None]
        dy = ys[candidates][None, :] - ys[members][:, None]
        keep = dx * dx + dy * dy <= radius_sq
        keep &= candidates[None, :] != members[:, None]
        for row, node in enumerate(members.tolist()):
            rows[node] = candidates[keep[row]]
    lengths = np.fromiter((row.shape[0] for row in rows), dtype=np.intp, count=n)  # type: ignore[union-attr]
    np.cumsum(lengths, out=indptr[1:])
    return indptr, np.concatenate(rows)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Planarization witness tests
# ----------------------------------------------------------------------


def gabriel_keep_mask(u: Point, coords: np.ndarray) -> np.ndarray:
    """Gabriel-graph keep mask over a node's neighbor coordinate array.

    ``coords`` is the ``(n, 2)`` array of neighbor locations; entry ``v`` of
    the result is True iff no *other* neighbor lies strictly inside the
    circle with diameter ``u -- coords[v]`` — exactly the witness test of
    :func:`repro.network.planar.gabriel_neighbors`.
    """
    n = coords.shape[0]
    _record("gabriel", n)
    ux = float(u[0])
    uy = float(u[1])
    wx = coords[:, 0]
    wy = coords[:, 1]
    center_x = (ux + wx) / 2.0
    center_y = (uy + wy) / 2.0
    dux = ux - wx
    duy = uy - wy
    radius_sq = (dux * dux + duy * duy) / 4.0
    ddx = wx[:, None] - center_x[None, :]
    ddy = wy[:, None] - center_y[None, :]
    witnessed = (ddx * ddx + ddy * ddy) < (radius_sq - _EPS)[None, :]
    np.fill_diagonal(witnessed, False)
    return ~witnessed.any(axis=0)


def rng_keep_mask(u: Point, coords: np.ndarray) -> np.ndarray:
    """Relative-Neighborhood-Graph keep mask over a neighbor coordinate array.

    Entry ``v`` is True iff no other neighbor ``w`` satisfies
    ``max(d(u,w), d(v,w)) < d(u,v)`` — the lune test of
    :func:`repro.network.planar.rng_neighbors`.
    """
    n = coords.shape[0]
    _record("rng", n)
    ux = float(u[0])
    uy = float(u[1])
    wx = coords[:, 0]
    wy = coords[:, 1]
    dux = ux - wx
    duy = uy - wy
    uv_sq = dux * dux + duy * duy
    limit = uv_sq - _EPS
    dvx = wx[None, :] - wx[:, None]
    dvy = wy[None, :] - wy[:, None]
    dvw_sq = dvx * dvx + dvy * dvy
    witnessed = (uv_sq[:, None] < limit[None, :]) & (dvw_sq < limit[None, :])
    np.fill_diagonal(witnessed, False)
    return ~witnessed.any(axis=0)


# ----------------------------------------------------------------------
# Next-hop selection (routing layer)
# ----------------------------------------------------------------------


def distances_to(locations: np.ndarray, target: Point) -> np.ndarray:
    """Euclidean distances from each row of ``locations`` to ``target``.

    Same ``sqrt(dx*dx + dy*dy)`` form (and operand order) as
    :func:`repro.geometry.point.distance`, so each entry is bit-equal to the
    scalar call — used by the rrSTR refinement's re-parent scan.
    """
    _record("refine_scan", locations.shape[0])
    dx = locations[:, 0] - target[0]
    dy = locations[:, 1] - target[1]
    return np.sqrt(dx * dx + dy * dy)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Full ``(n, n)`` Euclidean distance matrix over ``coords``.

    Entry ``[i, j]`` uses ``sqrt((x_i-x_j)² + (y_i-y_j)²)`` with the same
    operand order as :func:`repro.geometry.point.distance`, so column ``j``
    is bit-equal to :func:`distances_to` ``(coords, coords[j])`` — one call
    replaces a per-vertex batch in the rrSTR re-parent scan.
    """
    n = coords.shape[0]
    _record("refine_scan", n * n)
    dx = coords[:, 0][:, None] - coords[:, 0][None, :]
    dy = coords[:, 1][:, None] - coords[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def distances_sq_to(locations: np.ndarray, target: Point) -> np.ndarray:
    """Squared distances from each row of ``locations`` to ``target``."""
    _record("next_hop", locations.shape[0])
    deltas = locations - np.asarray([target[0], target[1]])
    return np.einsum("ij,ij->i", deltas, deltas)


def nearest_index(locations: np.ndarray, target: Point) -> int:
    """Index of the row of ``locations`` nearest to ``target`` (first wins)."""
    return int(np.argmin(distances_sq_to(locations, target)))


def group_distance_sums(
    locations: np.ndarray, group: Sequence[Point]
) -> np.ndarray:
    """Per-row sums of distances to every location in ``group``.

    The vectorized backbone of GMP/PBM next-hop selection; entry ``i`` is
    ``sum_z d(locations[i], z)``.
    """
    if locations.shape[0] == 0 or not group:
        return np.zeros(locations.shape[0], dtype=float)
    _record("next_hop", locations.shape[0] * len(group))
    targets = np.asarray([[p[0], p[1]] for p in group])
    diff = locations[:, None, :] - targets[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=1)
