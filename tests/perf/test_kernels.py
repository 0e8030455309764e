"""Bit-identity property tests for the batched geometry kernels.

Every batch kernel in :mod:`repro.perf.kernels` must produce *exactly* the
floats of its scalar reference — ``==``, never ``allclose`` — over seeded
random inputs, including the degenerate geometries (collinear, collocated,
wide-angle, near-tolerance) where scalar branch order matters most.  Each
pool is at least 1000 instances; a single last-ulp divergence fails loudly.
"""

import math
import random

import numpy as np
import pytest

from repro.geometry import Point, distance, distance_sq
from repro.geometry.fermat import fermat_point
from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.kernels import (
    MIN_BATCH,
    disk_mask,
    distances_sq_to,
    fermat_point_batch,
    gabriel_keep_mask,
    group_distance_sums,
    nearest_index,
    pair_indices,
    pairwise_distances,
    reduction_ratio_batch,
    rng_keep_mask,
)
from repro.steiner.reduction_ratio import reduction_ratio_point
from tests.conftest import scalar_gates


def _random_point(rng: random.Random, lo: float = -500.0, hi: float = 1500.0) -> Point:
    return Point(rng.uniform(lo, hi), rng.uniform(lo, hi))


def _triple_pool(count: int) -> list:
    """Seeded triples cycling through general and degenerate geometries."""
    rng = random.Random(20240806)
    triples = []
    while len(triples) < count:
        mode = len(triples) % 8
        a = _random_point(rng)
        if mode == 0:  # general position
            b, c = _random_point(rng), _random_point(rng)
        elif mode == 1:  # collinear (both sides of a)
            dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            t1, t2 = rng.uniform(1.0, 300.0), rng.uniform(-300.0, -1.0)
            b = Point(a.x + t1 * dx, a.y + t1 * dy)
            c = Point(a.x + t2 * dx, a.y + t2 * dy)
        elif mode == 2:  # collinear, same side (middle point optimal)
            dx, dy = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            t1, t2 = rng.uniform(1.0, 150.0), rng.uniform(150.0, 300.0)
            b = Point(a.x + t1 * dx, a.y + t1 * dy)
            c = Point(a.x + t2 * dx, a.y + t2 * dy)
        elif mode == 3:  # first two collocated
            b = Point(a.x, a.y)
            c = _random_point(rng)
        elif mode == 4:  # last two collocated
            b = _random_point(rng)
            c = Point(b.x, b.y)
        elif mode == 5:  # all three collocated
            b = Point(a.x, a.y)
            c = Point(a.x, a.y)
        elif mode == 6:  # collocated within the 1e-12 tolerance
            b = Point(a.x + 4e-13, a.y - 4e-13)
            c = _random_point(rng)
        else:  # wide angle (>= 120 degrees) at a
            theta = rng.uniform(0.0, 2.0 * math.pi)
            spread = rng.uniform(2.2, math.pi)  # > 2*pi/3
            r1, r2 = rng.uniform(10.0, 400.0), rng.uniform(10.0, 400.0)
            b = Point(a.x + r1 * math.cos(theta), a.y + r1 * math.sin(theta))
            c = Point(
                a.x + r2 * math.cos(theta + spread),
                a.y + r2 * math.sin(theta + spread),
            )
        triples.append((a, b, c))
    return triples


def test_fermat_point_batch_bit_identical() -> None:
    triples = _triple_pool(1200)
    arr = np.array([[a.x, a.y, b.x, b.y, c.x, c.y] for a, b, c in triples])
    batch = fermat_point_batch(arr)
    for i, (a, b, c) in enumerate(triples):
        reference = fermat_point(a, b, c)
        assert batch[i, 0] == reference[0], (i, a, b, c)
        assert batch[i, 1] == reference[1], (i, a, b, c)


def test_reduction_ratio_batch_bit_identical() -> None:
    triples = _triple_pool(1200)
    # Group by shared source in chunks, as rrSTR's seeding does.
    for start in range(0, len(triples), 100):
        chunk = triples[start : start + 100]
        s = chunk[0][0]
        us = np.array([[u.x, u.y] for _, u, _ in chunk])
        vs = np.array([[v.x, v.y] for _, _, v in chunk])
        rr_arr, t_arr = reduction_ratio_batch(s, us, vs)
        for i, (_, u, v) in enumerate(chunk):
            rr, t = reduction_ratio_point(s, u, v)
            assert rr_arr[i] == rr, (start + i, s, u, v)
            assert t_arr[i, 0] == t[0] and t_arr[i, 1] == t[1], (start + i, s, u, v)


def test_reduction_ratio_batch_degenerate_direct() -> None:
    """Both destinations collocated with the source: ratio defined as 0."""
    s = Point(10.0, -3.0)
    us = np.array([[s.x, s.y]] * MIN_BATCH)
    rr_arr, _ = reduction_ratio_batch(s, us, us)
    for i in range(MIN_BATCH):
        rr, _ = reduction_ratio_point(s, s, s)
        assert rr_arr[i] == rr == 0.0


def test_pair_indices_matches_nested_loop_order() -> None:
    for count in (0, 1, 2, 3, 7, 40):
        row, col = pair_indices(count)
        expected = [(i, j) for i in range(count) for j in range(i + 1, count)]
        assert list(zip(row.tolist(), col.tolist())) == expected


def test_disk_mask_bit_identical() -> None:
    rng = random.Random(99)
    checked = 0
    while checked < 1500:
        n = rng.randint(1, 40)
        xs = np.array([rng.uniform(0.0, 1000.0) for _ in range(n)])
        ys = np.array([rng.uniform(0.0, 1000.0) for _ in range(n)])
        px, py = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        radius_sq = rng.uniform(0.0, 300.0) ** 2
        mask = disk_mask(xs, ys, px, py, radius_sq)
        for i in range(n):
            dx = xs[i] - px
            dy = ys[i] - py
            assert bool(mask[i]) == (dx * dx + dy * dy <= radius_sq)
        checked += n
    # Boundary: a point exactly on the circle must be included.
    on_circle = disk_mask(np.array([3.0]), np.array([4.0]), 0.0, 0.0, 25.0)
    assert bool(on_circle[0])


def test_unit_disk_rows_bit_identical_to_grid_build() -> None:
    """unit_disk_rows == the per-node SpatialGrid build, row for row.

    The scalar reference is ``WirelessNetwork._build_neighbor_lists`` (one
    grid range query per node), over seeded deployments including negative
    coordinates, cell-boundary points, exact-radius pairs and coincident
    nodes.
    """
    from repro.network.graph import WirelessNetwork
    from repro.network.radio import RadioConfig
    from repro.perf.kernels import unit_disk_rows

    rng = random.Random(20260808)
    radio = RadioConfig()  # 150 m range
    checked = 0
    for trial in range(8):
        n = rng.randint(1, 300)
        lo, hi = rng.choice([(0.0, 120.0), (0.0, 600.0), (-500.0, 500.0)])
        pts = [Point(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
        if trial % 2:
            anchor = pts[0]
            pts.append(Point(anchor.x + radio.radio_range_m, anchor.y))  # exact radius
            pts.append(Point(anchor.x, anchor.y))  # coincident
            pts.append(Point(0.0, 0.0))  # cell-boundary corner
        xs = np.array([p.x for p in pts], dtype=float)
        ys = np.array([p.y for p in pts], dtype=float)
        indptr, indices = unit_disk_rows(xs, ys, radio.radio_range_m)
        reference = WirelessNetwork(pts, radio)._build_neighbor_lists()
        assert indptr[0] == 0 and indptr[-1] == len(indices)
        for i in range(len(pts)):
            row = tuple(indices[indptr[i] : indptr[i + 1]].tolist())
            assert row == reference[i], (trial, i)
        checked += len(pts)
    assert checked >= 1000

    empty_ptr, empty_idx = unit_disk_rows(np.empty(0), np.empty(0), 150.0)
    assert empty_ptr.tolist() == [0] and empty_idx.shape == (0,)
    with pytest.raises(ValueError):
        unit_disk_rows(np.zeros(2), np.zeros(2), 0.0)


def _neighbor_clusters(seed: int, clusters: int) -> list:
    """Random radio neighborhoods: a center plus its in-range neighbor ids."""
    rng = random.Random(seed)
    out = []
    for _ in range(clusters):
        u = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        m = rng.randint(MIN_BATCH, 35)
        neighbors = []
        for _ in range(m):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.0, 150.0)
            neighbors.append(
                Point(u.x + r * math.cos(theta), u.y + r * math.sin(theta))
            )
        out.append((u, neighbors))
    return out


def test_planarization_masks_match_scalar_witness_loops() -> None:
    """gabriel/rng keep masks == the scalar loops, via the planar call sites."""
    from repro.network.planar import gabriel_neighbors, rng_neighbors

    edges = 0
    for u, neighbors in _neighbor_clusters(7, 60):
        locations = [u] + neighbors
        ids = list(range(1, len(locations)))

        def location_of(i: int) -> Point:
            return locations[i]

        for planarize in (gabriel_neighbors, rng_neighbors):
            vec = planarize(0, ids, location_of)
            with scalar_gates():
                scalar = planarize(0, ids, location_of)
            assert vec == scalar
        edges += len(ids)
    assert edges >= 1000


def test_keep_masks_direct_against_scalar_tests() -> None:
    """The raw masks, checked against independent witness-loop transcriptions."""
    for u, neighbors in _neighbor_clusters(13, 40):
        coords = np.array([[p.x, p.y] for p in neighbors])
        g_mask = gabriel_keep_mask(u, coords)
        r_mask = rng_keep_mask(u, coords)
        for v_idx, v in enumerate(neighbors):
            center = Point((u.x + v.x) / 2.0, (u.y + v.y) / 2.0)
            radius_sq = ((u.x - v.x) ** 2 + (u.y - v.y) ** 2) / 4.0
            g_witnessed = any(
                (w.x - center.x) ** 2 + (w.y - center.y) ** 2 < radius_sq - 1e-12
                for w_idx, w in enumerate(neighbors)
                if w_idx != v_idx
            )
            assert bool(g_mask[v_idx]) == (not g_witnessed)
            uv_sq = (u.x - v.x) ** 2 + (u.y - v.y) ** 2
            r_witnessed = any(
                (u.x - w.x) ** 2 + (u.y - w.y) ** 2 < uv_sq - 1e-12
                and (v.x - w.x) ** 2 + (v.y - w.y) ** 2 < uv_sq - 1e-12
                for w_idx, w in enumerate(neighbors)
                if w_idx != v_idx
            )
            assert bool(r_mask[v_idx]) == (not r_witnessed)


def test_pairwise_distances_bit_identical() -> None:
    rng = random.Random(56)
    pts = [_random_point(rng, 0.0, 1000.0) for _ in range(40)]
    arr = np.array([[p.x, p.y] for p in pts])
    matrix = pairwise_distances(arr)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert matrix[i, j] == distance(q, p)  # column j == distances to q
    assert 40 * 40 >= 1000


def test_next_hop_kernels_match_inline_fallbacks() -> None:
    """distances_sq_to / nearest_index / group_distance_sums == independent
    einsum transcriptions, and nearest_index == a scalar distance_sq scan."""
    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 30)
        locations = np.array(
            [[rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)] for _ in range(n)]
        )
        target = _random_point(rng, 0.0, 1000.0)
        deltas = locations - np.asarray([target[0], target[1]])
        expected_sq = np.einsum("ij,ij->i", deltas, deltas)
        got_sq = distances_sq_to(locations, target)
        assert (got_sq == expected_sq).all()
        assert nearest_index(locations, target) == int(np.argmin(expected_sq))
        scalar_sq = [distance_sq(Point(x, y), target) for x, y in locations.tolist()]
        assert got_sq.tolist() == scalar_sq
        assert nearest_index(locations, target) == scalar_sq.index(min(scalar_sq))

        group = [_random_point(rng, 0.0, 1000.0) for _ in range(rng.randint(1, 12))]
        targets = np.asarray([[p[0], p[1]] for p in group])
        diff = locations[:, None, :] - targets[None, :, :]
        expected_sums = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).sum(axis=1)
        got_sums = group_distance_sums(locations, group)
        assert (got_sums == expected_sums).all()
        checked += n


def test_rrstr_trees_identical_vectorized_on_off() -> None:
    """End-to-end A/B: full rrSTR trees are byte-identical with the kernels
    and with every size gate forced to its scalar loop."""
    from repro.perf.cache import clear_caches
    from repro.steiner.rrstr import RRStrConfig, rrstr

    def signature(tree):
        return tuple(
            (v.vid, repr(v.location[0]), repr(v.location[1]), tree.parent_of(v.vid))
            for v in tree.vertices()
        )

    rng = random.Random(404)
    configs = [RRStrConfig(), RRStrConfig(radio_aware=False), RRStrConfig(refine=False)]
    for trial in range(30):
        k = rng.randint(2, 30)
        s = _random_point(rng, 0.0, 2000.0)
        dests = [(i, _random_point(rng, 0.0, 2000.0)) for i in range(k)]
        config = configs[trial % len(configs)]
        clear_caches()
        vec_tree = rrstr(s, dests, 150.0, config)
        clear_caches()
        with scalar_gates():
            scalar_tree = rrstr(s, dests, 150.0, config)
        assert signature(vec_tree) == signature(scalar_tree), trial


def test_kernels_record_batch_counters() -> None:
    before = GLOBAL_COUNTERS.snapshot()
    fermat_point_batch(np.array([[0.0, 0.0, 100.0, 0.0, 50.0, 80.0]] * 7))
    disk_mask(np.zeros(5), np.zeros(5), 0.0, 0.0, 1.0)
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("vector.fermat_point.batches", 0.0) >= 1.0
    assert delta.get("vector.fermat_point.items", 0.0) >= 7.0
    assert delta.get("vector.grid_disk.batches", 0.0) >= 1.0
    assert delta.get("vector.grid_disk.items", 0.0) >= 5.0


def test_empty_batches() -> None:
    assert fermat_point_batch(np.empty((0, 6))).shape == (0, 2)
    rr, t = reduction_ratio_batch(Point(0.0, 0.0), np.empty((0, 2)), np.empty((0, 2)))
    assert rr.shape == (0,) and t.shape == (0, 2)
    assert group_distance_sums(np.empty((0, 2)), [Point(1.0, 1.0)]).shape == (0,)
