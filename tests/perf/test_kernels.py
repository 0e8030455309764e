"""Bit-identity property test for the batched unit-disk adjacency build.

:func:`repro.perf.kernels.unit_disk_rows` must produce *exactly* the rows of
its scalar reference — ``==``, never approximately — over seeded random
deployments, including the degenerate geometries (exact-radius pairs,
coincident nodes, cell-boundary points) where the inclusive disk test
matters most.
"""

import random

import numpy as np
import pytest

from repro.geometry import Point
from repro.network.graph import WirelessNetwork
from repro.network.radio import RadioConfig
from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.kernels import unit_disk_rows


def test_unit_disk_rows_bit_identical_to_grid_build() -> None:
    """unit_disk_rows == the per-node SpatialGrid build, row for row.

    The scalar reference is ``WirelessNetwork._build_neighbor_lists`` (one
    grid range query per node), over seeded deployments including negative
    coordinates, cell-boundary points, exact-radius pairs and coincident
    nodes.
    """
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


def test_kernels_record_batch_counters() -> None:
    before = GLOBAL_COUNTERS.snapshot()
    unit_disk_rows(np.zeros(5), np.arange(5, dtype=float), 150.0)
    delta = GLOBAL_COUNTERS.delta_since(before)
    assert delta.get("vector.adjacency.batches", 0.0) == 1.0
    assert delta.get("vector.adjacency.items", 0.0) == 5.0
