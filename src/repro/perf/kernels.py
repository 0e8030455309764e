"""The one batched NumPy kernel: the unit-disk adjacency build.

:func:`unit_disk_rows` computes every node's neighbor row in one call, the
same inclusive ``dx*dx + dy*dy <= r*r`` test on the same raw coordinate
differences as its scalar reference,
``WirelessNetwork._build_neighbor_lists`` (one ``SpatialGrid`` range query
per node), so the two yield identical rows.  It is the only kernel with an
end-to-end win: a 10,000-node deployment builds in about 0.11 s with it,
against 0.50 s for the scalar rows alone (docs/PERFORMANCE.md).  Every
per-hop geometry routine (next-hop selection, planarization, grid radius
queries, rrSTR) is a plain scalar loop, because its inputs (a ~15-entry
neighbor table, a handful of destinations) are too small to repay NumPy's
per-call overhead.

Each invocation is tallied in :data:`~repro.perf.counters.GLOBAL_COUNTERS`
under ``vector.adjacency`` (batch count and total items), surfaced by the
CLI ``--perf`` report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.perf.counters import GLOBAL_COUNTERS

#: Kernel name → dotted path of the scalar routine it must match bit-for-bit.
#: reprolint R013 checks this table: every public kernel below needs an entry
#: whose target resolves in the project, and a parity test in ``tests/perf/``
#: must reference the kernel by name.
SCALAR_REFERENCES: Dict[str, str] = {
    "unit_disk_rows": "repro.network.graph.WirelessNetwork._build_neighbor_lists",
}


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
    GLOBAL_COUNTERS.batch("adjacency").record(n)
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
