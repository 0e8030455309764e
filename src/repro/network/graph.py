"""Unit-disk connectivity with constant-time spatial range queries.

:class:`WirelessNetwork` is the authoritative global state of a simulated
deployment: node locations, the unit-disk neighbor relation induced by the
radio range, planarized (Gabriel / RNG) neighbor subsets for perimeter
routing, and the whole-network weighted graph the centralized SMT baseline
searches (also offered as a :mod:`networkx` view for connectivity checks).

Protocol implementations never touch this class directly — they see only the
per-node :class:`repro.routing.base.NodeView` carved out of it, which is how
the paper's locality constraint is enforced in code.

Internally the network is struct-of-arrays: node coordinates, liveness and
residual energy are flat NumPy arrays, and all three neighbor relations
(unit-disk, Gabriel, RNG) share one CSR representation
(:class:`CSRAdjacency`) whose rows are O(1) array slices, built in one
batched :func:`repro.perf.kernels.unit_disk_rows` call.  ``neighbors_of``
hands out tuples of plain ints.
"""

from __future__ import annotations

import bisect
import math
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    MutableSequence,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    overload,
)

import networkx as nx
import numpy as np

from repro.geometry import Point
from repro.network.node import SensorNode
from repro.network.planar import gabriel_neighbors, rng_neighbors
from repro.network.radio import RadioConfig
from repro.perf.kernels import unit_disk_rows


class SpatialGrid:
    """Uniform hash grid over the plane for radius queries.

    Each occupied cell precomputes the tight bounding box of the points it
    actually holds, so a query can discard cells whose contents cannot
    intersect the disk (the corner cells of the scan square usually cannot)
    and bulk-accept cells that lie entirely inside it — without touching a
    single point.  Both prunes are conservative: the returned indices, and
    their order, are identical to the plain per-point scan.
    """

    def __init__(self, points: Sequence[Point], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        # A list of Points on built grids; the shared (n, 2) coordinate
        # array on grids attached over a shared-memory plane (same values,
        # same indexing — converted back to a list on first relocation).
        self._points: Union[List[Point], np.ndarray] = list(points)
        for idx, p in enumerate(self._points):
            self._cells.setdefault(self._cell_of(p), []).append(idx)
        # Tight per-cell bounds (min_x, min_y, max_x, max_y) over members.
        self._bounds: Dict[Tuple[int, int], Tuple[float, float, float, float]] = {}
        for cell in self._cells:
            self._refresh_cell(cell)

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (int(math.floor(p[0] / self._cell_size)), int(math.floor(p[1] / self._cell_size)))

    def _refresh_cell(self, cell: Tuple[int, int]) -> None:
        """Recompute one cell's bounds from its member list."""
        members = self._cells.get(cell)
        if not members:
            self._cells.pop(cell, None)
            self._bounds.pop(cell, None)
            return
        xs = [self._points[i][0] for i in members]
        ys = [self._points[i][1] for i in members]
        self._bounds[cell] = (min(xs), min(ys), max(xs), max(ys))

    def remove_point(self, idx: int) -> None:
        """Drop point ``idx`` from the grid (its slot stays allocated).

        Subsequent queries never return ``idx``; the cell's bounds are
        recomputed so both prunes stay tight.
        """
        cell = self._cell_of(self._points[idx])
        members = self._cells.get(cell)
        if members is None or idx not in members:
            raise KeyError(f"point {idx} is not in the grid")
        members.remove(idx)
        self._refresh_cell(cell)

    def move_point(self, idx: int, new_point: Point) -> None:
        """Relocate point ``idx``, keeping per-cell member order by index.

        Members are kept sorted by index within each cell — the order a
        fresh build produces — so queries against a mutated grid return
        hits in exactly the order a rebuilt grid would.
        """
        self._ensure_private_points()
        old_cell = self._cell_of(self._points[idx])
        members = self._cells.get(old_cell)
        if members is None or idx not in members:
            raise KeyError(f"point {idx} is not in the grid")
        self._points[idx] = new_point
        new_cell = self._cell_of(new_point)
        if new_cell == old_cell:
            self._refresh_cell(old_cell)
            return
        members.remove(idx)
        self._refresh_cell(old_cell)
        target = self._cells.setdefault(new_cell, [])
        bisect.insort(target, idx)
        self._refresh_cell(new_cell)

    # ------------------------------------------------------------------
    # Shared-memory plane support (see repro.perf.shm)
    # ------------------------------------------------------------------

    def packed_arrays(self) -> Dict[str, np.ndarray]:
        """The occupied cells flattened into plane-mappable flat arrays.

        Cells are emitted in sorted key order: ``grid_cells[i]`` is the
        key of the cell whose members occupy
        ``grid_members[grid_indptr[i]:grid_indptr[i+1]]``, with the tight
        per-cell bounds in ``grid_bounds[i]``.
        """
        cells = sorted(self._cells)
        members = [self._cells[cell] for cell in cells]
        indptr = np.zeros(len(cells) + 1, dtype=np.intp)
        np.cumsum([len(row) for row in members], out=indptr[1:])
        return {
            "grid_cells": np.array(cells, dtype=np.int64),
            "grid_indptr": indptr,
            "grid_members": np.array(
                [idx for row in members for idx in row], dtype=np.intp
            ),
            "grid_bounds": np.array(
                [self._bounds[cell] for cell in cells], dtype=float
            ),
        }

    @classmethod
    def from_packed(
        cls,
        points: np.ndarray,
        cell_size: float,
        arrays: Dict[str, np.ndarray],
    ) -> "SpatialGrid":
        """Rebuild a grid over mapped arrays — the attach-side twin of ``__init__``.

        Member lists are materialized as plain ints — exactly what a fresh
        build holds, so query results, and their order, are
        indistinguishable from a rebuilt grid's.
        """
        grid = cls.__new__(cls)
        grid._cell_size = float(cell_size)
        grid._points = points
        grid._cells = {}
        grid._bounds = {}
        starts = arrays["grid_indptr"].tolist()
        members = arrays["grid_members"]
        for i, (key, row) in enumerate(
            zip(arrays["grid_cells"].tolist(), arrays["grid_bounds"].tolist())
        ):
            cell = (key[0], key[1])
            grid._cells[cell] = members[starts[i] : starts[i + 1]].tolist()
            grid._bounds[cell] = (row[0], row[1], row[2], row[3])
        return grid

    def _ensure_private_points(self) -> None:
        """Copy-on-write for the point table of an attached (shared) grid.

        The attach path leaves ``_points`` as the mapped coordinate array;
        the first relocation converts it back to the private list of
        Points a fresh build holds.  Values are unchanged, so every
        derived structure stays exact — nothing to invalidate (R012
        exempts the configured copy-on-write hooks for exactly this
        reason); reprolint R017 pins that relocations reach this before
        writing.
        """
        if isinstance(self._points, np.ndarray):
            self._points = [Point(float(p[0]), float(p[1])) for p in self._points]

    def indices_within(self, center: Point, radius: float) -> List[int]:
        """Indices of points within ``radius`` of ``center`` (inclusive)."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        reach = int(math.ceil(radius / self._cell_size))
        cx, cy = self._cell_of(center)
        hits: List[int] = []
        radius_sq = radius * radius
        px, py = center[0], center[1]
        cells = self._cells
        bounds = self._bounds
        points = self._points
        for gx in range(cx - reach, cx + reach + 1):
            inner_x = gx != cx - reach and gx != cx + reach
            for gy in range(cy - reach, cy + reach + 1):
                members = cells.get((gx, gy))
                if not members:
                    continue
                min_x, min_y, max_x, max_y = bounds[(gx, gy)]
                if not (inner_x and gy != cy - reach and gy != cy + reach):
                    # A cell on the outer ring of the scan square may miss
                    # the disk entirely: if even the nearest point of the
                    # cell's bounding box is outside, no member is inside.
                    # (Interior cells always intersect — skip the test.)
                    near_dx = (
                        min_x - px
                        if px < min_x
                        else (px - max_x if px > max_x else 0.0)
                    )
                    near_dy = (
                        min_y - py
                        if py < min_y
                        else (py - max_y if py > max_y else 0.0)
                    )
                    if near_dx * near_dx + near_dy * near_dy > radius_sq:
                        continue
                # Farthest corner of the bounding box inside the disk:
                # every member is inside, skip the per-point checks.
                far_dx = px - min_x if px - min_x > max_x - px else max_x - px
                far_dy = py - min_y if py - min_y > max_y - py else max_y - py
                if far_dx * far_dx + far_dy * far_dy <= radius_sq:
                    hits.extend(members)
                    continue
                for idx in members:
                    p = points[idx]
                    dx = p[0] - px
                    dy = p[1] - py
                    if dx * dx + dy * dy <= radius_sq:
                        hits.append(idx)
        return hits


class CSRAdjacency:
    """Compressed-sparse-row adjacency with copy-on-write row overrides.

    ``indices[indptr[i]:indptr[i+1]]`` is row ``i`` — the ascending ids
    adjacent to node ``i``.  :meth:`row` is an O(1) read-only array slice;
    :meth:`row_tuple` memoizes the plain-int tuple the public API hands out;
    :meth:`contains` binary-searches that tuple.  Mutations (node
    failures, mobility) replace whole rows via :meth:`set_row` in a sparse
    override dict, leaving the packed base arrays untouched — churn touches
    a handful of nodes out of tens of thousands, so repacking would be
    wasted work.  The unit-disk relation and both planar overlays share
    this one representation.
    """

    __slots__ = ("indptr", "indices", "_overrides", "_tuples")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indices.setflags(write=False)
        self._overrides: Dict[int, np.ndarray] = {}
        self._tuples: List[Optional[Tuple[int, ...]]] = [None] * (
            len(self.indptr) - 1
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CSRAdjacency":
        """Pack per-node ascending id sequences into ``(indptr, indices)``."""
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(
            np.fromiter((len(row) for row in rows), dtype=np.intp, count=len(rows)),
            out=indptr[1:],
        )
        indices = np.empty(int(indptr[-1]), dtype=np.intp)
        position = 0
        for row in rows:
            indices[position : position + len(row)] = row
            position += len(row)
        return cls(indptr, indices)

    def __len__(self) -> int:
        return len(self._tuples)

    def degree(self, node_id: int) -> int:
        override = self._overrides.get(node_id)
        if override is not None:
            return int(override.shape[0])
        return int(self.indptr[node_id + 1] - self.indptr[node_id])

    def row(self, node_id: int) -> np.ndarray:
        """Row ``node_id`` as a read-only ascending id array (O(1) slice)."""
        override = self._overrides.get(node_id)
        if override is not None:
            return override
        return self.indices[self.indptr[node_id] : self.indptr[node_id + 1]]

    def row_tuple(self, node_id: int) -> Tuple[int, ...]:
        """Row ``node_id`` as a tuple of plain ints (memoized).

        The tuple form is what the layers above consume: hashable (the
        beacon service keys its planarization memo on it), holding plain
        ``int`` (energy-meter dict keys, trace digests), and cheap to
        iterate per hop.
        """
        cached = self._tuples[node_id]
        if cached is None:
            cached = tuple(self.row(node_id).tolist())
            self._tuples[node_id] = cached
        return cached

    def contains(self, node_id: int, other: int) -> bool:
        """Binary-search membership test on the sorted, memoized row tuple."""
        row = self.row_tuple(node_id)
        position = bisect.bisect_left(row, other)
        return position < len(row) and row[position] == other

    def set_row(self, node_id: int, ids: Sequence[int]) -> None:
        """Replace row ``node_id`` (ascending ids), keeping the base packed."""
        override = np.array(ids, dtype=np.intp)
        override.setflags(write=False)
        self._overrides[node_id] = override
        self._tuples[node_id] = None


class _SharedNodeList(MutableSequence[SensorNode]):
    """Lazily-materialized node objects over a shared coordinate array.

    An attached network maps its coordinates zero-copy; building all n
    ``SensorNode`` objects eagerly would cost more than the whole attach.
    Slots materialize on first access and are then pinned, so callers
    that rely on object identity (planarization lambdas, ``to_networkx``)
    see stable nodes.  The only mutation the network performs is
    ``move_node``'s single-slot overwrite; structural edits are refused —
    a deployment's node count is fixed for its lifetime.
    """

    __slots__ = ("_locations", "_nodes")

    def __init__(self, locations: np.ndarray) -> None:
        self._locations = locations
        self._nodes: List[Optional[SensorNode]] = [None] * int(locations.shape[0])

    def __len__(self) -> int:
        return len(self._nodes)

    @overload
    def __getitem__(self, index: int) -> SensorNode: ...

    @overload
    def __getitem__(self, index: slice) -> MutableSequence[SensorNode]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SensorNode, MutableSequence[SensorNode]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._nodes)))]
        if index < 0:
            index += len(self._nodes)
        if not 0 <= index < len(self._nodes):
            raise IndexError("node index out of range")
        node = self._nodes[index]
        if node is None:
            row = self._locations[index]
            node = SensorNode(
                node_id=index, location=Point(float(row[0]), float(row[1]))
            )
            self._nodes[index] = node
        return node

    @overload
    def __setitem__(self, index: int, value: SensorNode) -> None: ...

    @overload
    def __setitem__(self, index: slice, value: Iterable[SensorNode]) -> None: ...

    def __setitem__(
        self,
        index: Union[int, slice],
        value: Union[SensorNode, Iterable[SensorNode]],
    ) -> None:
        if isinstance(index, slice) or not isinstance(value, SensorNode):
            raise TypeError("only single-slot node assignment is supported")
        self._nodes[index] = value

    def __delitem__(self, index: Union[int, slice]) -> None:
        raise TypeError("a deployment's node count is fixed")

    def insert(self, index: int, value: SensorNode) -> None:
        raise TypeError("a deployment's node count is fixed")


class WeightedAdjacency(NamedTuple):
    """A weighted undirected graph over dense positions ``0 .. m-1``.

    ``labels[p]`` is the node id at position ``p`` and ``positions`` maps
    ids back (it is the graph's membership test).  ``rows[p]`` lists the
    ``(neighbor position, weight)`` pairs of ``p`` in the order a search
    relaxes them; weights are finite and non-negative.  This is the form
    SMT's KMB search walks (:func:`repro.steiner.kmb.kmb_steiner_tree`):
    dense positions let it keep its per-node state in flat lists.
    """

    labels: Sequence[int]
    positions: Mapping[int, int]
    rows: Sequence[Sequence[Tuple[int, float]]]


class WirelessNetwork:
    """A deployed sensor network: nodes, links, and planar overlays."""

    #: Object view of the nodes — a plain list on built networks, a
    #: lazily-materializing :class:`_SharedNodeList` on attached ones
    #: (identical indexing and iteration behavior).
    nodes: MutableSequence[SensorNode]

    def __init__(
        self,
        points: Sequence[Point],
        radio: RadioConfig,
        initial_energy_j: float = math.inf,
    ) -> None:
        if not points:
            raise ValueError("a network needs at least one node")
        self.radio = radio
        self.nodes = [
            SensorNode(node_id=i, location=Point(float(p[0]), float(p[1])))
            for i, p in enumerate(points)
        ]
        count = len(self.nodes)
        # Struct-of-arrays node state: coordinates, liveness and residual
        # energy are flat arrays so whole-network passes (adjacency builds,
        # nearest-node scans, churn bookkeeping) touch no Python objects.
        # ``nodes`` keeps the object view for the per-node layers above.
        self.locations = np.array([[p[0], p[1]] for p in points], dtype=float)
        self.alive = np.ones(count, dtype=bool)
        self.residual_energy_j = np.full(count, float(initial_energy_j), dtype=float)
        self._grid = SpatialGrid([n.location for n in self.nodes], radio.radio_range_m)
        indptr, indices = unit_disk_rows(
            self.locations[:, 0], self.locations[:, 1], radio.radio_range_m
        )
        self._adjacency = CSRAdjacency(indptr, indices)
        self._gabriel_cache: Dict[int, Tuple[int, ...]] = {}
        self._rng_cache: Dict[int, Tuple[int, ...]] = {}
        self._gabriel_csr: Optional[CSRAdjacency] = None
        self._rng_csr: Optional[CSRAdjacency] = None
        self._neighbor_arrays: List[Optional[np.ndarray]] = [None] * count
        self._weighted: Optional[WeightedAdjacency] = None
        self._failed: Set[int] = set()
        # True while the flat node-state arrays are views of a shared-memory
        # segment (attached worker view, or the parent after publishing);
        # the first mutation copies them private (_ensure_private_node_state).
        self._shared_state = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_neighbor_lists(self) -> List[Tuple[int, ...]]:
        """Per-node unit-disk rows via grid range queries (one per node).

        The scalar reference for the batched
        :func:`repro.perf.kernels.unit_disk_rows` kernel the constructor
        uses: both apply the same inclusive ``dx*dx + dy*dy <= r*r`` test,
        so the rows are identical (checked by the kernel parity tests).
        """
        neighbor_lists: List[Tuple[int, ...]] = []
        rr = self.radio.radio_range_m
        for node in self.nodes:
            in_range = self._grid.indices_within(node.location, rr)
            neighbor_lists.append(
                tuple(sorted(i for i in in_range if i != node.node_id))
            )
        return neighbor_lists

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def location_of(self, node_id: int) -> Point:
        """Coordinates of node ``node_id``."""
        return self.nodes[node_id].location

    def neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        """Ids of all nodes within radio range of ``node_id`` (excluding itself)."""
        return self._adjacency.row_tuple(node_id)

    def neighbor_ids_array(self, node_id: int) -> np.ndarray:
        """Neighbor ids as a read-only ascending array (O(1) CSR row slice)."""
        return self._adjacency.row(node_id)

    @property
    def adjacency(self) -> CSRAdjacency:
        """The unit-disk CSR adjacency; row ``i`` == ``neighbors_of(i)``."""
        return self._adjacency

    def nodes_within(self, center: Point, radius: float) -> List[int]:
        """Ids of nodes within ``radius`` of an arbitrary point."""
        return self._grid.indices_within(center, radius)

    def listeners_of(self, sender_id: int) -> Tuple[int, ...]:
        """Nodes that overhear a transmission by ``sender_id``.

        With an omnidirectional antenna every node inside the sender's radio
        range receives the signal and pays receive power — this is the set
        the energy model of Section 5.3 charges.
        """
        return self._adjacency.row_tuple(sender_id)

    def are_neighbors(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` share a direct radio link.

        Binary search of the sorted CSR row (O(log degree)).
        """
        return self._adjacency.contains(a, b)

    def neighbor_location_array(self, node_id: int) -> np.ndarray:
        """Locations of ``node_id``'s neighbors as a read-only ``(m, 2)`` array.

        Aligned with :meth:`neighbors_of`.  Built once per node and cached —
        every next-hop scan used to re-gather the same rows from
        :attr:`locations` on each forwarding decision, which dominated the
        per-hop cost of next-hop selection.
        """
        cached = self._neighbor_arrays[node_id]
        if cached is None:
            cached = self.locations[self._adjacency.row(node_id)]
            cached.setflags(write=False)
            self._neighbor_arrays[node_id] = cached
        return cached

    def average_degree(self) -> float:
        """Mean neighbor count across nodes — the usual density proxy."""
        if not self.nodes:
            return 0.0
        adjacency = self._adjacency
        return sum(adjacency.degree(i) for i in range(len(self.nodes))) / len(
            self.nodes
        )

    def closest_node_to(self, target: Point) -> int:
        """Id of the node nearest to an arbitrary location (failed excluded)."""
        deltas = self.locations - np.asarray([target[0], target[1]])
        dist_sq = np.einsum("ij,ij->i", deltas, deltas)
        dist_sq[~self.alive] = np.inf
        return int(np.argmin(dist_sq))

    # ------------------------------------------------------------------
    # Residual energy (deployment-lifetime ledger)
    # ------------------------------------------------------------------

    def residual_energy_of(self, node_id: int) -> float:
        """Remaining battery charge of ``node_id`` in joules."""
        return float(self.residual_energy_j[node_id])

    def drain_energy(self, node_id: int, joules: float) -> float:
        """Subtract ``joules`` from a node's battery; returns the remainder.

        Clamped at zero.  Deciding when a drained node *fails* is
        deliberately left to the churn layers (via :meth:`fail_node`) so
        energy accounting stays side-effect-free; per-task metering stays in
        :class:`repro.network.energy.EnergyMeter`, while this array is the
        whole-deployment ledger the lifetime experiments read.
        """
        if joules < 0.0:
            raise ValueError(f"cannot drain a negative amount ({joules})")
        self._ensure_private_node_state()
        remaining = self.residual_energy_j[node_id] - joules
        if remaining < 0.0:
            remaining = 0.0
        self.residual_energy_j[node_id] = remaining
        return float(remaining)

    # ------------------------------------------------------------------
    # Shared-memory plane support (see repro.perf.shm)
    # ------------------------------------------------------------------

    def shared_state_arrays(self) -> Optional[Dict[str, np.ndarray]]:
        """The flat arrays a shared-memory plane serializes, or ``None``.

        ``None`` marks the network non-publishable: it is already mutated
        (failures / CSR row overrides) — a mutated deployment is
        worker-local by definition and must never be shared.  Planar
        overlays are included only when already materialized; attachers
        rebuild them lazily otherwise, bit-identically.
        """
        if self._failed or self._adjacency._overrides:
            return None
        arrays: Dict[str, np.ndarray] = {
            "locations": self.locations,
            "alive": self.alive,
            "residual_energy": self.residual_energy_j,
            "adjacency_indptr": self._adjacency.indptr,
            "adjacency_indices": self._adjacency.indices,
        }
        arrays.update(self._grid.packed_arrays())
        if self._gabriel_csr is not None and not self._gabriel_csr._overrides:
            arrays["gabriel_indptr"] = self._gabriel_csr.indptr
            arrays["gabriel_indices"] = self._gabriel_csr.indices
        if self._rng_csr is not None and not self._rng_csr._overrides:
            arrays["rng_indptr"] = self._rng_csr.indptr
            arrays["rng_indices"] = self._rng_csr.indices
        return arrays

    def adopt_shared_arrays(
        self, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Re-point this network's flat state at published shared views.

        Called by ``repro.perf.shm.SharedNetworkPlane.publish`` right
        after copying this network's arrays into a segment: the parent
        drops its private copies and reads the same mapped bytes workers
        attach, so each deployment's node state is resident once per
        machine rather than once per process.  Every value is
        bit-identical to the array it replaces, so all derived caches
        remain exact — there is nothing to invalidate (R012 exempts the
        configured copy-on-write hooks); the first subsequent mutation
        goes through the same copy-on-write path as an attached network's.
        """
        self.locations = arrays["locations"]
        self.alive = arrays["alive"]
        self.residual_energy_j = arrays["residual_energy"]
        self._adjacency.indptr = arrays["adjacency_indptr"]
        self._adjacency.indices = arrays["adjacency_indices"]
        if self._gabriel_csr is not None and "gabriel_indptr" in arrays:
            self._gabriel_csr.indptr = arrays["gabriel_indptr"]
            self._gabriel_csr.indices = arrays["gabriel_indices"]
        if self._rng_csr is not None and "rng_indptr" in arrays:
            self._rng_csr.indptr = arrays["rng_indptr"]
            self._rng_csr.indices = arrays["rng_indices"]
        self._shared_state = True

    def _ensure_private_node_state(self) -> None:
        """Copy-on-write: make the flat node state private before a write.

        No-op on ordinary networks.  On a shared-backed one (attached, or
        the publishing parent after :meth:`adopt_shared_arrays`) this
        copies the mutable per-node arrays out of the mapped segment, so
        worker-local failures, moves and energy drains never touch bytes
        other processes read.  Values are unchanged, so derived caches
        stay exact and nothing needs invalidating (R012 exempts the
        configured copy-on-write hooks); reprolint R017 enforces that
        every mutator of shared-capable arrays reaches this first.  The
        CSR adjacency stays shared: its mutation path is already
        copy-on-write (sparse ``set_row`` overrides).
        """
        if not self._shared_state:
            return
        self.locations = self.locations.copy()
        self.alive = self.alive.copy()
        self.residual_energy_j = self.residual_energy_j.copy()
        self._shared_state = False

    # ------------------------------------------------------------------
    # Mutation (node failures and mobility) with cache invalidation
    # ------------------------------------------------------------------

    @property
    def failed_nodes(self) -> frozenset:
        """Ids of nodes killed by :meth:`fail_node`."""
        return frozenset(self._failed)

    def _invalidate_node(self, node_id: int) -> None:
        """Drop every derived structure touching ``node_id``."""
        self._gabriel_cache.pop(node_id, None)
        self._rng_cache.pop(node_id, None)
        self._neighbor_arrays[node_id] = None
        # Whole-graph views are rebuilt lazily after any mutation.
        self._gabriel_csr = None
        self._rng_csr = None
        self._weighted = None

    def fail_node(self, node_id: int) -> None:
        """Kill node ``node_id``: it vanishes from every topology query.

        The spatial grid drops the point (per-cell bounds recomputed), the
        failed node is removed from each former neighbor's table, and all
        derived caches of the affected nodes — planarized neighbor subsets,
        :meth:`neighbor_location_array` rows, the weighted graph — are
        invalidated.  After this call every query answers exactly as a
        network freshly built from the surviving nodes.
        """
        if node_id in self._failed:
            raise ValueError(f"node {node_id} has already failed")
        self._ensure_private_node_state()
        former = self._adjacency.row_tuple(node_id)
        self._failed.add(node_id)
        self.alive[node_id] = False
        self._grid.remove_point(node_id)
        for n in former:
            row = self._adjacency.row(n)
            self._adjacency.set_row(n, row[row != node_id])
            self._invalidate_node(n)
        self._adjacency.set_row(node_id, ())
        self._invalidate_node(node_id)

    def move_node(self, node_id: int, new_location: Point) -> None:
        """Relocate a live node, rebuilding exactly the affected state.

        Neighbor tables of the moved node, of its former neighbors and of
        its new neighbors are recomputed from the grid; their planarization
        and location-array caches are invalidated.  Untouched nodes keep
        their cached structures — the regression tests diff the result
        against a network rebuilt from scratch.
        """
        if node_id in self._failed:
            raise ValueError(f"cannot move failed node {node_id}")
        self._ensure_private_node_state()
        new_location = Point(float(new_location[0]), float(new_location[1]))
        old_neighbors = self._adjacency.row_tuple(node_id)
        self.nodes[node_id] = SensorNode(node_id=node_id, location=new_location)
        self.locations[node_id] = (new_location[0], new_location[1])
        self._grid.move_point(node_id, new_location)
        rr = self.radio.radio_range_m
        new_row = sorted(
            i for i in self._grid.indices_within(new_location, rr) if i != node_id
        )
        self._adjacency.set_row(node_id, new_row)
        affected = set(old_neighbors) | set(new_row)
        for n in affected:
            self._adjacency.set_row(
                n,
                sorted(
                    i
                    for i in self._grid.indices_within(self.nodes[n].location, rr)
                    if i != n
                ),
            )
            self._invalidate_node(n)
        self._invalidate_node(node_id)

    # ------------------------------------------------------------------
    # Planar overlays (local computations, cached)
    # ------------------------------------------------------------------

    def gabriel_neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        """Neighbors kept by the Gabriel-graph planarization at ``node_id``.

        Computed from purely local information (the node's own neighbor
        table), exactly as GPSR/GMP planarize in the field.
        """
        if node_id not in self._gabriel_cache:
            self._gabriel_cache[node_id] = gabriel_neighbors(
                node_id,
                self._adjacency.row_tuple(node_id),
                lambda i: self.nodes[i].location,
            )
        return self._gabriel_cache[node_id]

    def rng_neighbors_of(self, node_id: int) -> Tuple[int, ...]:
        """Neighbors kept by the Relative-Neighborhood-Graph planarization."""
        if node_id not in self._rng_cache:
            self._rng_cache[node_id] = rng_neighbors(
                node_id,
                self._adjacency.row_tuple(node_id),
                lambda i: self.nodes[i].location,
            )
        return self._rng_cache[node_id]

    def gabriel_adjacency(self) -> CSRAdjacency:
        """Whole-network Gabriel overlay as a CSR adjacency (lazily built).

        Shares the representation of the unit-disk adjacency: row ``i``
        equals :meth:`gabriel_neighbors_of`.  Invalidated as a whole by any
        topology mutation.
        """
        if self._gabriel_csr is None:
            self._gabriel_csr = CSRAdjacency.from_rows(
                [self.gabriel_neighbors_of(i) for i in range(len(self.nodes))]
            )
        return self._gabriel_csr

    def rng_adjacency(self) -> CSRAdjacency:
        """Whole-network RNG overlay as a CSR adjacency (lazily built)."""
        if self._rng_csr is None:
            self._rng_csr = CSRAdjacency.from_rows(
                [self.rng_neighbors_of(i) for i in range(len(self.nodes))]
            )
        return self._rng_csr

    # ------------------------------------------------------------------
    # Global views (for SMT and diagnostics only)
    # ------------------------------------------------------------------

    def weighted_adjacency(self) -> WeightedAdjacency:
        """The unit-disk graph of the live nodes, weighted in meters (cached).

        The one source of edge weights: SMT's KMB search walks it and
        :meth:`to_networkx` copies it.  Positions follow ascending node id
        (they equal the ids while no node has failed) and each row lists
        neighbors in ascending order.  Every weight is ``sqrt(dx*dx +
        dy*dy)`` from the lower id to the higher id, the formula of
        :func:`repro.geometry.distance`, so both directions of an edge
        carry the same float.
        """
        if self._weighted is None:
            ids = np.flatnonzero(self.alive)
            rows = [self._adjacency.row(u) for u in ids.tolist()]
            lengths = [row.shape[0] for row in rows]
            sources = np.repeat(ids, lengths)
            targets = np.concatenate(rows or [np.empty(0, dtype=np.intp)])
            low = np.minimum(sources, targets)
            high = np.maximum(sources, targets)
            dx = self.locations[low, 0] - self.locations[high, 0]
            dy = self.locations[low, 1] - self.locations[high, 1]
            weights = np.sqrt(dx * dx + dy * dy).tolist()
            position = np.full(len(self.nodes), -1, dtype=np.intp)
            position[ids] = np.arange(ids.shape[0])
            neighbors = position[targets].tolist()
            pair_rows: List[Tuple[Tuple[int, float], ...]] = []
            start = 0
            for length in lengths:
                end = start + length
                pair_rows.append(tuple(zip(neighbors[start:end], weights[start:end])))
                start = end
            labels = ids.tolist()
            self._weighted = WeightedAdjacency(
                labels, {u: p for p, u in enumerate(labels)}, pair_rows
            )
        return self._weighted

    def to_networkx(self) -> nx.Graph:
        """The unit-disk graph with Euclidean edge weights, as ``networkx``.

        Built on each call from :meth:`weighted_adjacency`, in ascending
        node and neighbor order, so the two can never disagree.  For
        diagnostics such as :meth:`is_connected`; no routing path uses it.
        """
        labels, _, rows = self.weighted_adjacency()
        graph = nx.Graph()
        for u in labels:
            graph.add_node(u, location=self.nodes[u].location)
        for p, row in enumerate(rows):
            for q, w in row:
                if q > p:
                    graph.add_edge(labels[p], labels[q], weight=w)
        return graph

    def is_connected(self) -> bool:
        """Whether the unit-disk graph is a single component."""
        return nx.is_connected(self.to_networkx())


def build_network(
    points: Iterable[Point],
    radio: RadioConfig | None = None,
) -> WirelessNetwork:
    """Convenience constructor with Table-1 radio defaults."""
    return WirelessNetwork(list(points), radio or RadioConfig())


def attach_shared_network(
    radio: RadioConfig, arrays: Dict[str, np.ndarray]
) -> WirelessNetwork:
    """Reconstruct a read-only ``WirelessNetwork`` over mapped plane buffers.

    The attach-side twin of :meth:`WirelessNetwork.shared_state_arrays`
    (the plane in ``repro.perf.shm`` provides ``arrays`` as read-only
    views of a ``multiprocessing.shared_memory`` segment): node state,
    the CSR adjacency and any published planar overlays are used
    zero-copy; the spatial grid's member lists are rebuilt from the
    packed cells; node objects materialize lazily; and every derived
    cache starts empty and fills exactly as a fresh build's would — so
    queries, traces and digests are byte-identical to a network built
    from scratch.  Mutators copy node
    state private on first write (:meth:`_ensure_private_node_state`),
    keeping the mapped segment immutable.
    """
    network = WirelessNetwork.__new__(WirelessNetwork)
    network.radio = radio
    network.locations = arrays["locations"]
    network.alive = arrays["alive"]
    network.residual_energy_j = arrays["residual_energy"]
    count = int(network.locations.shape[0])
    network.nodes = _SharedNodeList(network.locations)
    network._grid = SpatialGrid.from_packed(
        network.locations, radio.radio_range_m, arrays
    )
    network._adjacency = CSRAdjacency(
        arrays["adjacency_indptr"], arrays["adjacency_indices"]
    )
    network._gabriel_cache = {}
    network._rng_cache = {}
    network._gabriel_csr = (
        CSRAdjacency(arrays["gabriel_indptr"], arrays["gabriel_indices"])
        if "gabriel_indptr" in arrays
        else None
    )
    network._rng_csr = (
        CSRAdjacency(arrays["rng_indptr"], arrays["rng_indices"])
        if "rng_indptr" in arrays
        else None
    )
    network._neighbor_arrays = [None] * count
    network._weighted = None
    network._failed = set()
    network._shared_state = True
    return network
