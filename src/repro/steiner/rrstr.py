"""rrSTR: the reduction-ratio heuristic for Euclidean Steiner trees.

Implements Figure 3 of the paper.  Starting from the source and the set of
destinations, the algorithm repeatedly pops the *active* destination pair
with the largest reduction ratio and either

* merges the pair under a freshly created **virtual destination** at the
  pair's exact 3-point Steiner point (the general case), or
* resolves one of the collocation degeneracies (Steiner point at the source
  or at one of the pair's endpoints), or
* — in the radio-range-aware variant (Section 3.3) — suppresses the virtual
  destination when it would only add redundant hops inside the current
  node's radio range.

Self-pairs ``(u, u)`` model the "lone remaining destination" case and are
ranked strictly below every true pair, so they are consumed last; this
matches the paper's Figure-4 walk-through where pair ``(c, c)`` is found
"at last" and edge ``sc`` closes the tree.

Known discrepancy in the paper (documented in DESIGN.md): for the
"exactly one endpoint within radio range, virtual destination *not*
beneficial" case, Figure 3's pseudocode deactivates the pair while Section
3.3's prose attaches both endpoints under the source.  The pseudocode is the
default here; ``RRStrConfig(prose_one_in_range_rule=True)`` switches to the
prose behaviour (exercised by an ablation benchmark).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, distance, nearly_equal_points
from repro.perf.cache import cached_fermat_point
from repro.perf.kernels import (
    MIN_BATCH,
    fermat_point_batch,
    pair_indices,
    pairwise_distances,
    reduction_ratio_batch,
)
from repro.steiner.reduction_ratio import reduction_ratio_point
from repro.steiner.tree import SteinerTree

#: Heap key guaranteed to sort after every true pair's key (-RR <= ~0) so
#: that self-pairs are consumed only when nothing better remains.
_SELF_PAIR_KEY = 1.0


@dataclass(frozen=True)
class RRStrConfig:
    """Tunables of the rrSTR construction.

    Attributes:
        radio_aware: Apply the Section-3.3 radio-range rules (the paper's
            GMP).  ``False`` reproduces the basic algorithm (GMPnr).
        prose_one_in_range_rule: Resolve the pseudocode/prose discrepancy
            (see module docstring) in favour of the prose.
        refine: Run the re-attachment refinement after the greedy merge
            (see :func:`refine_tree`).  The greedy pass alone deactivates
            pair endpoints permanently, so a late destination can be forced
            onto a distant attachment point even when an earlier-covered
            vertex sits right next to it; measured over uniform workloads
            this leaves the raw greedy tree ~10–20% *longer* than the plain
            destination MST at k >= 10, which would invert the paper's
            Figure-11 ordering.  The refinement re-parents vertices to their
            nearest non-subtree vertex (and splices out degenerate virtual
            vertices), restoring the Steiner-grade quality the paper reports
            while reusing the RR-placed virtual points.  Documented as an
            implementation deviation in DESIGN.md; flip off for the
            ablation benchmark.
        collocation_tolerance: Distance (meters) below which a Steiner point
            counts as collocated with the source or a destination.
    """

    radio_aware: bool = True
    prose_one_in_range_rule: bool = False
    refine: bool = True
    refine_max_stretch: float = 1.05
    terminal_merge_fraction: float = 0.0
    collocation_tolerance: float = 1e-7


def rrstr(
    source_location: Point,
    destinations: Sequence[Tuple[int, Point]],
    radio_range: float,
    config: RRStrConfig | None = None,
) -> SteinerTree:
    """Build a virtual Euclidean Steiner tree rooted at the current node.

    Args:
        source_location: Location of the transmitting node (tree root).
        destinations: ``(node_id, location)`` pairs of the multicast
            destinations still to be reached.
        radio_range: The transmitting node's radio range (only used by the
            radio-aware rules).
        config: Optional :class:`RRStrConfig`; defaults to the paper's GMP
            settings (radio-aware, pseudocode rule).

    Returns:
        A :class:`SteinerTree` spanning the source and all destinations,
        possibly containing virtual interior vertices.
    """
    cfg = config or RRStrConfig()
    if radio_range <= 0:
        raise ValueError(f"radio range must be positive, got {radio_range}")
    tree = SteinerTree(source_location)
    if not destinations:
        return tree

    s = source_location
    tolerance = cfg.collocation_tolerance
    active = {}
    # Heap entries carry the Steiner point as two plain floats: the
    # (key, sequence) prefix is unique, so comparisons never reach the
    # coordinate slots, and the Point object is built lazily only for the
    # few pops that survive the activity checks below.
    heap: List[Tuple[float, int, int, int, float, float]] = []
    sequence = 0

    def push_pair(
        u_vid: int,
        v_vid: int,
        precomputed: Optional[Tuple[float, Sequence[float]]] = None,
    ) -> None:
        nonlocal sequence
        if u_vid == v_vid:
            u_loc = tree.vertex(u_vid).location
            entry = (_SELF_PAIR_KEY, sequence, u_vid, u_vid, u_loc[0], u_loc[1])
        else:
            if precomputed is None:
                rr, steiner = reduction_ratio_point(
                    s, tree.vertex(u_vid).location, tree.vertex(v_vid).location
                )
                sx, sy = steiner[0], steiner[1]
            else:
                rr, (sx, sy) = precomputed
            entry = (-rr, sequence, u_vid, v_vid, sx, sy)
        heapq.heappush(heap, entry)
        sequence += 1

    def batch_pairs_against(
        u_vid: int, partner_vids: Sequence[int]
    ) -> Optional[List[Tuple[float, Sequence[float]]]]:
        """Reduction ratios of ``(u, partner)`` for every partner, in order.

        Returns ``None`` when the batch is too small to beat the kernel
        dispatch overhead (the caller then takes the scalar path); results
        are bit-identical either way.  Each element is ``(rr, (tx, ty))``
        with plain Python floats.
        """
        if len(partner_vids) < MIN_BATCH:
            return None
        u_loc = tree.vertex(u_vid).location
        us = np.broadcast_to(
            np.array([u_loc[0], u_loc[1]], dtype=float), (len(partner_vids), 2)
        )
        vs = np.array(
            [tree.vertex(v).location for v in partner_vids], dtype=float
        )
        rr_arr, t_arr = reduction_ratio_batch(s, us, vs)
        return list(zip(rr_arr.tolist(), t_arr.tolist()))

    terminal_vids = []
    for ref, location in destinations:
        vid = tree.add_terminal(location, ref)
        terminal_vids.append(vid)
        active[vid] = True

    # Seed the merge heap: all k*(k-1)/2 destination pairs in one batched
    # kernel evaluation (pair_indices matches the nested-loop order below).
    # Entries carry a unique sequence tie-break, so their pop order is their
    # *sorted* order no matter how the heap was built — one heapify over the
    # full seed list replaces k*(k+1)/2 heappush calls without changing any
    # pop.
    k = len(terminal_vids)
    seeded: Optional[List[Tuple[float, Sequence[float]]]] = None
    if k * (k - 1) // 2 >= MIN_BATCH:
        locs = np.array([tree.vertex(v).location for v in terminal_vids], dtype=float)
        row, col = pair_indices(k)
        rr_arr, t_arr = reduction_ratio_batch(s, locs[row], locs[col])
        seeded = list(zip(rr_arr.tolist(), t_arr.tolist()))
    pair_pos = 0
    for i, u_vid in enumerate(terminal_vids):
        u_loc = tree.vertex(u_vid).location
        heap.append((_SELF_PAIR_KEY, sequence, u_vid, u_vid, u_loc[0], u_loc[1]))
        sequence += 1
        for v_vid in terminal_vids[i + 1 :]:
            if seeded is None:
                rr, steiner = reduction_ratio_point(
                    s, u_loc, tree.vertex(v_vid).location
                )
                sx, sy = steiner[0], steiner[1]
            else:
                rr, (sx, sy) = seeded[pair_pos]
            heap.append((-rr, sequence, u_vid, v_vid, sx, sy))
            sequence += 1
            pair_pos += 1
    heapq.heapify(heap)

    dead_pairs = set()

    while heap:
        _, _, u_vid, v_vid, sx, sy = heapq.heappop(heap)
        if not active.get(u_vid, False):
            continue
        if u_vid == v_vid:
            # Lone remaining destination: connect it straight to the source.
            tree.attach(0, u_vid)
            active[u_vid] = False
            continue
        if not active.get(v_vid, False):
            continue
        pair_key = (min(u_vid, v_vid), max(u_vid, v_vid))
        if pair_key in dead_pairs:
            continue
        steiner = Point(sx, sy)

        u_loc = tree.vertex(u_vid).location
        v_loc = tree.vertex(v_vid).location

        # Collocation degeneracies (Figure 3, first three non-trivial cases).
        # At WSN granularity a Steiner point within a fraction of the radio
        # range of a terminal is effectively *at* that terminal: routing
        # through the terminal saves the dedicated spur transmission.
        uv_tolerance = max(tolerance, cfg.terminal_merge_fraction * radio_range)
        if nearly_equal_points(steiner, s, tolerance):
            tree.attach(0, u_vid)
            tree.attach(0, v_vid)
            active[u_vid] = active[v_vid] = False
            continue
        if nearly_equal_points(steiner, u_loc, uv_tolerance):
            tree.attach(u_vid, v_vid)
            active[v_vid] = False
            continue
        if nearly_equal_points(steiner, v_loc, uv_tolerance):
            tree.attach(v_vid, u_vid)
            active[u_vid] = False
            continue

        if cfg.radio_aware:
            d_su = distance(s, u_loc)
            d_sv = distance(s, v_loc)
            # A virtual destination costs one extra hop; it pays off only if
            # rr + d(t,u) + d(t,v) < d(s,u) + d(s,v)   (Section 3.3).
            virtual_beneficial = (
                radio_range + distance(steiner, u_loc) + distance(steiner, v_loc)
                < d_su + d_sv
            )
            u_in_range = d_su <= radio_range
            v_in_range = d_sv <= radio_range
            if u_in_range and v_in_range:
                # Both reachable in one hop: a Steiner detour only adds hops.
                dead_pairs.add(pair_key)
                continue
            if u_in_range or v_in_range:
                near_vid = u_vid if u_in_range else v_vid
                far_vid = v_vid if u_in_range else u_vid
                if not virtual_beneficial:
                    if cfg.prose_one_in_range_rule:
                        tree.attach(0, u_vid)
                        tree.attach(0, v_vid)
                        active[u_vid] = active[v_vid] = False
                    else:
                        dead_pairs.add(pair_key)
                    continue
                # The in-range endpoint stands in for the Steiner point.
                tree.attach(near_vid, far_vid)
                active[far_vid] = False
                continue
            if distance(s, steiner) <= radio_range and not virtual_beneficial:
                # Steiner point a single hop away but not worth the detour:
                # the source itself plays the Steiner point.
                tree.attach(0, u_vid)
                tree.attach(0, v_vid)
                active[u_vid] = active[v_vid] = False
                continue

        # General case: create a virtual destination at the Steiner point.
        w_vid = tree.add_virtual(steiner)
        tree.attach(w_vid, u_vid)
        tree.attach(w_vid, v_vid)
        active[u_vid] = active[v_vid] = False
        active[w_vid] = True
        partners = [
            other_vid
            for other_vid, is_active in list(active.items())
            if is_active and other_vid != w_vid
        ]
        batched = batch_pairs_against(w_vid, partners)
        for index, other_vid in enumerate(partners):
            push_pair(w_vid, other_vid, None if batched is None else batched[index])
        push_pair(w_vid, w_vid)

    if cfg.refine:
        tree = refine_tree(
            tree,
            max_stretch=cfg.refine_max_stretch,
            radio_range=radio_range if cfg.radio_aware else None,
        )
    return tree


def refine_tree(
    tree: SteinerTree,
    max_passes: int = 12,
    max_stretch: float = 1.05,
    radio_range: float | None = None,
) -> SteinerTree:
    """Shallow-light re-attachment refinement of a virtual multicast tree.

    Repeats three length-reducing local moves until a fixpoint (or
    ``max_passes``):

    * **splice** — a virtual vertex with no children is dropped; one with a
      single child is cut out of its path (the child re-parents to the
      grandparent, which by the triangle inequality never lengthens the
      tree);
    * **re-parent** — a non-root vertex moves under a strictly closer vertex
      outside its own subtree, *provided* the move keeps its root-path
      length within ``max_stretch`` times its straight-line distance from
      the root (or improves on the current path).  The stretch guard is
      what keeps the tree *shallow-light*: unconstrained re-parenting
      degenerates toward MST-like chains, which minimizes total length but
      ruins the per-destination hop counts the paper's Figure 12 reports;
    * **relocate** — each virtual vertex is re-placed at the exact
      Fermat point (degree 3) or geometric median (higher degree) of its
      current tree neighbors.

    Terminals and the root are never removed, so the result still spans the
    source and every destination.
    """
    dead: set = set()
    # Star -> optimal-point memo shared across relocate passes: the target
    # is a pure function of the star's locations, so unchanged stars (the
    # common case after the first pass) skip the Weiszfeld iteration.
    relocate_memo: dict = {}
    improved = True
    passes = 0
    while improved and passes < max_passes:
        improved = False
        passes += 1
        for vertex in list(tree.vertices()):
            vid = vertex.vid
            if vid == 0 or vid in dead or not vertex.is_virtual:
                continue
            if tree.parent_of(vid) is None:
                continue
            kids = tree.children_of(vid)
            if len(kids) == 0:
                tree.detach(vid)
                dead.add(vid)
                improved = True
            elif len(kids) == 1:
                parent = tree.parent_of(vid)
                child = kids[0]
                tree.detach(child)
                tree.detach(vid)
                tree.attach(parent, child)
                dead.add(vid)
                improved = True
        # Locations are constant throughout the re-parent sub-pass (only the
        # relocate sub-pass moves vertices), so all candidate distances for
        # one vertex can be batched; vid == row index in ``coords``.  Root
        # path lengths are memoized between structural mutations — identical
        # floats, computed once instead of per (vertex, candidate) probe.
        scan_vertices = list(tree.vertices())
        distance_matrix: Optional[np.ndarray] = None
        if len(scan_vertices) >= MIN_BATCH:
            coords = np.array([v.location for v in scan_vertices], dtype=float)
            distance_matrix = pairwise_distances(coords)
        path_cache: dict = {}

        def root_path(path_vid: int) -> float:
            found = path_cache.get(path_vid)
            if found is None:
                if distance_matrix is not None:
                    # Same bottom-up accumulation as _root_path_length, with
                    # each edge read from the (bit-identical) matrix.
                    length = 0.0
                    current = path_vid
                    while current != 0:
                        up = tree.parent_of(current)
                        if up is None:
                            break
                        length += float(distance_matrix[up, current])
                        current = up
                    found = length
                else:
                    found = _root_path_length(tree, path_vid)
                path_cache[path_vid] = found
            return found

        for vertex in scan_vertices:
            vid = vertex.vid
            if vid == 0 or vid in dead:
                continue
            parent = tree.parent_of(vid)
            if parent is None:
                continue
            if distance_matrix is not None:
                lengths = distance_matrix[:, vid]
                parent_len = float(lengths[parent])
                # Only candidates strictly nearer than the current parent can
                # ever pass the ``length >= best_len - 1e-9`` filter below
                # (``best_len`` starts at ``parent_len`` and only decreases),
                # so the Python scan shrinks to the near rows — flatnonzero
                # preserves the original candidate order.
                near = np.flatnonzero(lengths < parent_len - 1e-9)
                if near.size == 0:
                    continue
                candidates = [
                    (scan_vertices[i], length)
                    for i, length in zip(near.tolist(), lengths[near].tolist())
                ]
            else:
                parent_len = distance(tree.vertex(parent).location, vertex.location)
                candidates = [
                    (c, distance(c.location, vertex.location))
                    for c in tree.vertices()
                ]
            # Subtree membership, the radial distance, and the current path
            # are pure filters — computed lazily, on the first candidate that
            # survives the (much cheaper) length filter.
            subtree: Optional[set] = None
            radial = -1.0
            current_path = -1.0
            best_vid = parent
            best_len = parent_len
            for candidate, length in candidates:
                if length >= best_len - 1e-9:
                    continue
                if candidate.vid in dead:
                    continue
                if subtree is None:
                    subtree = set(tree.subtree_vids(vid))
                    radial = distance(tree.root.location, vertex.location)
                    current_path = root_path(parent) + parent_len
                if candidate.vid in subtree:
                    continue
                # Shallow-light guard: a shorter edge is accepted only if
                # the vertex's root path stays within ``max_stretch`` of its
                # straight-line distance (or improves on the current path).
                candidate_path = root_path(candidate.vid) + length
                if (
                    candidate_path > max_stretch * radial + 1e-9
                    and candidate_path >= current_path - 1e-9
                ):
                    continue
                best_vid = candidate.vid
                best_len = length
            if best_vid != parent:
                tree.detach(vid)
                tree.attach(best_vid, vid)
                path_cache.clear()
                improved = True
        if _insert_virtuals(tree, dead, radio_range):
            improved = True
        if _relocate_virtuals(tree, dead, relocate_memo):
            improved = True
    return _rebuild_without(tree, dead)


def _insert_virtuals(
    tree: SteinerTree, dead: set, radio_range: float | None = None
) -> bool:
    """Steiner-point insertion: merge sibling pairs under a new Fermat point.

    Whenever a vertex ``p`` has two children ``c1, c2`` whose star would be
    strictly shorter when routed through the exact Fermat point ``w`` of
    ``{p, c1, c2}``, insert the virtual vertex ``w`` between them.  This is
    the same 3-point computation rrSTR's greedy pass uses — the insertion
    pass merely applies it where the greedy order missed the opportunity
    (most often right at the root, whose branches the greedy pass never
    reconsiders).  Strictly length-reducing, so the refinement loop still
    terminates.
    """
    inserted = False
    for vertex in list(tree.vertices()):
        pid = vertex.vid
        if pid in dead:
            continue
        while True:
            kids = [c for c in tree.children_of(pid) if c not in dead]
            if len(kids) < 2:
                break
            p_loc = tree.vertex(pid).location
            # Radio-aware benefit test (paper Section 3.3): the new
            # virtual costs roughly one extra hop, so it must save
            # more than a radio range of combined branch length.
            threshold = radio_range if radio_range is not None else 1e-9
            best = None
            pair_count = len(kids) * (len(kids) - 1) // 2
            if pair_count >= MIN_BATCH:
                best = _best_insertion_batch(tree, kids, p_loc, threshold)
            else:
                for i, c1 in enumerate(kids):
                    for c2 in kids[i + 1 :]:
                        l1 = tree.vertex(c1).location
                        l2 = tree.vertex(c2).location
                        w_loc = cached_fermat_point(p_loc, l1, l2)
                        saving = (
                            distance(p_loc, l1)
                            + distance(p_loc, l2)
                            - distance(p_loc, w_loc)
                            - distance(w_loc, l1)
                            - distance(w_loc, l2)
                        )
                        if saving > threshold and (best is None or saving > best[0]):
                            best = (saving, c1, c2, w_loc)
            if best is None:
                break
            _, c1, c2, w_loc = best
            w_vid = tree.add_virtual(w_loc)
            tree.detach(c1)
            tree.detach(c2)
            tree.attach(pid, w_vid)
            tree.attach(w_vid, c1)
            tree.attach(w_vid, c2)
            inserted = True
    return inserted


def _best_insertion_batch(
    tree: SteinerTree,
    kids: Sequence[int],
    p_loc: Point,
    threshold: float,
) -> Optional[Tuple[float, int, int, Point]]:
    """Batched variant of the sibling-pair scan in :func:`_insert_virtuals`.

    Evaluates every ``(c1, c2)`` sibling pair's Fermat point and star saving
    in one kernel call; ties select the first pair in nested-loop order, so
    the winner is bit-identical to the scalar scan.
    """
    locs = np.array([tree.vertex(c).location for c in kids], dtype=float)
    row, col = pair_indices(len(kids))
    n = len(row)
    triples = np.empty((n, 6), dtype=float)
    triples[:, 0] = p_loc[0]
    triples[:, 1] = p_loc[1]
    triples[:, 2:4] = locs[row]
    triples[:, 4:6] = locs[col]
    w = fermat_point_batch(triples)
    d_p1 = _pair_dist(triples[:, 0:2], triples[:, 2:4])
    d_p2 = _pair_dist(triples[:, 0:2], triples[:, 4:6])
    d_pw = _pair_dist(triples[:, 0:2], w)
    d_w1 = _pair_dist(w, triples[:, 2:4])
    d_w2 = _pair_dist(w, triples[:, 4:6])
    saving = (((d_p1 + d_p2) - d_pw) - d_w1) - d_w2
    valid = saving > threshold
    if not bool(valid.any()):
        return None
    idx = np.flatnonzero(valid)
    pos = int(idx[np.argmax(saving[idx])])
    return (
        float(saving[pos]),
        kids[int(row[pos])],
        kids[int(col[pos])],
        Point(float(w[pos, 0]), float(w[pos, 1])),
    )


def _pair_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise Euclidean distance, in the same ``sqrt(dx*dx+dy*dy)`` form as
    :func:`repro.geometry.point.distance` (bit-identical per IEEE-754)."""
    dx = a[:, 0] - b[:, 0]
    dy = a[:, 1] - b[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _root_path_length(tree: SteinerTree, vid: int) -> float:
    """Euclidean length of the tree path from the root down to ``vid``."""
    length = 0.0
    current = vid
    while current != 0:
        parent = tree.parent_of(current)
        if parent is None:
            break  # Detached vertex: treat its own chain as the whole path.
        length += distance(
            tree.vertex(parent).location, tree.vertex(current).location
        )
        current = parent
    return length


def _relocate_virtuals(
    tree: SteinerTree, dead: set, memo: Optional[dict] = None
) -> bool:
    """Move each virtual vertex to the optimal point for its tree neighbors.

    A virtual vertex's only purpose is to minimize the length of its local
    star (parent plus children).  The greedy pass places it at the Fermat
    point of ``{source, u, v}``, but once re-parenting has rearranged the
    tree the relevant star is ``{parent, children...}`` — so re-place it at
    the exact Fermat point (degree 3) or the geometric median (higher
    degree) of that star.  Strictly length-reducing.
    """
    from repro.geometry.fermat import weiszfeld_point

    moved = False
    for vertex in tree.vertices():
        vid = vertex.vid
        if vid == 0 or vid in dead or not vertex.is_virtual:
            continue
        parent = tree.parent_of(vid)
        if parent is None:
            continue
        star = [tree.vertex(parent).location] + [
            tree.vertex(c).location for c in tree.children_of(vid)
        ]
        if len(star) < 3:
            continue  # Degenerate stars are handled by the splice pass.
        star_key = tuple(star)
        target = memo.get(star_key) if memo is not None else None
        if target is None:
            if len(star) == 3:
                target = cached_fermat_point(star[0], star[1], star[2])
            else:
                target = weiszfeld_point(star)
            if memo is not None:
                memo[star_key] = target
        old_cost = sum(distance(vertex.location, p) for p in star)
        new_cost = sum(distance(target, p) for p in star)
        if new_cost < old_cost - 1e-9:
            vertex.location = target
            moved = True
    return moved


def _rebuild_without(tree: SteinerTree, dead: set) -> SteinerTree:
    """Copy ``tree`` dropping the vertices in ``dead`` (already detached)."""
    if not dead:
        return tree
    rebuilt = SteinerTree(tree.root.location)
    mapping = {0: 0}
    stack = [0]
    while stack:
        vid = stack.pop()
        for child in tree.children_of(vid):
            if child in dead:
                continue
            child_vertex = tree.vertex(child)
            if child_vertex.is_terminal:
                new_vid = rebuilt.add_terminal(child_vertex.location, child_vertex.ref)
            else:
                new_vid = rebuilt.add_virtual(child_vertex.location)
            rebuilt.attach(mapping[vid], new_vid)
            mapping[child] = new_vid
            stack.append(child)
    return rebuilt


def rrstr_tree_length(
    source_location: Point,
    destination_locations: Iterable[Point],
    radio_range: float,
    config: RRStrConfig | None = None,
) -> float:
    """Convenience: total Euclidean length of the rrSTR tree."""
    destinations = [(i, loc) for i, loc in enumerate(destination_locations)]
    return rrstr(source_location, destinations, radio_range, config).total_length()
