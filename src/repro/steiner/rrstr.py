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

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point, distance, nearly_equal_points
from repro.geometry.fermat import fermat_point, weiszfeld_point
from repro.steiner.reduction_ratio import reduction_ratio_bound, reduction_ratio_point
from repro.steiner.tree import SteinerTree, VertexKind

#: Heap key guaranteed to sort after every true pair's key (-RR and minus
#: its bound are both <= ~0) so that self-pairs are consumed only when
#: nothing better remains.
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


def _float_point(point: Point) -> Point:
    x, y = point
    if type(x) is float and type(y) is float:
        return point
    return Point(float(x), float(y))


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
    # Coercing at entry makes every tree coordinate a float: a tree built
    # from integer input equals, ``repr`` included, the one built from the
    # equal floats.  It is the identity on float input (every routing
    # caller's).
    source_location = _float_point(source_location)
    destinations = [(ref, _float_point(location)) for ref, location in destinations]
    tree = SteinerTree(source_location)
    if not destinations:
        return tree

    if len(destinations) == 1:
        # The lone destination's self-pair is the only heap entry, and
        # refinement never changes a one-edge tree.
        ref, location = destinations[0]
        tree.attach(0, tree.add_terminal(location, ref))
        return tree

    s = source_location
    vertices = tree._vertices
    tolerance = cfg.collocation_tolerance
    active: List[bool] = [False]
    radial: List[float] = [0.0]
    # Heap entries are ``(key, sequence, u, v, steiner)``.  A pair enters
    # keyed by minus its reduction_ratio_bound, with ``steiner`` None; only
    # when that entry reaches the top with the pair still live are its exact
    # RR and Steiner point computed and the pair pushed again, keyed by
    # -RR under its original sequence number.  A bound never sorts after its
    # exact key, so exact entries pop in exactly the order an eager heap of
    # exact keys would pop them, and the pairs that the loop would skip are
    # dropped unevaluated.  ``(key, sequence)`` is unique among the entries
    # in the heap, so comparisons never reach the vertex or point slots.
    heap: List[Tuple[float, int, int, int, Optional[Point]]] = []
    sequence = 0

    def push_pair(u_vid: int, v_vid: int) -> None:
        nonlocal sequence
        if u_vid == v_vid:
            entry = (_SELF_PAIR_KEY, sequence, u_vid, u_vid, None)
        else:
            bound = reduction_ratio_bound(
                radial[u_vid],
                radial[v_vid],
                distance(vertices[u_vid].location, vertices[v_vid].location),
            )
            entry = (-bound, sequence, u_vid, v_vid, None)
        heapq.heappush(heap, entry)
        sequence += 1

    terminal_vids = []
    for ref, location in destinations:
        vid = tree.add_terminal(location, ref)
        terminal_vids.append(vid)
        active.append(True)
        radial.append(distance(s, location))

    # Seed the merge heap with every destination's self-pair and every
    # destination pair under its bound: k*(k+1)/2 entries, one distance
    # each.  Pop order is the sorted ``(key, sequence)`` order however the
    # heap was built, so one heapify replaces the pushes.
    for i, u_vid in enumerate(terminal_vids):
        u_loc = vertices[u_vid].location
        d_su = radial[u_vid]
        heap.append((_SELF_PAIR_KEY, sequence, u_vid, u_vid, None))
        sequence += 1
        for v_vid in terminal_vids[i + 1 :]:
            bound = reduction_ratio_bound(
                d_su, radial[v_vid], distance(u_loc, vertices[v_vid].location)
            )
            heap.append((-bound, sequence, u_vid, v_vid, None))
            sequence += 1
    heapq.heapify(heap)

    dead_pairs = set()

    while heap:
        _, pair_sequence, u_vid, v_vid, steiner = heapq.heappop(heap)
        if not active[u_vid]:
            continue
        if u_vid == v_vid:
            # Lone remaining destination: connect it straight to the source.
            tree.attach(0, u_vid)
            active[u_vid] = False
            continue
        if not active[v_vid]:
            continue
        pair_key = (min(u_vid, v_vid), max(u_vid, v_vid))
        if pair_key in dead_pairs:
            continue
        if steiner is None:
            rr, steiner = reduction_ratio_point(
                s, vertices[u_vid].location, vertices[v_vid].location
            )
            heapq.heappush(heap, (-rr, pair_sequence, u_vid, v_vid, steiner))
            continue

        u_loc = vertices[u_vid].location
        v_loc = vertices[v_vid].location

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
            d_su = radial[u_vid]
            d_sv = radial[v_vid]
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
        partners = [vid for vid, is_active in enumerate(active) if is_active]
        active.append(True)
        radial.append(distance(s, steiner))
        for other_vid in partners:
            push_pair(w_vid, other_vid)
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
    source and every destination.  One :class:`_RefineState` carries the
    distances, near lists and memos from pass to pass, so a pass recomputes
    only what the previous one changed.
    """
    vertices = tree._vertices
    parent_of = tree._parent
    children = tree._children
    dead: set = set()
    state = _RefineState(tree)
    improved = True
    passes = 0
    while improved and passes < max_passes:
        improved = False
        passes += 1
        for vid in range(1, len(vertices)):
            if vid in dead or vertices[vid].kind is not VertexKind.VIRTUAL:
                continue
            parent = parent_of[vid]
            if parent < 0:
                continue
            kids = children[vid]
            if not kids:
                tree._unlink(vid)
                dead.add(vid)
                improved = True
            elif len(kids) == 1:
                child = kids[0]
                tree._unlink(child)
                tree._unlink(vid)
                tree._link(parent, child)
                dead.add(vid)
                improved = True
        if _reparent(tree, dead, max_stretch, state):
            improved = True
        if _insert_virtuals(tree, dead, radio_range, state.fermat_memo):
            improved = True
        if _relocate_virtuals(tree, dead, state.relocate_memo):
            improved = True
    return _rebuild_without(tree, dead)


class _RefineState:
    """What :func:`refine_tree` carries from one pass to the next.

    :meth:`update` brings, per vid, the distance to every other vertex, the
    length of the edge to its parent and its near list up to date with the
    tree.  A near list holds the vertices strictly nearer than the parent
    (by more than 1e-9) with their distances, in vid order: only those can
    pass the re-parent scan's ``length >= best_len - 1e-9`` filter, because
    ``best_len`` starts at the parent edge and only decreases.  Unattached
    vertices get no candidates.  Every distance is
    ``distance(location_i, location_j)`` to the bit.

    Between two scans only the relocate sub-pass moves vertices and only
    the insert sub-pass adds them, so an update computes the distances of
    those vertices alone, each pair once: the first update, from the empty
    state, fills the whole matrix.  A near list is a function of its row
    and its parent edge, so it is rebuilt only when its vertex moved or its
    parent edge changed length; otherwise only the moved columns are
    patched in or out.

    The memos map a star's locations to its optimal point (relocate) and a
    ``(parent, child, child)`` location triple to its Fermat point and
    saving (insert); both are pure functions of the locations.
    """

    __slots__ = (
        "tree",
        "locations",
        "rows",
        "edge_len",
        "near_edge",
        "near",
        "near_len",
        "fermat_memo",
        "relocate_memo",
    )

    def __init__(self, tree: SteinerTree) -> None:
        self.tree = tree
        #: Location of each vid when its row was last computed.
        self.locations: List[Point] = []
        self.rows: List[List[float]] = []
        self.edge_len: List[float] = []
        #: Parent edge each near list was built against (None: unattached).
        self.near_edge: List[Optional[float]] = []
        self.near: List[List[int]] = []
        self.near_len: List[List[float]] = []
        self.fermat_memo: Dict[Tuple[Point, Point, Point], Tuple[Point, float]] = {}
        self.relocate_memo: Dict[Tuple[Point, ...], Point] = {}

    def update(
        self,
    ) -> Tuple[List[float], List[float], List[List[int]], List[List[float]]]:
        """Returns the root row, edge lengths, near lists and their lengths."""
        vertices = self.tree._vertices
        parents = self.tree._parent
        locations = self.locations
        rows = self.rows
        edge_len = self.edge_len
        near_edge = self.near_edge
        near = self.near
        near_len = self.near_len
        n = len(vertices)
        old_n = len(locations)
        moved = [i for i in range(old_n) if vertices[i].location != locations[i]]
        for i in moved:
            locations[i] = vertices[i].location
        if n > old_n:
            grow = [0.0] * (n - old_n)
            for row in rows:
                row.extend(grow)
            for i in range(old_n, n):
                rows.append([0.0] * n)
                locations.append(vertices[i].location)
                edge_len.append(0.0)
                near_edge.append(None)
                near.append([])
                near_len.append([])
                moved.append(i)
        is_moved = [False] * n
        for i in moved:
            is_moved[i] = True
        # The matrix is symmetric to the bit (``dx`` and ``-dx`` square
        # alike), so one evaluation fills both halves: each moved vertex
        # fills its pairs with every vertex not already filled by an
        # earlier moved one.
        filled = [False] * n
        for i in moved:
            xi, yi = locations[i]
            row = rows[i]
            for j in range(n):
                if filled[j]:
                    continue
                xj, yj = locations[j]
                dx = xi - xj
                dy = yi - yj
                d = math.sqrt(dx * dx + dy * dy)
                row[j] = d
                rows[j][i] = d
            filled[i] = True
        for i in range(1, n):
            parent = parents[i]
            if parent < 0:
                edge_len[i] = 0.0
                near_edge[i] = None
                near[i] = []
                near_len[i] = []
                continue
            row = rows[i]
            edge = row[parent]
            edge_len[i] = edge
            limit = edge - 1e-9
            if is_moved[i] or edge != near_edge[i]:
                near_edge[i] = edge
                hits = [j for j in range(n) if row[j] < limit]
                near[i] = hits
                near_len[i] = [row[j] for j in hits]
                continue
            hits = near[i]
            lengths = near_len[i]
            for j in moved:
                d = row[j]
                position = bisect.bisect_left(hits, j)
                if position < len(hits) and hits[position] == j:
                    if d < limit:
                        lengths[position] = d
                    else:
                        del hits[position]
                        del lengths[position]
                elif d < limit:
                    hits.insert(position, j)
                    lengths.insert(position, d)
        return rows[0], edge_len, near, near_len


def _reparent(
    tree: SteinerTree, dead: set, max_stretch: float, state: _RefineState
) -> bool:
    """The re-parent sub-pass of :func:`refine_tree`; True if anything moved.

    Vertices are visited in vid order and each probes its candidates in vid
    order.  A move changes only the moved vertex's parent, so each vertex's
    candidate list can be drawn up before the scan from the distances at
    the start of the sub-pass (only the relocate sub-pass moves vertices).
    Root-path lengths are memoized between structural moves: the same
    bottom-up sums, computed once instead of per probe.
    """
    parent_of = tree._parent
    n = len(tree._vertices)
    radial, edge_len, near, near_len = state.update()
    path_cache: Dict[int, float] = {}

    def root_path(path_vid: int) -> float:
        found = path_cache.get(path_vid)
        if found is None:
            # Bottom-up, as quality.root_path_length sums it.
            found = 0.0
            current = path_vid
            while current != 0:
                up = parent_of[current]
                if up < 0:
                    break
                found += edge_len[current]
                current = up
            path_cache[path_vid] = found
        return found

    moved = False
    for vid in range(1, n):
        candidates = near[vid]
        if not candidates or vid in dead:
            continue
        parent = parent_of[vid]
        parent_len = edge_len[vid]
        # The current path is a pure filter, computed on the first
        # candidate that survives the cheaper ones.
        primed = False
        current_path = 0.0
        best_vid = parent
        best_len = parent_len
        for candidate, length in zip(candidates, near_len[vid]):
            if length >= best_len - 1e-9:
                continue
            if candidate in dead:
                continue
            if not primed:
                primed = True
                current_path = root_path(parent) + parent_len
            # A candidate in vid's own subtree has vid on its parent chain.
            up = candidate
            while up > 0 and up != vid:
                up = parent_of[up]
            if up == vid:
                continue
            # Shallow-light guard: a shorter edge is accepted only if the
            # vertex's root path stays within ``max_stretch`` of its
            # straight-line distance (or improves on the current path).
            candidate_path = root_path(candidate) + length
            if (
                candidate_path > max_stretch * radial[vid] + 1e-9
                and candidate_path >= current_path - 1e-9
            ):
                continue
            best_vid = candidate
            best_len = length
        if best_vid != parent:
            tree._unlink(vid)
            tree._link(best_vid, vid)
            edge_len[vid] = best_len
            path_cache.clear()
            moved = True
    return moved


def _insert_virtuals(
    tree: SteinerTree,
    dead: set,
    radio_range: float | None,
    memo: Dict[Tuple[Point, Point, Point], Tuple[Point, float]],
) -> bool:
    """Steiner-point insertion: merge sibling pairs under a new Fermat point.

    Whenever a vertex ``p`` has two children ``c1, c2`` whose star would be
    strictly shorter when routed through the exact Fermat point ``w`` of
    ``{p, c1, c2}``, insert the virtual vertex ``w`` between them.  This is
    the same 3-point computation rrSTR's greedy pass uses — the insertion
    pass merely applies it where the greedy order missed the opportunity
    (most often right at the root, whose branches the greedy pass never
    reconsiders).  Strictly length-reducing, so the refinement loop still
    terminates.  ``memo`` keeps each location triple's Fermat point and
    saving: a vertex's sibling pairs are re-tried after every insertion
    under it and on every pass.
    """
    vertices = tree._vertices
    children = tree._children
    # Radio-aware benefit test (paper Section 3.3): the new virtual costs
    # roughly one extra hop, so it must save more than a radio range of
    # combined branch length.
    threshold = radio_range if radio_range is not None else 1e-9
    inserted = False
    for pid in range(len(vertices)):
        if pid in dead:
            continue
        while True:
            kids = [c for c in children[pid] if c not in dead]
            if len(kids) < 2:
                break
            p_loc = vertices[pid].location
            best: Optional[Tuple[float, int, int, Point]] = None
            for i, c1 in enumerate(kids):
                for c2 in kids[i + 1 :]:
                    l1 = vertices[c1].location
                    l2 = vertices[c2].location
                    triple = (p_loc, l1, l2)
                    found = memo.get(triple)
                    if found is None:
                        w_loc = fermat_point(p_loc, l1, l2)
                        saving = (
                            distance(p_loc, l1)
                            + distance(p_loc, l2)
                            - distance(p_loc, w_loc)
                            - distance(w_loc, l1)
                            - distance(w_loc, l2)
                        )
                        memo[triple] = (w_loc, saving)
                    else:
                        w_loc, saving = found
                    if saving > threshold and (best is None or saving > best[0]):
                        best = (saving, c1, c2, w_loc)
            if best is None:
                break
            _, c1, c2, w_loc = best
            w_vid = tree.add_virtual(w_loc)
            tree._unlink(c1)
            tree._unlink(c2)
            tree._link(pid, w_vid)
            tree._link(w_vid, c1)
            tree._link(w_vid, c2)
            inserted = True
    return inserted


def _relocate_virtuals(
    tree: SteinerTree, dead: set, memo: Dict[Tuple[Point, ...], Point]
) -> bool:
    """Move each virtual vertex to the optimal point for its tree neighbors.

    A virtual vertex's only purpose is to minimize the length of its local
    star (parent plus children).  The greedy pass places it at the Fermat
    point of ``{source, u, v}``, but once re-parenting has rearranged the
    tree the relevant star is ``{parent, children...}`` — so re-place it at
    the exact Fermat point (degree 3) or the geometric median (higher
    degree) of that star.  Strictly length-reducing.  ``memo`` maps a
    star's locations to its target, so an unchanged star skips the
    Weiszfeld iteration, and a vertex already at its target is not costed.
    """
    vertices = tree._vertices
    parent_of = tree._parent
    children = tree._children
    moved = False
    for vid in range(1, len(vertices)):
        vertex = vertices[vid]
        if vid in dead or vertex.kind is not VertexKind.VIRTUAL:
            continue
        parent = parent_of[vid]
        if parent < 0:
            continue
        kids = children[vid]
        if len(kids) < 2:
            continue  # Degenerate stars are handled by the splice pass.
        star = [vertices[parent].location] + [vertices[c].location for c in kids]
        star_key = tuple(star)
        target = memo.get(star_key)
        if target is None:
            if len(star) == 3:
                target = fermat_point(star[0], star[1], star[2])
            else:
                target = weiszfeld_point(star)
            memo[star_key] = target
        if vertex.location == target:
            continue
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
    vertices = tree._vertices
    children = tree._children
    rebuilt = SteinerTree(tree.root.location)
    mapping = {0: 0}
    stack = [0]
    while stack:
        vid = stack.pop()
        for child in children[vid]:
            if child in dead:
                continue
            child_vertex = vertices[child]
            if child_vertex.is_terminal:
                new_vid = rebuilt.add_terminal(child_vertex.location, child_vertex.ref)
            else:
                new_vid = rebuilt.add_virtual(child_vertex.location)
            rebuilt._link(mapping[vid], new_vid)
            mapping[child] = new_vid
            stack.append(child)
    return rebuilt

