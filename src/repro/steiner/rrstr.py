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
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.geometry import Point, distance, nearly_equal_points
from repro.geometry.fermat import weiszfeld_point
from repro.perf.cache import cached_fermat_point
from repro.steiner.reduction_ratio import reduction_ratio_point
from repro.steiner.tree import SteinerTree, VertexKind

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

    s = source_location
    vertices = tree._vertices
    tolerance = cfg.collocation_tolerance
    active = {}
    # Heap entries carry the Steiner point as two plain floats: the
    # (key, sequence) prefix is unique, so comparisons never reach the
    # coordinate slots, and the Point object is built lazily only for the
    # few pops that survive the activity checks below.
    heap: List[Tuple[float, int, int, int, float, float]] = []
    sequence = 0

    def push_pair(u_vid: int, v_vid: int) -> None:
        nonlocal sequence
        if u_vid == v_vid:
            u_loc = vertices[u_vid].location
            entry = (_SELF_PAIR_KEY, sequence, u_vid, u_vid, u_loc[0], u_loc[1])
        else:
            rr, steiner = reduction_ratio_point(
                s, vertices[u_vid].location, vertices[v_vid].location
            )
            entry = (-rr, sequence, u_vid, v_vid, steiner[0], steiner[1])
        heapq.heappush(heap, entry)
        sequence += 1

    terminal_vids = []
    for ref, location in destinations:
        vid = tree.add_terminal(location, ref)
        terminal_vids.append(vid)
        active[vid] = True

    # Seed the merge heap: all k*(k-1)/2 destination pairs.  Entries carry a
    # unique sequence tie-break, so their pop order is their *sorted* order
    # no matter how the heap was built — one heapify over the full seed
    # list replaces k*(k+1)/2 heappush calls without changing any pop.
    for i, u_vid in enumerate(terminal_vids):
        u_loc = vertices[u_vid].location
        heap.append((_SELF_PAIR_KEY, sequence, u_vid, u_vid, u_loc[0], u_loc[1]))
        sequence += 1
        for v_vid in terminal_vids[i + 1 :]:
            rr, steiner = reduction_ratio_point(s, u_loc, vertices[v_vid].location)
            heap.append((-rr, sequence, u_vid, v_vid, steiner[0], steiner[1]))
            sequence += 1
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
    source and every destination.
    """
    vertices = tree._vertices
    parent_of = tree._parent
    children = tree._children
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
        if _reparent(tree, dead, max_stretch):
            improved = True
        if _insert_virtuals(tree, dead, radio_range):
            improved = True
        if _relocate_virtuals(tree, dead, relocate_memo):
            improved = True
    return _rebuild_without(tree, dead)


def _reparent(tree: SteinerTree, dead: set, max_stretch: float) -> bool:
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
    radial, edge_len, near, near_len = _scan_inputs(tree)
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


def _scan_inputs(
    tree: SteinerTree,
) -> Tuple[List[float], List[float], List[List[int]], List[List[float]]]:
    """Distances the re-parent scan reads, as Python floats.

    Returns, per vid: the distance to the root; the length of the edge to
    its parent; and the vertices strictly nearer than that parent (by more
    than 1e-9) with their distances, in vid order.  Only candidates in that
    list can ever pass the scan's ``length >= best_len - 1e-9`` filter,
    because ``best_len`` starts at the parent edge and only decreases.
    Unattached vertices get no candidates.  Every value is
    ``distance(location_i, location_j)`` to the bit.
    """
    locations = [v.location for v in tree._vertices]
    parents = tree._parent
    n = len(locations)
    # The matrix is symmetric to the bit (``dx`` and ``-dx`` square alike),
    # so one evaluation fills both halves.
    rows_py = [[0.0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = locations[i]
        row = rows_py[i]
        for j in range(i + 1, n):
            xj, yj = locations[j]
            dx = xi - xj
            dy = yi - yj
            d = math.sqrt(dx * dx + dy * dy)
            row[j] = d
            rows_py[j][i] = d
    edge_len = [0.0] * n
    near: List[List[int]] = [[] for _ in range(n)]
    near_len: List[List[float]] = [[] for _ in range(n)]
    for i in range(1, n):
        parent = parents[i]
        if parent < 0:
            continue
        row = rows_py[i]
        edge = row[parent]
        edge_len[i] = edge
        limit = edge - 1e-9
        hits = [j for j in range(n) if row[j] < limit]
        near[i] = hits
        near_len[i] = [row[j] for j in hits]
    return rows_py[0], edge_len, near, near_len


def _insert_virtuals(tree: SteinerTree, dead: set, radio_range: float | None) -> bool:
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
            tree._unlink(c1)
            tree._unlink(c2)
            tree._link(pid, w_vid)
            tree._link(w_vid, c1)
            tree._link(w_vid, c2)
            inserted = True
    return inserted


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


def rrstr_tree_length(
    source_location: Point,
    destination_locations: Iterable[Point],
    radio_range: float,
    config: RRStrConfig | None = None,
) -> float:
    """Convenience: total Euclidean length of the rrSTR tree."""
    destinations = [(i, loc) for i, loc in enumerate(destination_locations)]
    return rrstr(source_location, destinations, radio_range, config).total_length()
