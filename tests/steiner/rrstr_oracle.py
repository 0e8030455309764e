"""Test-only oracle: rrSTR and its refinement in their original scalar form.

This is the construction ``repro.steiner.rrstr`` implemented before its
refinement moved to flat arrays and inlined geometry, kept as the reference
those optimizations must match tree for tree.  It uses only the public
:class:`~repro.steiner.tree.SteinerTree` API and the Point-form geometry
references of ``tests/geometry/test_fermat.py``, and none of the batched
kernels or memos: each of those is bit-identical to its scalar loop, so the
scalar loops alone define the expected trees.

Not collected by pytest (no ``test_`` prefix); ``test_rrstr_oracle.py``
drives it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.geometry import Point, distance, nearly_equal_points
from repro.steiner.rrstr import RRStrConfig
from repro.steiner.tree import SteinerTree
from tests.geometry.test_fermat import reference_fermat_point, reference_weiszfeld_point

_SELF_PAIR_KEY = 1.0


def oracle_reduction_ratio_point(s: Point, u: Point, v: Point) -> Tuple[float, Point]:
    t = reference_fermat_point(s, u, v)
    direct = distance(s, u) + distance(s, v)
    if abs(direct) <= 1e-12:
        return 0.0, t
    steiner_length = distance(s, t) + distance(t, u) + distance(t, v)
    return 1.0 - steiner_length / direct, t


def oracle_rrstr(
    source_location: Point,
    destinations: Sequence[Tuple[int, Point]],
    radio_range: float,
    config: RRStrConfig | None = None,
) -> SteinerTree:
    cfg = config or RRStrConfig()
    tree = SteinerTree(source_location)
    if not destinations:
        return tree
    s = source_location
    tolerance = cfg.collocation_tolerance
    active = {}
    heap: List[Tuple[float, int, int, int, float, float]] = []
    sequence = 0

    def push_pair(u_vid: int, v_vid: int) -> None:
        nonlocal sequence
        if u_vid == v_vid:
            u_loc = tree.vertex(u_vid).location
            entry = (_SELF_PAIR_KEY, sequence, u_vid, u_vid, u_loc[0], u_loc[1])
        else:
            rr, steiner = oracle_reduction_ratio_point(
                s, tree.vertex(u_vid).location, tree.vertex(v_vid).location
            )
            entry = (-rr, sequence, u_vid, v_vid, steiner[0], steiner[1])
        heapq.heappush(heap, entry)
        sequence += 1

    terminal_vids = []
    for ref, location in destinations:
        vid = tree.add_terminal(location, ref)
        terminal_vids.append(vid)
        active[vid] = True
    for i, u_vid in enumerate(terminal_vids):
        push_pair(u_vid, u_vid)
        for v_vid in terminal_vids[i + 1 :]:
            push_pair(u_vid, v_vid)

    dead_pairs = set()
    while heap:
        _, _, u_vid, v_vid, sx, sy = heapq.heappop(heap)
        if not active.get(u_vid, False):
            continue
        if u_vid == v_vid:
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
            virtual_beneficial = (
                radio_range + distance(steiner, u_loc) + distance(steiner, v_loc)
                < d_su + d_sv
            )
            u_in_range = d_su <= radio_range
            v_in_range = d_sv <= radio_range
            if u_in_range and v_in_range:
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
                tree.attach(near_vid, far_vid)
                active[far_vid] = False
                continue
            if distance(s, steiner) <= radio_range and not virtual_beneficial:
                tree.attach(0, u_vid)
                tree.attach(0, v_vid)
                active[u_vid] = active[v_vid] = False
                continue
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
        tree = oracle_refine_tree(
            tree,
            max_stretch=cfg.refine_max_stretch,
            radio_range=radio_range if cfg.radio_aware else None,
        )
    return tree


def oracle_refine_tree(
    tree: SteinerTree,
    max_passes: int = 12,
    max_stretch: float = 1.05,
    radio_range: float | None = None,
) -> SteinerTree:
    dead: set = set()
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
        for vertex in list(tree.vertices()):
            vid = vertex.vid
            if vid == 0 or vid in dead:
                continue
            parent = tree.parent_of(vid)
            if parent is None:
                continue
            parent_len = distance(tree.vertex(parent).location, vertex.location)
            subtree: Optional[set] = None
            radial = -1.0
            current_path = -1.0
            best_vid = parent
            best_len = parent_len
            for candidate in list(tree.vertices()):
                length = distance(candidate.location, vertex.location)
                if length >= best_len - 1e-9:
                    continue
                if candidate.vid in dead:
                    continue
                if subtree is None:
                    subtree = set(tree.subtree_vids(vid))
                    radial = distance(tree.root.location, vertex.location)
                    current_path = oracle_root_path_length(tree, parent) + parent_len
                if candidate.vid in subtree:
                    continue
                candidate_path = oracle_root_path_length(tree, candidate.vid) + length
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
                improved = True
        if _oracle_insert_virtuals(tree, dead, radio_range):
            improved = True
        if _oracle_relocate_virtuals(tree, dead):
            improved = True
    return _oracle_rebuild_without(tree, dead)


def _oracle_insert_virtuals(
    tree: SteinerTree, dead: set, radio_range: float | None
) -> bool:
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
            threshold = radio_range if radio_range is not None else 1e-9
            best = None
            for i, c1 in enumerate(kids):
                for c2 in kids[i + 1 :]:
                    l1 = tree.vertex(c1).location
                    l2 = tree.vertex(c2).location
                    w_loc = reference_fermat_point(p_loc, l1, l2)
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


def oracle_root_path_length(tree: SteinerTree, vid: int) -> float:
    length = 0.0
    current = vid
    while current != 0:
        parent = tree.parent_of(current)
        if parent is None:
            break
        length += distance(tree.vertex(parent).location, tree.vertex(current).location)
        current = parent
    return length


def _oracle_relocate_virtuals(tree: SteinerTree, dead: set) -> bool:
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
            continue
        if len(star) == 3:
            target = reference_fermat_point(star[0], star[1], star[2])
        else:
            target = reference_weiszfeld_point(star)
        old_cost = sum(distance(vertex.location, p) for p in star)
        new_cost = sum(distance(target, p) for p in star)
        if new_cost < old_cost - 1e-9:
            vertex.location = target
            moved = True
    return moved


def _oracle_rebuild_without(tree: SteinerTree, dead: set) -> SteinerTree:
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
