"""White-box tests for the rrSTR refinement moves."""

import pytest

from repro.geometry import Point, distance
from repro.steiner.quality import root_path_length
from repro.steiner.rrstr import refine_tree
from repro.steiner.tree import SteinerTree


def build(edges, vertices):
    """vertices: vid -> (location, kind, ref); edges: (parent, child)."""
    locations = dict(vertices)
    tree = SteinerTree(locations[0][0])
    ids = {0: 0}
    for vid in sorted(locations):
        if vid == 0:
            continue
        loc, kind, ref = locations[vid]
        if kind == "virtual":
            ids[vid] = tree.add_virtual(loc)
        else:
            ids[vid] = tree.add_terminal(loc, ref)
    for parent, child in edges:
        tree.attach(ids[parent], ids[child])
    return tree, ids


class TestSplice:
    def test_childless_virtual_removed(self):
        tree, ids = build(
            edges=[(0, 1), (0, 2)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(100, 0), "terminal", 7),
                2: (Point(50, 50), "virtual", None),
            },
        )
        refined = refine_tree(tree)
        assert not any(v.is_virtual for v in refined.vertices())
        assert refined.is_spanning()

    def test_single_child_virtual_spliced(self):
        tree, ids = build(
            edges=[(0, 1), (1, 2)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(100, 10), "virtual", None),
                2: (Point(200, 0), "terminal", 7),
            },
        )
        refined = refine_tree(tree)
        assert not any(v.is_virtual for v in refined.vertices())
        # The terminal now hangs straight off the root.
        terminal = next(v for v in refined.vertices() if v.is_terminal)
        assert refined.parent_of(terminal.vid) == 0
        # Splicing never lengthens (triangle inequality).
        assert refined.total_length() <= 100.5 + 100.5


class TestReparent:
    def test_orphan_moves_to_nearby_terminal(self):
        # Terminal 2 attached to the root across the field although
        # terminal 1 sits right next to it.
        tree, ids = build(
            edges=[(0, 1), (0, 2)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(500, 0), "terminal", 1),
                2: (Point(520, 10), "terminal", 2),
            },
        )
        before = tree.total_length()
        refined = refine_tree(tree, max_stretch=1.1)
        assert refined.total_length() < before - 400
        # The two terminals now share a chain (either orientation).
        t1 = next(v for v in refined.vertices() if v.ref == 1)
        t2 = next(v for v in refined.vertices() if v.ref == 2)
        assert refined.parent_of(t1.vid) == t2.vid or refined.parent_of(
            t2.vid
        ) == t1.vid

    def test_stretch_guard_blocks_chains(self):
        # Re-parenting 2 under 1 would shorten the tree but give terminal 2
        # a root path of ~2x its radial distance; a tight stretch budget
        # must reject the move.
        tree, ids = build(
            edges=[(0, 1), (0, 2)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(0, 500), "terminal", 1),
                2: (Point(140, 260), "terminal", 2),
            },
        )
        refined = refine_tree(tree, max_stretch=1.05)
        t2 = next(v for v in refined.vertices() if v.ref == 2)
        radial = distance(Point(0, 0), t2.location)
        # Terminal 2 must not hang below terminal 1 (that chain would give
        # it ~2x stretch); whatever structure emerged, its root path stays
        # within the budget plus the Fermat-insertion detour bound.
        t1 = next(v for v in refined.vertices() if v.ref == 1)
        assert refined.parent_of(t2.vid) != t1.vid
        assert root_path_length(refined, t2.vid) <= 1.2 * radial

    def test_root_path_length_helper(self):
        tree, ids = build(
            edges=[(0, 1), (1, 2)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(100, 0), "terminal", 1),
                2: (Point(200, 0), "terminal", 2),
            },
        )
        assert root_path_length(tree, ids[2]) == pytest.approx(200.0)


class TestInvariantsAfterRefinement:
    def test_terminals_preserved(self):
        tree, ids = build(
            edges=[(0, 1), (1, 2), (1, 3), (0, 4)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(300, 0), "virtual", None),
                2: (Point(400, 80), "terminal", 11),
                3: (Point(400, -80), "terminal", 12),
                4: (Point(-200, 0), "terminal", 13),
            },
        )
        refined = refine_tree(tree)
        refs = sorted(v.ref for v in refined.vertices() if v.is_terminal)
        assert refs == [11, 12, 13]
        assert refined.is_spanning()

    def test_idempotent_at_fixpoint(self):
        tree, _ = build(
            edges=[(0, 1), (1, 2), (1, 3)],
            vertices={
                0: (Point(0, 0), "source", None),
                1: (Point(300, 0), "virtual", None),
                2: (Point(400, 80), "terminal", 1),
                3: (Point(400, -80), "terminal", 2),
            },
        )
        once = refine_tree(tree)
        twice = refine_tree(once)
        assert twice.total_length() == pytest.approx(once.total_length(), abs=1e-9)
