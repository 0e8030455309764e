"""Tests for the rooted, ordered Steiner tree structure."""

import pytest

from repro.geometry import Point
from repro.steiner import SteinerTree, VertexKind


def small_tree():
    """root -> virtual w -> terminals a, b; root -> terminal c."""
    tree = SteinerTree(Point(0, 0))
    w = tree.add_virtual(Point(10, 0))
    a = tree.add_terminal(Point(20, 5), ref=101)
    b = tree.add_terminal(Point(20, -5), ref=102)
    c = tree.add_terminal(Point(0, 10), ref=103)
    tree.attach(0, w)
    tree.attach(w, a)
    tree.attach(w, b)
    tree.attach(0, c)
    return tree, w, a, b, c


class TestConstruction:
    def test_root_properties(self):
        tree = SteinerTree(Point(1, 2))
        assert tree.root.kind is VertexKind.SOURCE
        assert tree.root.location == Point(1, 2)
        assert len(tree) == 1

    def test_attach_detach_roundtrip(self):
        tree, w, a, b, c = small_tree()
        assert tree.parent_of(a) == w
        old_parent = tree.detach(a)
        assert old_parent == w
        assert tree.parent_of(a) is None
        tree.attach(0, a)
        assert tree.parent_of(a) == 0

    def test_double_attach_rejected(self):
        tree, w, a, b, c = small_tree()
        with pytest.raises(ValueError):
            tree.attach(0, a)

    def test_attach_root_rejected(self):
        tree = SteinerTree(Point(0, 0))
        v = tree.add_virtual(Point(1, 1))
        tree.attach(0, v)
        with pytest.raises(ValueError):
            tree.attach(v, 0)

    def test_self_attach_rejected(self):
        tree = SteinerTree(Point(0, 0))
        v = tree.add_virtual(Point(1, 1))
        with pytest.raises(ValueError):
            tree.attach(v, v)

    def test_detach_unattached_rejected(self):
        tree = SteinerTree(Point(0, 0))
        v = tree.add_virtual(Point(1, 1))
        with pytest.raises(ValueError):
            tree.detach(v)

    def test_bad_vid_rejected(self):
        tree = SteinerTree(Point(0, 0))
        with pytest.raises(IndexError):
            tree.vertex(5)


class TestQueries:
    def test_children_preserve_insertion_order(self):
        tree, w, a, b, c = small_tree()
        assert tree.children_of(w) == (a, b)
        assert tree.pivots() == (w, c)

    def test_terminals_under(self):
        tree, w, a, b, c = small_tree()
        under_w = {v.ref for v in tree.terminals_under(w)}
        assert under_w == {101, 102}
        under_root = {v.ref for v in tree.terminals_under(0)}
        assert under_root == {101, 102, 103}

    def test_terminal_pivot_is_in_own_group(self):
        tree, w, a, b, c = small_tree()
        assert [v.ref for v in tree.terminals_under(c)] == [103]

    def test_total_length(self):
        tree = SteinerTree(Point(0, 0))
        a = tree.add_terminal(Point(3, 4), ref=1)
        tree.attach(0, a)
        assert tree.total_length() == pytest.approx(5.0)

    def test_depth(self):
        tree, w, a, b, c = small_tree()
        assert tree.depth_of(0) == 0
        assert tree.depth_of(w) == 1
        assert tree.depth_of(a) == 2

    def test_depth_of_detached_raises(self):
        tree = SteinerTree(Point(0, 0))
        v = tree.add_virtual(Point(1, 1))
        with pytest.raises(ValueError):
            tree.depth_of(v)

    def test_is_spanning(self):
        tree, *_ = small_tree()
        assert tree.is_spanning()
        dangling = SteinerTree(Point(0, 0))
        dangling.add_terminal(Point(1, 1), ref=1)
        assert not dangling.is_spanning()

    def test_edges_and_subtree(self):
        tree, w, a, b, c = small_tree()
        assert set(tree.edges()) == {(0, w), (w, a), (w, b), (0, c)}
        assert set(tree.subtree_vids(w)) == {w, a, b}

    def test_edges_list_in_attach_order(self):
        # total_length sums edges in this order, so it fixes the last ulp.
        tree, w, a, b, c = small_tree()
        assert tree.edges() == [(0, w), (w, a), (w, b), (0, c)]
        tree.detach(a)
        tree.attach(c, a)
        assert tree.edges() == [(0, w), (w, b), (0, c), (c, a)]
        assert tree.parent_of(a) == c and tree.children_of(w) == (b,)
