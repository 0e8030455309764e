"""rrSTR builds the same trees as its original scalar form, vertex by vertex.

``rrstr_oracle`` keeps the construction as it was before the refinement
moved to flat arrays and inlined geometry.  Every tree must match it in
vids, kinds, location ``repr``, refs, parents and child order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Point
from repro.perf.cache import clear_caches
from repro.sessions import ZipfGroups
from repro.steiner.rrstr import RRStrConfig, refine_tree, rrstr
from repro.steiner.tree import SteinerTree
from tests.steiner.rrstr_oracle import oracle_refine_tree, oracle_rrstr

#: The session workloads' group-size law.
GROUPS = ZipfGroups(alpha=1.3, min_size=2, max_size=40)
GROUP_COUNT = 1000
RADIO_RANGE = 150.0
#: Even groups build the paper's radio-aware GMP tree, odd ones GMPnr's.
CONFIGS = (RRStrConfig(radio_aware=True), RRStrConfig(radio_aware=False))


def signature(tree):
    return [
        (
            v.vid,
            v.kind,
            repr(v.location[0]),
            repr(v.location[1]),
            v.ref,
            tree.parent_of(v.vid),
            tree.children_of(v.vid),
        )
        for v in tree.vertices()
    ]


def _group(rng: np.random.Generator):
    """A source and a Zipf-sized group, with some of the degeneracies rrSTR
    branches on: duplicate locations, destinations at the source, and
    collinear runs."""
    k = GROUPS.sample(rng)
    span = float(rng.choice([400.0, 1000.0, 3000.0]))
    source = Point(float(rng.uniform(0, span)), float(rng.uniform(0, span)))
    locations = [
        Point(float(x), float(y)) for x, y in rng.uniform(0, span, size=(k, 2))
    ]
    shape = rng.integers(0, 4)
    if shape == 1 and k >= 3:
        locations[1] = locations[0]
        locations[2] = source
    elif shape == 2:
        step = float(rng.uniform(20.0, 120.0))
        locations = [Point(source.x + step * (i + 1), source.y) for i in range(k)]
    return source, list(enumerate(locations))


@pytest.fixture(scope="module")
def groups():
    rng = np.random.default_rng(20060704)
    return [_group(rng) for _ in range(GROUP_COUNT)]


@pytest.fixture(scope="module")
def expected(groups):
    return [
        signature(oracle_rrstr(s, d, RADIO_RANGE, CONFIGS[index % 2]))
        for index, (s, d) in enumerate(groups)
    ]


def test_groups_span_the_size_law(groups):
    sizes = [len(d) for _, d in groups]
    assert min(sizes) == 2 and max(sizes) >= 30
    assert sum(k >= 16 for k in sizes) >= 20


def test_trees_match_oracle(groups, expected):
    clear_caches()
    for index, (s, d) in enumerate(groups):
        tree = rrstr(s, d, RADIO_RANGE, CONFIGS[index % 2])
        assert signature(tree) == expected[index], index


def test_refine_tree_matches_oracle_on_hand_built_trees():
    """Unattached vertices, chains and a virtual with many children."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 800, size=(9, 2))]
        trees = []
        for _ in range(2):
            tree = SteinerTree(Point(400.0, 400.0))
            w = tree.add_virtual(pts[0])
            v = tree.add_virtual(pts[1])
            terminals = [tree.add_terminal(p, i) for i, p in enumerate(pts[2:])]
            tree.attach(0, w)
            tree.attach(w, v)
            for t in terminals[:4]:
                tree.attach(w, t)
            tree.attach(v, terminals[4])
            tree.attach(terminals[4], terminals[5])
            # terminals[6] stays unattached.
            trees.append(tree)
        assert signature(refine_tree(trees[0], radio_range=150.0)) == signature(
            oracle_refine_tree(trees[1], radio_range=150.0)
        )


def test_integer_grid_group_builds_float_tree():
    """Integer coordinates give the tree of the equal floats, ``repr``
    included: rrSTR coerces its input to float at entry."""
    rng = np.random.default_rng(62)
    cells = rng.choice(21 * 21, size=63, replace=False)
    points = [Point(int(c % 21) * 50, int(c // 21) * 50) for c in cells]
    floats = [Point(float(p.x), float(p.y)) for p in points]
    for config in CONFIGS:
        clear_caches()
        ints = signature(rrstr(points[0], list(enumerate(points[1:])), RADIO_RANGE, config))
        clear_caches()
        same = signature(rrstr(floats[0], list(enumerate(floats[1:])), RADIO_RANGE, config))
        assert ints == same
        assert all(
            "." in x and "." in y for _, _, x, y, *_ in ints
        ), "every vertex coordinate is a float"
