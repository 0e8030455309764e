"""Tests for Gabriel / RNG planarization.

Perimeter routing is only correct on a planar, connected overlay, so these
invariants matter: symmetry, RNG-subset-of-Gabriel, planarity (no two
overlay edges cross), and connectivity preservation.
"""

import math
import random

import networkx as nx
import pytest

from repro.geometry import Point, segments_cross
from repro.network.planar import gabriel_neighbors, rng_neighbors
from tests.conftest import make_grid_network


def overlay_graph(network, neighbor_fn):
    graph = nx.Graph()
    graph.add_nodes_from(range(network.node_count))
    for node in range(network.node_count):
        for other in neighbor_fn(node):
            graph.add_edge(node, other)
    return graph


class TestGabriel:
    def test_square_diagonals_removed(self):
        # Four corners of a square plus its center: the center witnesses
        # every diagonal, so only the sides survive.
        pts = [Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100), Point(50, 50)]
        from repro.network import RadioConfig, build_network

        net = build_network(pts, RadioConfig(radio_range_m=200.0))
        gabriel = net.gabriel_neighbors_of(0)
        assert 2 not in gabriel  # The diagonal (0,0)-(100,100) is witnessed.
        assert 4 in gabriel

    def test_symmetry(self, dense_network):
        for node in range(0, dense_network.node_count, 13):
            for other in dense_network.gabriel_neighbors_of(node):
                assert node in dense_network.gabriel_neighbors_of(other)

    def test_subset_of_neighbors(self, dense_network):
        for node in range(0, dense_network.node_count, 13):
            assert set(dense_network.gabriel_neighbors_of(node)) <= set(
                dense_network.neighbors_of(node)
            )

    def test_planarity_no_crossing_edges(self, dense_network):
        graph = overlay_graph(dense_network, dense_network.gabriel_neighbors_of)
        edges = list(graph.edges())[:400]
        loc = dense_network.location_of
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1 :]:
                if len({a, b, c, d}) < 4:
                    continue  # Shared endpoint is not a crossing.
                assert not segments_cross(loc(a), loc(b), loc(c), loc(d)), (
                    f"Gabriel edges ({a},{b}) and ({c},{d}) cross"
                )

    def test_preserves_connectivity(self, dense_network):
        gabriel = overlay_graph(dense_network, dense_network.gabriel_neighbors_of)
        assert nx.is_connected(gabriel)

    def test_grid_connectivity(self, grid_network):
        gabriel = overlay_graph(grid_network, grid_network.gabriel_neighbors_of)
        assert nx.is_connected(gabriel)


class TestRNG:
    def test_rng_subset_of_gabriel(self, dense_network):
        # The relative neighborhood graph is a subgraph of the Gabriel graph.
        for node in range(0, dense_network.node_count, 13):
            assert set(dense_network.rng_neighbors_of(node)) <= set(
                dense_network.gabriel_neighbors_of(node)
            )

    def test_symmetry(self, dense_network):
        for node in range(0, dense_network.node_count, 13):
            for other in dense_network.rng_neighbors_of(node):
                assert node in dense_network.rng_neighbors_of(other)

    def test_preserves_connectivity(self, dense_network):
        rng_overlay = overlay_graph(dense_network, dense_network.rng_neighbors_of)
        assert nx.is_connected(rng_overlay)

    def test_lune_witness_removes_edge(self):
        # w sits in the lune of (u, v): max(d(u,w), d(v,w)) < d(u,v).
        u, v, w = Point(0, 0), Point(100, 0), Point(50, 10)
        kept = rng_neighbors(0, (1, 2), lambda i: [u, v, w][i])
        assert 1 not in kept
        assert 2 in kept

    def test_gabriel_keeps_edge_rng_drops(self):
        # w outside the diameter circle of (u, v) but inside the lune.
        u, v, w = Point(0, 0), Point(100, 0), Point(50, 60)
        gabriel = gabriel_neighbors(0, (1, 2), lambda i: [u, v, w][i])
        rng_set = rng_neighbors(0, (1, 2), lambda i: [u, v, w][i])
        assert 1 in gabriel
        assert 1 not in rng_set


def _neighbor_clusters(seed: int, clusters: int) -> list:
    """Random radio neighborhoods: a center plus its in-range neighbors."""
    rng = random.Random(seed)
    out = []
    for _ in range(clusters):
        u = Point(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0))
        neighbors = []
        for _ in range(rng.randint(1, 35)):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.0, 150.0)
            neighbors.append(Point(u.x + r * math.cos(theta), u.y + r * math.sin(theta)))
        out.append((u, neighbors))
    return out


def test_planarization_matches_witness_transcriptions():
    """Both overlays keep exactly the edges an independent transcription of
    the witness tests keeps, over 1000+ random edges."""
    edges = 0
    for u, neighbors in _neighbor_clusters(13, 100):
        locations = [u] + neighbors
        ids = tuple(range(1, len(locations)))
        gabriel = gabriel_neighbors(0, ids, locations.__getitem__)
        rng_kept = rng_neighbors(0, ids, locations.__getitem__)
        for v_id in ids:
            v = locations[v_id]
            witnesses = [w for w_id, w in enumerate(locations) if w_id not in (0, v_id)]
            center = Point((u.x + v.x) / 2.0, (u.y + v.y) / 2.0)
            radius_sq = ((u.x - v.x) ** 2 + (u.y - v.y) ** 2) / 4.0
            g_witnessed = any(
                (w.x - center.x) ** 2 + (w.y - center.y) ** 2 < radius_sq - 1e-12
                for w in witnesses
            )
            assert (v_id in gabriel) == (not g_witnessed)
            uv_sq = (u.x - v.x) ** 2 + (u.y - v.y) ** 2
            r_witnessed = any(
                (u.x - w.x) ** 2 + (u.y - w.y) ** 2 < uv_sq - 1e-12
                and (v.x - w.x) ** 2 + (v.y - w.y) ** 2 < uv_sq - 1e-12
                for w in witnesses
            )
            assert (v_id in rng_kept) == (not r_witnessed)
        edges += len(ids)
    assert edges >= 1000
