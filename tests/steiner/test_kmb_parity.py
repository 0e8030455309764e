"""Parity of the lazy KMB closure with the full-networkx reference.

``_reference_kmb`` is the KMB implementation that ran one full
``networkx.single_source_dijkstra`` per terminal.  The shipping
implementation must return the very same tree: equal node lists and equal
edge lists, order and weights included, ties everywhere included.
"""

from typing import Dict, List

import networkx as nx
import numpy as np
import pytest

from repro.geometry import distance
from repro.network import RadioConfig, build_network
from repro.network.topology import uniform_random_topology
from repro.routing.smt import SMTProtocol
from repro.steiner.kmb import _closure, _Search, kmb_steiner_tree, unit_weights


def _reference_edge_weight(graph, u, v, weight):
    data = graph[u][v]
    if callable(weight):
        return float(weight(u, v, data))
    return float(data.get(weight, 1.0))


def _reference_kmb(graph, terminals, weight="weight", searches=None):
    """KMB with full networkx single-source searches (the old step 1).

    ``searches`` (terminal -> ``single_source_dijkstra`` result) lets calls
    on the same graph and weight share their searches.
    """
    terminal_list = list(dict.fromkeys(terminals))
    if len(terminal_list) == 1:
        tree = nx.Graph()
        tree.add_node(terminal_list[0])
        return tree
    searches = {} if searches is None else searches
    distances: Dict[int, Dict[int, float]] = {}
    paths: Dict[int, Dict[int, List[int]]] = {}
    for t in terminal_list:
        if t not in searches:
            searches[t] = nx.single_source_dijkstra(graph, t, weight=weight)
        distances[t], paths[t] = searches[t]
    closure = nx.Graph()
    for i, a in enumerate(terminal_list):
        for b in terminal_list[i + 1 :]:
            closure.add_edge(a, b, weight=distances[a][b])
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")
    expanded = nx.Graph()
    for a, b in closure_mst.edges():
        path = paths[a][b]
        for u, v in zip(path[:-1], path[1:]):
            expanded.add_edge(
                u, v, weight=_reference_edge_weight(graph, u, v, weight)
            )
    expanded_mst = nx.minimum_spanning_tree(expanded, weight="weight")
    terminal_set = set(terminal_list)
    pruned = expanded_mst.copy()
    while True:
        leaves = [
            n for n in pruned.nodes() if pruned.degree(n) <= 1 and n not in terminal_set
        ]
        if not leaves:
            break
        pruned.remove_nodes_from(leaves)
    return pruned


def _reference_networkx(network):
    """The unit-disk graph as ``to_networkx`` built it from ``distance``."""
    graph = nx.Graph()
    for node in network.nodes:
        if node.node_id not in network.failed_nodes:
            graph.add_node(node.node_id, location=node.location)
    for node in network.nodes:
        for other in network.neighbors_of(node.node_id):
            if other > node.node_id:
                graph.add_edge(
                    node.node_id,
                    other,
                    weight=distance(node.location, network.nodes[other].location),
                )
    return graph


def _assert_same_tree(got, expected):
    assert list(got.nodes()) == list(expected.nodes())
    assert list(got.edges(data=True)) == list(expected.edges(data=True))


def _deployment(seed, n=300):
    rng = np.random.default_rng(seed)
    return build_network(uniform_random_topology(n, 1000.0, 1000.0, rng), RadioConfig())


def _terminal_sets(network, seed, sizes=(2, 3, 8, 20)):
    """Seeded terminal lists inside the source's connected component."""
    component = sorted(nx.node_connected_component(network.to_networkx(), 0))
    rng = np.random.default_rng(seed)
    return [
        [int(t) for t in rng.choice(component, size=min(k, len(component)), replace=False)]
        for k in sizes
    ]


DEPLOYMENT_SEEDS = (3, 11, 29, 57)


@pytest.fixture(scope="module")
def table1():
    """A 1,000-node Table 1 deployment and its reference graph (read only)."""
    network = _deployment(3, n=1000)
    return network, _reference_networkx(network)


class TestNetworkGraph:
    @pytest.mark.parametrize("seed", DEPLOYMENT_SEEDS)
    def test_networkx_view_matches_distance_weights(self, seed):
        network = _deployment(seed)
        got = network.to_networkx()
        expected = _reference_networkx(network)
        assert list(got.nodes(data=True)) == list(expected.nodes(data=True))
        assert list(got.edges(data=True)) == list(expected.edges(data=True))

    def test_weighted_adjacency_is_symmetric_and_ascending(self):
        network = _deployment(5)
        network.fail_node(4)
        labels, positions, rows = network.weighted_adjacency()
        assert list(labels) == [i for i in range(network.node_count) if i != 4]
        assert all(labels[positions[u]] == u for u in labels)
        for p, row in enumerate(rows):
            assert [labels[q] for q, _ in row] == list(network.neighbors_of(labels[p]))
            for q, w in row:
                assert dict(rows[q])[p] == w


class TestParity:
    @pytest.mark.parametrize("seed", DEPLOYMENT_SEEDS)
    def test_distance_weights(self, seed):
        network = _deployment(seed)
        reference_graph = _reference_networkx(network)
        adjacency = network.weighted_adjacency()
        for terminals in _terminal_sets(network, seed):
            _assert_same_tree(
                kmb_steiner_tree(adjacency, terminals),
                _reference_kmb(reference_graph, terminals),
            )

    @pytest.mark.parametrize("seed", DEPLOYMENT_SEEDS)
    def test_hop_weights(self, seed):
        network = _deployment(seed)
        reference_graph = _reference_networkx(network)
        hops = unit_weights(network.weighted_adjacency())
        for terminals in _terminal_sets(network, seed + 1):
            _assert_same_tree(
                kmb_steiner_tree(hops, terminals),
                _reference_kmb(reference_graph, terminals, weight=lambda u, v, d: 1.0),
            )

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_relabelled_grid_graphs(self, seed):
        rng = np.random.default_rng(seed)
        grid = nx.grid_2d_graph(7, 9)
        labels = rng.permutation(grid.number_of_nodes()).tolist()
        graph = nx.relabel_nodes(
            grid, {node: labels[i] for i, node in enumerate(grid.nodes())}
        )
        # Three weight levels: ties on every route.
        for u, v in graph.edges():
            graph[u][v]["weight"] = float(rng.integers(1, 4))
        for k in (2, 5, 12):
            terminals = [int(t) for t in rng.choice(labels, size=k, replace=False)]
            _assert_same_tree(
                kmb_steiner_tree(graph, terminals), _reference_kmb(graph, terminals)
            )
            hop = lambda u, v, d: 1.0  # noqa: E731
            _assert_same_tree(
                kmb_steiner_tree(graph, terminals, weight=hop),
                _reference_kmb(graph, terminals, weight=hop),
            )

    def test_table1_deployment_at_large_groups(self, table1):
        network, reference_graph = table1
        adjacency = network.weighted_adjacency()
        terminals = _terminal_sets(network, 3, sizes=(40,))[0]
        searches: Dict[int, tuple] = {}
        for k in (25, 40):
            _assert_same_tree(
                kmb_steiner_tree(adjacency, terminals[:k]),
                _reference_kmb(reference_graph, terminals[:k], searches=searches),
            )

    def test_table1_deployment_hop_metric(self):
        # Every closure distance is an integer: ties at every level.
        network = _deployment(11, n=1000)
        terminals = _terminal_sets(network, 11, sizes=(25,))[0]
        _assert_same_tree(
            kmb_steiner_tree(unit_weights(network.weighted_adjacency()), terminals),
            _reference_kmb(
                _reference_networkx(network), terminals, weight=lambda u, v, d: 1.0
            ),
        )

    def test_far_apart_clusters(self, table1):
        """Tight groups far apart: most searches retire on their own cluster."""
        network, reference_graph = table1
        component = set(nx.node_connected_component(reference_graph, 0))
        clusters = []
        for center in ((150.0, 150.0), (850.0, 250.0), (450.0, 850.0)):
            nearest = sorted(
                component, key=lambda n: distance(network.nodes[n].location, center)
            )
            clusters.append(nearest[:4])
        searches: Dict[int, tuple] = {}
        for terminals in (
            [t for group in clusters for t in group],
            [t for group in zip(*clusters) for t in group],  # interleaved
        ):
            _assert_same_tree(
                kmb_steiner_tree(network.weighted_adjacency(), terminals),
                _reference_kmb(reference_graph, terminals, searches=searches),
            )

    def test_unit_grid_ties_at_the_bottleneck(self):
        """Terminals on a lattice of spacing 2: many closure edges weigh 2."""
        rng = np.random.default_rng(4)
        grid = nx.grid_2d_graph(9, 9)
        labels = rng.permutation(grid.number_of_nodes()).tolist()
        label_of = {node: labels[i] for i, node in enumerate(grid.nodes())}
        graph = nx.relabel_nodes(grid, label_of)
        lattice = [label_of[(x, y)] for x in range(0, 9, 2) for y in range(0, 9, 2)]
        searches: Dict[int, tuple] = {}
        for terminals in (lattice, lattice[::-1], rng.permutation(lattice).tolist()):
            _assert_same_tree(
                kmb_steiner_tree(graph, terminals),
                _reference_kmb(graph, terminals, searches=searches),
            )

    def test_duplicate_terminals(self):
        network = _deployment(11)
        reference_graph = _reference_networkx(network)
        source, *destinations = _terminal_sets(network, 11, sizes=(6,))[0]
        # A repeated destination, and the source among the destinations.
        terminals = [source, *destinations, destinations[1], source, destinations[0]]
        _assert_same_tree(
            kmb_steiner_tree(network.weighted_adjacency(), terminals),
            _reference_kmb(reference_graph, terminals),
        )


class TestLaziness:
    def test_closure_settles_at_most_half_of_the_eager_searches(self, table1):
        """A silent fallback to one full search per terminal would show here."""
        network, _ = table1
        adjacency = network.weighted_adjacency()
        positions = adjacency.positions
        terminals = _terminal_sets(network, 7, sizes=(25,))[0]
        searches, _ = _closure(adjacency, terminals)
        lazy = sum(sum(search.settled) for search in searches)
        eager = 0
        for i, a in enumerate(terminals):
            # The old step 1: search i runs until every later terminal is settled.
            search = _Search(adjacency.rows, positions[a])
            for b in terminals[i + 1 :]:
                search.path_to(positions[b])
            eager += sum(search.settled)
        assert 2 * lazy <= eager


class TestResume:
    @pytest.mark.parametrize("seed", DEPLOYMENT_SEEDS)
    def test_staged_search_matches_full_networkx_run(self, seed):
        """Pausing and resuming a search changes no distance and no path."""
        network = _deployment(seed)
        _, positions, rows = network.weighted_adjacency()
        distances, paths = nx.single_source_dijkstra(_reference_networkx(network), 0)
        search = _Search(rows, positions[0])
        rng = np.random.default_rng(seed)
        for target in rng.permutation(sorted(distances)).tolist():
            # Each call resumes the search only as far as one more target.
            assert search.path_to(positions[target]) == [positions[n] for n in paths[target]]
            assert search.seen[positions[target]] == distances[target]


def _smt_schedule(network, source, destinations):
    protocol = SMTProtocol()
    protocol.prepare_task(network, source, tuple(destinations))
    return protocol._schedule


class TestInvalidation:
    """Mutations hit relays of the cached graph's tree, so a stale graph shows."""

    SOURCE, DESTINATIONS = 0, (40, 120, 200, 280)

    def _relays(self, network):
        schedule = _smt_schedule(network, self.SOURCE, self.DESTINATIONS)
        relays = sorted(set(schedule) - {self.SOURCE, *self.DESTINATIONS})
        assert relays
        return relays

    def test_schedule_after_failures_matches_rebuilt_network(self):
        rng = np.random.default_rng(23)
        points = uniform_random_topology(300, 1000.0, 1000.0, rng)
        network = build_network(points, RadioConfig())
        doomed = self._relays(network)[:3]
        for node_id in doomed:
            network.fail_node(node_id)
        survivors = [i for i in range(len(points)) if i not in doomed]
        fresh = build_network([points[i] for i in survivors], RadioConfig())
        new_id = {old: new for new, old in enumerate(survivors)}
        got = _smt_schedule(network, self.SOURCE, self.DESTINATIONS)
        expected = _smt_schedule(
            fresh, new_id[self.SOURCE], [new_id[d] for d in self.DESTINATIONS]
        )
        assert {
            new_id[node]: tuple(new_id[c] for c in children)
            for node, children in got.items()
        } == expected

    def test_schedule_after_moves_matches_rebuilt_network(self):
        rng = np.random.default_rng(23)
        points = list(uniform_random_topology(300, 1000.0, 1000.0, rng))
        network = build_network(points, RadioConfig())
        for node_id in self._relays(network)[:3]:
            points[node_id] = (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            network.move_node(node_id, points[node_id])
        fresh = build_network(points, RadioConfig())
        assert _smt_schedule(network, self.SOURCE, self.DESTINATIONS) == _smt_schedule(
            fresh, self.SOURCE, self.DESTINATIONS
        )


class TestErrors:
    def _network(self):
        rng = np.random.default_rng(23)
        return build_network(uniform_random_topology(200, 1000.0, 1000.0, rng), RadioConfig())

    def test_failed_terminal(self):
        network = self._network()
        _smt_schedule(network, 0, (7,))  # cache the graph while 7 is alive
        network.fail_node(7)
        with pytest.raises(ValueError, match=r"^terminal 7 is not a node of the graph$"):
            _smt_schedule(network, 0, (7,))

    def test_unknown_terminal(self):
        with pytest.raises(ValueError, match=r"^terminal 9999 is not a node of the graph$"):
            _smt_schedule(self._network(), 0, (9999,))

    def test_unreachable_terminals(self):
        # Two clusters far beyond radio range of each other.
        points = [(0.0, 0.0), (100.0, 0.0), (900.0, 900.0), (1000.0, 900.0)]
        network = build_network(points, RadioConfig())
        with pytest.raises(ValueError, match=r"^terminals 1 and 3 are not connected$"):
            _smt_schedule(network, 1, (0, 3))

    @staticmethod
    def _islands():
        """Three islands of four nodes each, far beyond radio range of each other."""
        points = []
        for x0, y0 in ((0.0, 0.0), (900.0, 900.0), (0.0, 900.0)):
            points += [(x0 + 100.0 * i, y0) for i in range(4)]
        return build_network(points, RadioConfig()).weighted_adjacency()

    def test_first_failing_pair_in_terminal_order(self):
        # Islands {0..3}, {4..7}, {8..11}, listed interleaved: the first
        # failing pair is (0, 5), not (0, 1).
        with pytest.raises(ValueError, match=r"^terminals 0 and 5 are not connected$"):
            kmb_steiner_tree(self._islands(), [0, 1, 5, 9, 2, 6])
        with pytest.raises(ValueError, match=r"^terminals 4 and 9 are not connected$"):
            kmb_steiner_tree(unit_weights(self._islands()), [4, 6, 9, 0, 5])

    def test_unreachable_terminal_listed_last(self):
        with pytest.raises(ValueError, match=r"^terminals 1 and 10 are not connected$"):
            kmb_steiner_tree(self._islands(), [1, 0, 3, 2, 10])
