"""Kou–Markowsky–Berman (KMB) graph Steiner heuristic.

The paper's centralized SMT baseline [Kou et al. 1981] assumes the source
knows the entire topology and computes a near-optimal Steiner tree of the
unit-disk graph connecting itself and all destinations.  KMB is the classic
2(1 - 1/L)-approximation:

1. metric closure over the terminals (shortest paths between them),
2. MST of the closure,
3. expand closure edges back into shortest paths,
4. MST of the expanded subgraph,
5. prune non-terminal leaves.

Step 1 runs one Dijkstra search per terminal over a
:class:`~repro.network.graph.WeightedAdjacency` and stops it early:
terminal *i*'s search pauses once every later terminal is settled, since
the closure reads d(a, b) only from the earlier terminal's search.
Expanding closure edge (a, b) in step 3 resumes a's search should b not be
settled yet.

The tree is exactly the one a full ``networkx.single_source_dijkstra`` per
terminal gives, ties included, because the search keeps networkx's rules:
the heap holds ``(dist, counter, node)``, a node is settled when popped,
neighbours are relaxed in adjacency order, and a predecessor is recorded
only on a strict improvement.  A pause falls between two pops, so an
early-stopped search has settled the same nodes, at the same distances and
through the same predecessor chains, as the first pops of a full run.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.network.graph import WeightedAdjacency

WeightSpec = Union[str, Callable]


def graph_adjacency(
    graph: nx.Graph, weight: WeightSpec = "weight"
) -> WeightedAdjacency:
    """``graph`` as a :class:`WeightedAdjacency`, in networkx's own order.

    Positions follow ``graph``'s node order and rows its adjacency order.
    ``weight`` follows networkx: an edge attribute name (missing means 1)
    or an ``f(u, v, data)`` callable, where ``None`` hides the edge.

    Raises:
        ValueError: On a negative or non-finite edge weight.
    """

    def resolve(u: int, v: int, data: dict) -> Optional[float]:
        return weight(u, v, data) if callable(weight) else data.get(weight, 1.0)

    labels = list(graph)
    positions = {node: p for p, node in enumerate(labels)}
    rows: List[Tuple[Tuple[int, float], ...]] = []
    for u, neighbors in graph.adjacency():
        row: List[Tuple[int, float]] = []
        for v, data in neighbors.items():
            w = resolve(u, v, data)
            if w is None:
                continue
            if not 0.0 <= w < math.inf:
                raise ValueError(f"edge ({u}, {v}) has weight {w}; KMB needs finite w >= 0")
            row.append((positions[v], float(w)))
        rows.append(tuple(row))
    return WeightedAdjacency(labels, positions, rows)


def unit_weights(adjacency: WeightedAdjacency) -> WeightedAdjacency:
    """The same graph with every edge weighing 1.0 (hop counts)."""
    return adjacency._replace(
        rows=[tuple((q, 1.0) for q, _ in row) for row in adjacency.rows]
    )


class _Search:
    """One source's Dijkstra search, paused between pops and resumable.

    State is indexed by position: ``seen[p]`` is the best distance found
    so far (final once ``settled[p]``), ``pred[p]`` the predecessor.
    """

    __slots__ = ("_rows", "seen", "settled", "_pred", "_fringe", "_counter")

    def __init__(self, rows: Sequence[Sequence[Tuple[int, float]]], source: int) -> None:
        self._rows = rows
        self.seen = [math.inf] * len(rows)
        self.seen[source] = 0.0
        self.settled = bytearray(len(rows))
        self._pred = [-1] * len(rows)
        self._fringe: List[Tuple[float, int, int]] = [(0.0, 0, source)]
        self._counter = count(1)

    def settle(self, targets: Iterable[int]) -> None:
        """Advance until every target is settled or the fringe runs dry."""
        settled = self.settled
        pending = {t for t in targets if not settled[t]}
        rows = self._rows
        seen = self.seen
        pred = self._pred
        fringe = self._fringe
        counter = self._counter
        while pending and fringe:
            d, _, u = heappop(fringe)
            if settled[u]:
                continue
            settled[u] = 1
            pending.discard(u)
            for v, w in rows[u]:
                # An unseen v has seen[v] == inf.  A settled v never passes:
                # seen[v] <= d and w >= 0, so networkx's separate check of
                # the settled set is not needed.
                vd = d + w
                if vd < seen[v]:
                    seen[v] = vd
                    pred[v] = u
                    heappush(fringe, (vd, next(counter), v))

    def path_to(self, target: int) -> List[int]:
        """Shortest path from the source to ``target`` (settled on demand)."""
        self.settle((target,))
        path = [target]
        pred = self._pred
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        return path


def _edge_weight(adjacency: WeightedAdjacency, p: int, q: int) -> float:
    """Weight of edge ``(p, q)`` as row ``p`` lists it."""
    return next(w for x, w in adjacency.rows[p] if x == q)


def kmb_steiner_tree(
    graph: Union[nx.Graph, WeightedAdjacency],
    terminals: Sequence[int],
    weight: WeightSpec = "weight",
) -> nx.Graph:
    """Steiner tree of ``graph`` spanning ``terminals`` via KMB.

    Args:
        graph: A :class:`WeightedAdjacency` (e.g.
            :meth:`repro.network.graph.WirelessNetwork.weighted_adjacency`)
            or an undirected ``networkx`` graph, read through
            :func:`graph_adjacency`.
        terminals: Node ids to span; must all be present and mutually
            reachable in ``graph``.
        weight: Edge-weight specification for a ``networkx`` input — an
            edge attribute name or an ``f(u, v, data)`` callable.  Pass
            ``lambda u, v, d: 1.0`` to minimize *hop counts* instead of
            meters (the metric the paper's figures report); for a
            :class:`WeightedAdjacency`, use :func:`unit_weights`.

    Returns:
        A tree subgraph of ``graph`` containing every terminal.

    Raises:
        ValueError: If terminals are missing or mutually unreachable.
    """
    adjacency = graph_adjacency(graph, weight) if isinstance(graph, nx.Graph) else graph
    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise ValueError("KMB needs at least one terminal")
    positions = adjacency.positions
    for t in terminal_list:
        if t not in positions:
            raise ValueError(f"terminal {t} is not a node of the graph")
    if len(terminal_list) == 1:
        tree = nx.Graph()
        tree.add_node(terminal_list[0])
        return tree

    # Step 1: metric closure restricted to the terminals, each search
    # stopped once the terminals after its own are settled.
    searches = {t: _Search(adjacency.rows, positions[t]) for t in terminal_list}
    closure = nx.Graph()
    for i, a in enumerate(terminal_list):
        later = terminal_list[i + 1 :]
        search = searches[a]
        search.settle(positions[b] for b in later)
        for b in later:
            if not search.settled[positions[b]]:
                raise ValueError(f"terminals {a} and {b} are not connected")
            closure.add_edge(a, b, weight=search.seen[positions[b]])

    # Step 2: MST of the closure.
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")

    # Step 3: expand closure edges into shortest paths of the base graph.
    expanded = nx.Graph()
    labels = adjacency.labels
    for a, b in closure_mst.edges():
        path = searches[a].path_to(positions[b])
        for p, q in zip(path[:-1], path[1:]):
            expanded.add_edge(labels[p], labels[q], weight=_edge_weight(adjacency, p, q))

    # Step 4: MST of the expanded subgraph.
    expanded_mst = nx.minimum_spanning_tree(expanded, weight="weight")

    # Step 5: prune non-terminal leaves repeatedly.
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


def tree_as_routing_schedule(
    tree: nx.Graph, root: int
) -> Dict[int, Tuple[int, ...]]:
    """Orient a tree away from ``root``: node id -> ordered child ids.

    This is the forwarding table SMT embeds into its packets (dynamic source
    multicast style): each on-tree node forwards one copy per child.
    """
    if root not in tree:
        raise ValueError(f"root {root} is not in the tree")
    schedule: Dict[int, Tuple[int, ...]] = {}
    visited = {root}
    frontier = [root]
    while frontier:
        current = frontier.pop()
        children = tuple(sorted(n for n in tree.neighbors(current) if n not in visited))
        schedule[current] = children
        for child in children:
            visited.add(child)
            frontier.append(child)
    if len(visited) != tree.number_of_nodes():
        raise ValueError("tree is disconnected from the root")
    return schedule


def tree_depths(tree: nx.Graph, root: int, targets: Iterable[int]) -> Dict[int, int]:
    """Hop depth of each target from ``root`` along the tree."""
    depths = nx.single_source_shortest_path_length(tree, root)
    return {t: depths[t] for t in targets}
