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

Step 1 is a lazy closure driven by Kruskal.  One Dijkstra search per
terminal runs over a :class:`~repro.network.graph.WeightedAdjacency`, and
all of them advance in one global non-decreasing distance order: the
search with the smallest fringe head pops next, in bursts up to the next
search's head.  When terminal *i*'s search settles a later terminal *j*,
that is closure edge (i, j) with weight d(i, j), and a union-find takes it
in.  Search *i* retires once every later terminal shares its component
and its fringe head is strictly above the weight of the last union: each
edge (i, j) it has not found is then heavier than a path of found edges
joining *i* and *j*, so Kruskal would reject it.  The closure stops once
every terminal shares one component and no live search's head is at or
below the last union's weight, so every tie at the bottleneck is found
too.  The closure graph gets the terminals in order, then the found edges
in (i, j) order.  networkx's Kruskal stable-sorts edges by weight, so a
found set that holds every edge the full closure's Kruskal accepts, in
the same relative order, yields the very same MST.  Expanding closure
edge (a, b) in step 3 reads the path from a's search, which settled b.

The tree is exactly the one a full ``networkx.single_source_dijkstra`` per
terminal gives, ties included, because each search keeps networkx's rules:
the heap holds ``(dist, counter, node)``, a node is settled when popped,
neighbours are relaxed in adjacency order, and a predecessor is recorded
only on a strict improvement.  A pause falls between two pops, so a
stopped search has settled the same nodes, at the same distances and
through the same predecessor chains, as the first pops of a full run.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Container, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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

    def head(self) -> float:
        """Distance of the next settle (``inf`` once the fringe runs dry)."""
        fringe = self._fringe
        settled = self.settled
        while fringe and settled[fringe[0][2]]:
            heappop(fringe)
        return fringe[0][0] if fringe else math.inf

    def advance(self, bound: float, watch: Container[int]) -> int:
        """Settle nodes in order while the fringe head is at most ``bound``.

        Returns the first position in ``watch`` settled, pausing right
        after it, or -1 once the head passes ``bound`` or the fringe runs
        dry.
        """
        rows = self._rows
        seen = self.seen
        settled = self.settled
        pred = self._pred
        fringe = self._fringe
        counter = self._counter
        while fringe and fringe[0][0] <= bound:
            d, _, u = heappop(fringe)
            if settled[u]:
                continue
            settled[u] = 1
            for v, w in rows[u]:
                # An unseen v has seen[v] == inf.  A settled v never passes:
                # seen[v] <= d and w >= 0, so networkx's separate check of
                # the settled set is not needed.
                vd = d + w
                if vd < seen[v]:
                    seen[v] = vd
                    pred[v] = u
                    heappush(fringe, (vd, next(counter), v))
            if u in watch:
                return u
        return -1

    def path_to(self, target: int) -> List[int]:
        """Shortest path from the source to ``target`` (settled on demand)."""
        if not self.settled[target]:
            self.advance(math.inf, (target,))
        path = [target]
        pred = self._pred
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        path.reverse()
        return path


def _closure(
    adjacency: WeightedAdjacency, terminals: Sequence[int]
) -> Tuple[List[_Search], List[Tuple[int, int, float]]]:
    """Step 1: every closure edge Kruskal accepts, and maybe a few more.

    Returns one search per terminal and the found edges ``(i, j, d)``,
    ``i < j`` indexing ``terminals``, in (i, j) order.

    Raises:
        ValueError: For the first pair of terminals, in terminal order,
            that are not connected.
    """
    positions = adjacency.positions
    k = len(terminals)
    index_of = {positions[t]: i for i, t in enumerate(terminals)}
    searches = [_Search(adjacency.rows, positions[t]) for t in terminals]
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # unjoined[i]: the first later terminal not yet known to share i's
    # component (k once all do; joined terminals never part again).
    unjoined = list(range(1, k + 1))
    components, last = k, -math.inf
    found: List[Tuple[int, int, float]] = []
    live = [(0.0, i) for i in range(k)]
    while live:
        head, i = heappop(live)
        if head > last:
            if components == 1:
                break
            root = find(i)
            while unjoined[i] < k and find(unjoined[i]) == root:
                unjoined[i] += 1
            if unjoined[i] == k or head == math.inf:
                continue  # retired, or its whole component is settled
        search = searches[i]
        bound = live[0][0] if live else math.inf
        if components == 1:
            bound = min(bound, last)
        u = search.advance(bound, index_of)
        while u >= 0:
            j = index_of[u]
            if j > i:
                d = search.seen[u]
                found.append((i, j, d))
                a, b = find(i), find(j)
                if a != b:
                    parent[a] = b
                    components -= 1
                    last = d
                    if components == 1:
                        bound = min(bound, last)
            u = search.advance(bound, index_of)
        heappush(live, (search.head(), i))

    if components > 1:
        # Every search retired or ran dry, so the union-find now joins
        # exactly the terminals the graph connects.  Terminal 0 is cut off
        # from one of any two unconnected terminals, so the first failing
        # pair in terminal order is (0, j).
        j = next(j for j in range(1, k) if find(j) != find(0))
        raise ValueError(f"terminals {terminals[0]} and {terminals[j]} are not connected")
    found.sort()
    return searches, found


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

    # Step 1: the closure edges the MST can take (module docstring).
    searches, found = _closure(adjacency, terminal_list)
    closure = nx.Graph()
    closure.add_nodes_from(terminal_list)
    for i, j, d in found:
        closure.add_edge(terminal_list[i], terminal_list[j], weight=d)

    # Step 2: MST of the closure.
    closure_mst = nx.minimum_spanning_tree(closure, weight="weight")

    # Step 3: expand closure edges into shortest paths of the base graph.
    expanded = nx.Graph()
    labels = adjacency.labels
    search_of = dict(zip(terminal_list, searches))
    for a, b in closure_mst.edges():
        path = search_of[a].path_to(positions[b])
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
