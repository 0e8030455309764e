"""SMT: the centralized Steiner-tree source-routing baseline.

The paper's SMT (Section 5) assumes the source knows the position of *every*
node in the network; it computes a near-optimal Steiner tree of the
unit-disk graph with the Kou–Markowsky–Berman heuristic [16] and embeds the
routing tree in the packet, dynamic-source-multicast style.  Each on-tree
node simply forwards one copy per child, carrying the destinations living in
that child's subtree.

Being centralized, SMT is the single protocol allowed to look at the whole
:class:`WirelessNetwork` — through :meth:`prepare_task`, run once per task
before the source transmits (the paper includes it "for comparison purposes
only").
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.packets import Destination, MulticastPacket
from repro.routing.base import ForwardDecision, NodeView, RoutingProtocol
from repro.network.graph import WirelessNetwork
from repro.steiner.kmb import kmb_steiner_tree, tree_as_routing_schedule, unit_weights


class SMTProtocol(RoutingProtocol):
    """Centralized KMB Steiner tree with source routing.

    ``metric="distance"`` (default) minimizes total Euclidean length — the
    natural reading of "a close to optimal Steiner tree" computed by the
    Kou–Markowsky–Berman heuristic on the weighted unit-disk graph;
    ``"hops"`` minimizes the transmission count instead (a strictly
    stronger baseline on the paper's hop metric, kept as an ablation).
    """

    name = "SMT"

    def __init__(self, metric: str = "distance") -> None:
        if metric not in ("hops", "distance"):
            raise ValueError(f"unknown SMT metric {metric!r}")
        self.metric = metric
        self._schedule: Dict[int, Tuple[int, ...]] = {}
        self._subtree_destinations: Dict[int, Set[int]] = {}
        self._prepared_for: Tuple[int, Tuple[int, ...]] | None = None

    def prepare_task(
        self,
        network: WirelessNetwork,
        source_id: int,
        destination_ids: Tuple[int, ...],
    ) -> None:
        """Compute the global KMB tree and the per-node forwarding schedule."""
        terminals = [source_id] + [d for d in destination_ids if d != source_id]
        adjacency = network.weighted_adjacency()
        if self.metric == "hops":
            adjacency = unit_weights(adjacency)
        tree = kmb_steiner_tree(adjacency, terminals)
        self._schedule = tree_as_routing_schedule(tree, source_id)
        # For each on-tree node, which destinations live strictly below it.
        self._subtree_destinations = {}
        destination_set = set(destination_ids)

        def collect(node: int) -> Set[int]:
            below: Set[int] = set()
            for child in self._schedule.get(node, ()):
                child_set = collect(child)
                if child in destination_set:
                    child_set = child_set | {child}
                below |= child_set
            self._subtree_destinations[node] = below
            return below

        collect(source_id)
        self._prepared_for = (source_id, tuple(destination_ids))

    def handle(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        if self._prepared_for is None:
            raise RuntimeError("SMTProtocol.handle called before prepare_task")
        remaining = {d.node_id: d for d in packet.destinations}
        decisions: List[ForwardDecision] = []
        for child in self._schedule.get(view.node_id, ()):
            below = self._subtree_destinations.get(child, set()) | {child}
            # Sorted: the embedded destination list must not depend on the
            # interpreter's hash seed, or traces stop being replayable.
            group: List[Destination] = [
                remaining[d] for d in sorted(below) if d in remaining
            ]
            if not group:
                continue  # Nothing left to serve down this branch.
            decisions.append(
                ForwardDecision(child, packet.with_destinations(group))
            )
        return decisions
