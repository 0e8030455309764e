"""HELLO-beacon neighbor tables and the view protocols read them through.

The paper's locality model assumes every node knows its neighbors' locations
(Section 2); in the field that knowledge is *soft state* maintained by
periodic HELLO beacons — entries appear when a beacon is heard and silently
age out when beacons stop.  :class:`BeaconService` owns one
:class:`NeighborTable` per node and is fed by the link layer whenever a
beacon survives the channel; :meth:`BeaconService.view` carves the same
:class:`~repro.routing.base.NodeView` capability the engine normally builds
from the graph oracle, except every answer comes from the possibly-stale
table: a crashed node lingers in its neighbors' tables (and keeps attracting
packets) for up to the expiry interval.

With ``warm_start`` (the default) every table starts as a completed beacon
round at time zero, so a loss-free run with live nodes sees tables identical
to the oracle adjacency — which is what makes the contended engine's
delivery set reproduce the default model's exactly in that regime.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.geometry import Point
from repro.network.graph import WirelessNetwork
from repro.network.planar import gabriel_neighbors
from repro.routing.base import NodeView


class NeighborTable:
    """One node's soft-state neighbor map: id -> (location, last-heard)."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[Point, float]] = {}

    def update(self, node_id: int, location: Point, heard_at_s: float) -> None:
        """Insert or refresh an entry from a received HELLO."""
        self._entries[node_id] = (location, heard_at_s)

    def live_ids(self, now_s: float, expiry_s: float) -> Tuple[int, ...]:
        """Ascending ids of entries younger than ``expiry_s``."""
        return tuple(self.live_locations(now_s, expiry_s))

    def location_entry(self, node_id: int) -> Optional[Point]:
        """Last advertised location of ``node_id`` (``None`` if never heard)."""
        entry = self._entries.get(node_id)
        return entry[0] if entry is not None else None

    def live_locations(self, now_s: float, expiry_s: float) -> Dict[int, Point]:
        """Last advertised location of every entry younger than ``expiry_s``.

        Keyed in ascending id order.
        """
        deadline = now_s - expiry_s
        return dict(
            sorted(
                (node_id, location)
                for node_id, (location, heard) in self._entries.items()
                if heard >= deadline
            )
        )

    def __len__(self) -> int:
        return len(self._entries)


class BeaconNodeView(NodeView):
    """A :class:`NodeView` answered from a beacon table snapshot.

    The node's *own* id/location still come from the network (a node always
    knows where it is); everything about other nodes comes from the table as
    it stood at construction time.
    """

    __slots__ = ("_ids", "_locations", "_array", "_planar")

    def __init__(
        self,
        network: WirelessNetwork,
        node_id: int,
        neighbor_ids: Tuple[int, ...],
        locations: Dict[int, Point],
    ) -> None:
        super().__init__(network, node_id)
        self._ids = neighbor_ids
        self._locations = locations
        self._array: Optional[np.ndarray] = None
        self._planar: Optional[Tuple[int, ...]] = None

    @property
    def neighbor_ids(self) -> Tuple[int, ...]:
        return self._ids

    @property
    def planar_neighbor_ids(self) -> Tuple[int, ...]:
        if self._planar is None:
            self._planar = gabriel_neighbors(
                self.node_id, self._ids, self.location_of
            )
        return self._planar

    def location_of(self, neighbor_id: int) -> Point:
        if neighbor_id == self.node_id:
            return self.location
        found = self._locations.get(neighbor_id)
        if found is None:
            raise ValueError(
                f"node {self.node_id} has heard no beacon from {neighbor_id}"
            )
        return found

    def neighbor_location_array(self) -> np.ndarray:
        if self._array is None:
            if self._ids:
                array = np.array(
                    [[self._locations[i][0], self._locations[i][1]] for i in self._ids],
                    dtype=float,
                )
            else:
                array = np.empty((0, 2), dtype=float)
            array.setflags(write=False)
            self._array = array
        return self._array


class BeaconService:
    """The neighbor/location service fed by HELLO beacons.

    Pure bookkeeping: the link layer decides *when* beacons go on the air
    and which listeners survive the channel; this class only records what
    was heard and answers view queries against it.
    """

    def __init__(
        self,
        network: WirelessNetwork,
        expiry_s: float,
        warm_start: bool = True,
        advertised_location: Optional[Callable[[int], Point]] = None,
        silenced: FrozenSet[int] = frozenset(),
    ) -> None:
        if expiry_s <= 0.0:
            raise ValueError(f"beacon expiry must be positive, got {expiry_s}")
        self._network = network
        self._expiry_s = expiry_s
        #: Adversary seams (mirroring :class:`~repro.linklayer.mac.LinkLayer`):
        #: spoofed HELLO positions and nodes that never beaconed, applied to
        #: the warm-start round too — a spoofer lied from the first HELLO
        #: and a suppressor was never heard at all.
        self._advertised = advertised_location or network.location_of
        self._silenced = silenced
        self._tables: List[NeighborTable] = [
            NeighborTable() for _ in range(network.node_count)
        ]
        #: Gabriel subsets are pure in (node, live-id set) for a static
        #: deployment, so they are memoized across view constructions.
        self._planar_memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        if warm_start:
            self._warm_start()

    def _warm_start(self) -> None:
        """Populate every table as if a full beacon round ended at time 0.

        Crashed nodes beaconed *before* crashing, so they are present too —
        exactly the stale state a between-refresh failure leaves behind.
        Suppressed nodes are the exception: they never sent that round's
        HELLO, so no table ever lists them.  Reads neighbor ids straight
        off the network's CSR adjacency rows (one O(1) slice per node) and
        resolves each advertised location once, instead of chasing node
        objects per (node, neighbor) pair.
        """
        network = self._network
        advertised = [self._advertised(i) for i in range(network.node_count)]
        for node_id, table in enumerate(self._tables):
            for neighbor in network.neighbors_of(node_id):
                if neighbor in self._silenced:
                    continue
                table.update(neighbor, advertised[neighbor], 0.0)

    @property
    def expiry_s(self) -> float:
        return self._expiry_s

    def table_of(self, node_id: int) -> NeighborTable:
        return self._tables[node_id]

    def hear_beacon(
        self, listener_id: int, sender_id: int, location: Point, now_s: float
    ) -> None:
        """Record that ``listener_id`` heard ``sender_id``'s HELLO."""
        self._tables[listener_id].update(sender_id, location, now_s)

    def view(self, node_id: int, now_s: float) -> BeaconNodeView:
        """The node's routing view as its beacon table stands at ``now_s``."""
        locations = self._tables[node_id].live_locations(now_s, self._expiry_s)
        ids = tuple(locations)
        view = BeaconNodeView(self._network, node_id, ids, locations)
        memo_key = (node_id, ids)
        planar = self._planar_memo.get(memo_key)
        if planar is None:
            planar = view.planar_neighbor_ids
            self._planar_memo[memo_key] = planar
        else:
            view._planar = planar
        return view
