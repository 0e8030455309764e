"""Multicast packets.

Per the paper's model (Sections 2 and 4): a packet carries the locations of
the destinations still to be served by the branch of the dissemination it
belongs to, a hop counter (the paper's Figure-15 experiment drops packets at
100 hops), and — while recovering from a void — the perimeter-mode state of
Section 4.1.

Because a node's location is its address, a destination is represented as a
``(node_id, location)`` pair; the integer id is only an efficient lookup key
for the simulation engine, never an input to routing decisions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.geometry import Point


class Destination(NamedTuple):
    """One multicast destination: the node and its (address) location."""

    node_id: int
    location: Point


@dataclass(frozen=True)
class PerimeterState:
    """GPSR-style perimeter-mode bookkeeping (paper Section 4.1).

    Attributes:
        target: Average location of the group's (void) destinations; the
            point perimeter forwarding walks toward.
        entry_location: Where the packet entered perimeter mode (GPSR's Lp).
        entry_total_distance: Sum of distances from ``entry_location`` to the
            group's destinations at entry time; a node may leave perimeter
            mode only once its own total distance beats this, mirroring the
            paper's "closer than the point where the packet entered" rule.
        came_from: Location of the previous hop, the reference edge for the
            right-hand rule (``None`` right after entering).
        face_crossing: Best intersection of a traversed edge with the
            ``entry_location -> target`` segment so far (GPSR's Lf), used to
            decide face changes.
        first_edge: The first directed edge taken on the current face; about
            to re-traverse it means the whole face was toured without
            progress, i.e. the target is unreachable.
    """

    target: Point
    entry_location: Point
    entry_total_distance: float
    came_from: Optional[Point] = None
    face_crossing: Optional[Point] = None
    first_edge: Optional[Tuple[Point, Point]] = None

    def advanced(self, **updates) -> "PerimeterState":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **updates)


@dataclass(frozen=True)
class MulticastPacket:
    """An in-flight multicast packet (or one branch copy of it).

    Immutable: every forwarding step produces fresh copies via the
    ``with_*`` helpers, so branches of the dissemination can never alias
    each other's state.
    """

    task_id: int
    source: Destination
    destinations: Tuple[Destination, ...]
    hop_count: int = 0
    perimeter: Optional[PerimeterState] = None
    #: Current subtree root for protocols that unicast each copy toward a
    #: fixed subdestination and only re-partition there (LGS/LGK; the GMP
    #: paper's Figure-13 analysis hinges on LGS *not* splitting at
    #: intermediate nodes).  ``None`` for per-hop protocols like GMP/PBM.
    subdestination: Optional[Destination] = None
    payload_bytes: int = 128

    def __post_init__(self) -> None:
        if self.hop_count < 0:
            raise ValueError(f"hop count must be non-negative, got {self.hop_count}")
        if self.payload_bytes <= 0:
            raise ValueError(f"payload must be positive, got {self.payload_bytes}")
        seen = set()
        for dest in self.destinations:
            if dest.node_id in seen:
                raise ValueError(f"duplicate destination {dest.node_id} in packet")
            seen.add(dest.node_id)

    @property
    def destination_ids(self) -> Tuple[int, ...]:
        return tuple(d.node_id for d in self.destinations)

    @property
    def destination_locations(self) -> Tuple[Point, ...]:
        return tuple(d.location for d in self.destinations)

    @property
    def in_perimeter_mode(self) -> bool:
        return self.perimeter is not None

    def without_destination(self, node_id: int) -> "MulticastPacket":
        """Copy with ``node_id`` removed from the destination list."""
        remaining = tuple(d for d in self.destinations if d.node_id != node_id)
        if len(remaining) == len(self.destinations):
            return self
        return self._derived(destinations=remaining)

    def with_destinations(
        self,
        destinations: Sequence[Destination],
        subdestination: Optional[Destination] = None,
    ) -> "MulticastPacket":
        """Copy restricted to the given destination subset (PERIMODE cleared).

        Splitting the destinations into groups produces per-group copies; a
        greedy (non-perimeter) forward always clears the perimeter flag, as
        in step 4 of the paper's Figure 7.  ``subdestination`` pins the
        copy's subtree root for unicast-toward-root protocols (LGS/LGK);
        omitted, the copy carries none.
        """
        return dataclasses.replace(
            self,
            destinations=tuple(destinations),
            perimeter=None,
            subdestination=subdestination,
        )

    def with_perimeter(
        self,
        destinations: Sequence[Destination],
        state: PerimeterState,
    ) -> "MulticastPacket":
        """Copy restricted to ``destinations``, marked in perimeter mode."""
        return dataclasses.replace(
            self,
            destinations=tuple(destinations),
            perimeter=state,
            subdestination=None,
        )

    def hopped(self) -> "MulticastPacket":
        """Copy with the hop counter incremented (one radio transmission)."""
        return self._derived(hop_count=self.hop_count + 1)

    def _derived(self, **changes: object) -> "MulticastPacket":
        """``dataclasses.replace`` without re-running ``__post_init__``.

        Only for changes that keep a valid packet valid: a larger hop count
        or a subset of the (already duplicate-free) destinations.  Copies
        taking destinations from protocol code go through ``replace`` and
        its duplicate check.
        """
        clone = object.__new__(self.__class__)
        clone.__dict__.update(self.__dict__, **changes)
        return clone

    def header_size_bytes(self) -> int:
        """Wire-size estimate of the geographic header.

        16 bytes per embedded location (two float64 coordinates) for the
        next-hop address, the source and each destination, plus 4 bytes of
        flags/counters.  The paper charges a flat 128-byte message for
        energy; this estimate exists for the header-overhead ablation.
        """
        embedded_locations = 2 + len(self.destinations)
        if self.perimeter is not None:
            embedded_locations += 3
        return 4 + 16 * embedded_locations
