"""Rooted, ordered virtual Steiner trees.

The tree a transmitting node builds (via rrSTR or, for LGS, an MST) is
*virtual*: vertices are geographic points, only some of which correspond to
actual sensor nodes.  GMP's routing step then needs, per Figure 7 of the
paper:

* the root's children ("pivots") in a stable order,
* the set of non-virtual terminals under each pivot (the pivot's "group"),
* mutation for void splitting — detach a pivot's *last* child and re-attach
  it under the root — which is why children lists record insertion order.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.geometry import Point, distance


class VertexKind(enum.Enum):
    """Role of a vertex in a virtual multicast tree."""

    SOURCE = "source"
    TERMINAL = "terminal"
    VIRTUAL = "virtual"


class TreeVertex:
    """A vertex of a :class:`SteinerTree`.

    Attributes:
        vid: Index of the vertex within its tree.
        location: Geographic position of the vertex.
        kind: Source / terminal / virtual role.
        ref: For terminals, the node id of the actual destination; ``None``
            for virtual vertices and for the source (whose id the routing
            layer already knows).
    """

    __slots__ = ("vid", "location", "kind", "ref")

    def __init__(
        self, vid: int, location: Point, kind: VertexKind, ref: Optional[int]
    ) -> None:
        self.vid = vid
        self.location = location
        self.kind = kind
        self.ref = ref

    @property
    def is_virtual(self) -> bool:
        return self.kind is VertexKind.VIRTUAL

    @property
    def is_terminal(self) -> bool:
        return self.kind is VertexKind.TERMINAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeVertex(vid={self.vid}, kind={self.kind.value}, loc={self.location})"


class SteinerTree:
    """A mutable rooted tree over geographic points.

    The root (vid 0) is the current/transmitting node.  Edges are directed
    parent -> child; children keep insertion order.
    """

    def __init__(self, root_location: Point) -> None:
        self._vertices: List[TreeVertex] = [
            TreeVertex(0, root_location, VertexKind.SOURCE, None)
        ]
        self._parent: Dict[int, int] = {}
        self._children: Dict[int, List[int]] = {0: []}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def root(self) -> TreeVertex:
        return self._vertices[0]

    def add_terminal(self, location: Point, ref: int) -> int:
        """Add a destination vertex (not yet attached); returns its vid."""
        return self._add_vertex(location, VertexKind.TERMINAL, ref)

    def add_virtual(self, location: Point) -> int:
        """Add a virtual (Steiner-point) vertex; returns its vid."""
        return self._add_vertex(location, VertexKind.VIRTUAL, None)

    def _add_vertex(self, location: Point, kind: VertexKind, ref: Optional[int]) -> int:
        vid = len(self._vertices)
        self._vertices.append(TreeVertex(vid, location, kind, ref))
        self._children[vid] = []
        return vid

    def attach(self, parent_vid: int, child_vid: int) -> None:
        """Add edge ``parent -> child`` (child must currently be parentless)."""
        self._check_vid(parent_vid)
        self._check_vid(child_vid)
        if child_vid == 0:
            raise ValueError("the root cannot be attached under another vertex")
        if child_vid in self._parent:
            raise ValueError(
                f"vertex {child_vid} already has parent {self._parent[child_vid]}"
            )
        if parent_vid == child_vid:
            raise ValueError("cannot attach a vertex to itself")
        self._parent[child_vid] = parent_vid
        self._children[parent_vid].append(child_vid)

    def detach(self, child_vid: int) -> int:
        """Remove the edge to ``child_vid``'s parent; returns the old parent."""
        self._check_vid(child_vid)
        if child_vid not in self._parent:
            raise ValueError(f"vertex {child_vid} has no parent to detach from")
        parent = self._parent.pop(child_vid)
        self._children[parent].remove(child_vid)
        return parent

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._vertices)

    def vertex(self, vid: int) -> TreeVertex:
        self._check_vid(vid)
        return self._vertices[vid]

    def vertices(self) -> Iterator[TreeVertex]:
        return iter(self._vertices)

    def parent_of(self, vid: int) -> Optional[int]:
        """Parent vid, or ``None`` for the root / unattached vertices."""
        return self._parent.get(vid)

    def children_of(self, vid: int) -> Tuple[int, ...]:
        """Children in insertion order (GMP splits from the *last* one)."""
        self._check_vid(vid)
        return tuple(self._children[vid])

    def pivots(self) -> Tuple[int, ...]:
        """The root's children — GMP's initial pivots."""
        return self.children_of(0)

    def subtree_vids(self, vid: int) -> List[int]:
        """All vids in the subtree rooted at ``vid`` (preorder, incl. vid)."""
        self._check_vid(vid)
        out: List[int] = []
        stack = [vid]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(self._children[current]))
        return out

    def terminals_under(self, vid: int) -> List[TreeVertex]:
        """Non-virtual destinations in the subtree rooted at ``vid``.

        This is the paper's ``group(p)`` for a pivot ``p``: if ``p`` itself
        is a terminal it belongs to its own group.
        """
        return [
            self._vertices[v]
            for v in self.subtree_vids(vid)
            if self._vertices[v].is_terminal
        ]

    def edges(self) -> List[Tuple[int, int]]:
        """All ``(parent, child)`` edges."""
        return [(p, c) for c, p in self._parent.items()]

    def total_length(self) -> float:
        """Sum of Euclidean edge lengths."""
        return sum(
            distance(self._vertices[p].location, self._vertices[c].location)
            for c, p in self._parent.items()
        )

    def depth_of(self, vid: int) -> int:
        """Number of edges from the root to ``vid``."""
        self._check_vid(vid)
        depth = 0
        current = vid
        while current != 0:
            parent = self._parent.get(current)
            if parent is None:
                raise ValueError(f"vertex {vid} is not connected to the root")
            current = parent
            depth += 1
            if depth > len(self._vertices):
                raise RuntimeError("parent chain forms a cycle")
        return depth

    def is_spanning(self) -> bool:
        """Whether every non-root vertex is attached into the root component."""
        reachable = set(self.subtree_vids(0))
        return len(reachable) == len(self._vertices)

    def _check_vid(self, vid: int) -> None:
        if not (0 <= vid < len(self._vertices)):
            raise IndexError(f"no vertex with vid {vid}")
