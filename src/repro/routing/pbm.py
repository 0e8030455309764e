"""PBM: Position-Based Multicast [Mauve et al., MOBIHOC 2003 poster].

At each hop PBM chooses a subset ``W`` of its neighbors minimizing

    f(W) = lambda * |W| / |N|
         + (1 - lambda) * (sum_z min_{w in W} d(w, z)) / (sum_z d(x, z))

— a tradeoff (weighted by ``lambda``) between bandwidth usage (how many
copies are transmitted) and multicast progress (remaining total distance).
Each destination is then assigned to the closest member of ``W``.

Exact PBM enumerates *every* subset of the neighborhood, which the GMP paper
itself flags as exponential and impractical (Section 4.2); at the paper's
density (~70 neighbors) it is infeasible outright.  As documented in
DESIGN.md we restrict the search to a *candidate pool* — for each
destination, its nearest progress-making neighbors — enumerating the pool
exhaustively when it is small and falling back to a greedy removal descent
from the per-destination-best subset when it is large.  Only subsets giving
strict progress for every assigned destination are admissible, which is
what rules out forwarding loops.

Destinations with no progress-making neighbor at all are *void*; PBM places
all of them into a single perimeter-mode group (the GMP paper, Section 5.4:
"PBM will group all the void destinations and always mark the packet to be
in perimeter mode for these destinations" — contrast GMP's Figure 10, which
may instead absorb them into routable groups).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.packets import Destination, MulticastPacket
from repro.routing.base import ForwardDecision, NodeView, RoutingProtocol
from repro.routing.greedy import PROGRESS_EPSILON, total_distance
from repro.routing.perimeter import enter_perimeter, perimeter_next_hop

_PERIMETER_EXITS = ("closer", "eager")

#: Low mask bits scored per NumPy pass.  The exact search enumerates the
#: subsets of a pool in blocks of ``2^_BLOCK_BITS`` masks, so a pool of 20
#: never holds more than 4096 rows of subset minima at once.
_BLOCK_BITS = 12


class _Scorer:
    """PBM's objective f(W) over one hop's routable destinations."""

    def __init__(
        self, dist: np.ndarray, own_dist: np.ndarray, lam: float, neighbor_count: int
    ) -> None:
        self.limit = own_dist - PROGRESS_EPSILON
        self.own_total = float(own_dist.sum())
        self.lam = lam
        self.neighbor_count = neighbor_count

    def scores(
        self, mins: np.ndarray, sizes: Union[int, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(admissible, f) per row of subset minima, for subsets of ``sizes``
        members.  A row of ``sum(axis=1)`` is bit-equal to the 1-D ``sum`` of
        that row, so each f is the one a subset scored alone would get."""
        lam, own_total = self.lam, self.own_total
        valid = (mins < self.limit).all(axis=1)
        if own_total > 0:
            progress = mins.sum(axis=1) / own_total
        else:
            progress = np.zeros(len(mins))
        f = lam * sizes / self.neighbor_count + (1.0 - lam) * progress
        return valid, f

    def best_mask(self, rows: np.ndarray) -> Optional[int]:
        """The winning mask over the rows of a pool, or None if no subset is
        admissible.

        Replays the sequential rule only over the masks that could displace
        the incumbent.  An update raises the incumbent by at most 1e-15, and a
        mask that does not update leaves it within 1e-15 (plus rounding) of
        its own f.  So within a block the incumbent never exceeds the lower
        of its value at the block's start and the least admissible f seen
        earlier in the block, by more than ``(block + 2) * 1e-15`` plus
        rounding.  A mask above that reach plus 1e-15 cannot update, and
        ``slack`` bounds all of it with room to spare.
        """
        if not len(rows):
            return None
        low_bits = min(len(rows), _BLOCK_BITS)
        low_mins, low_sizes = _subset_minima(rows[:low_bits])
        high_mins, high_sizes = _subset_minima(rows[low_bits:])
        slack = (len(low_mins) + 4) * 4e-15 * (
            1.0 + self.lam * len(rows) / self.neighbor_count
        )
        best: Optional[int] = None
        best_score = float("inf")
        best_size = 0
        for high in range(len(high_mins)):
            if high == 0:  # Skip the empty subset.
                base, mins, sizes = 1, low_mins[1:], low_sizes[1:]
            else:
                base = high << low_bits
                mins = np.minimum(low_mins, high_mins[high])
                sizes = low_sizes + high_sizes[high]
            valid, f = self.scores(mins, sizes)
            admissible = np.where(valid, f, np.inf)
            reach = np.minimum.accumulate(
                np.concatenate(([best_score], admissible[:-1]))
            )
            contenders = np.flatnonzero(valid & (f <= reach + slack))
            for t, score, size in zip(
                contenders.tolist(),
                f[contenders].tolist(),
                sizes[contenders].tolist(),
            ):
                if score < best_score - 1e-15 or (
                    abs(score - best_score) <= 1e-15
                    and best is not None
                    and size < best_size
                ):
                    best, best_score, best_size = base + t, score, size
        return best


def _subset_minima(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Column minima and member counts of every subset of ``rows``, by mask.

    Row 0 is the empty subset (all ``inf``); ``mask | 1 << i`` extends
    ``mask < 1 << i`` by row ``i``.
    """
    mins = np.empty((1 << len(rows), rows.shape[1]))
    mins[0] = np.inf
    sizes = np.zeros(1 << len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        span = 1 << i
        np.minimum(mins[:span], row, out=mins[span : 2 * span])
        np.add(sizes[:span], 1, out=sizes[span : 2 * span])
    return mins, sizes


def _removal_minima(rows: np.ndarray) -> np.ndarray:
    """Row ``i``: the column minima of ``rows`` without row ``i`` (2+ rows)."""
    before = np.minimum.accumulate(rows, axis=0)
    after = np.minimum.accumulate(rows[::-1], axis=0)[::-1]
    mins = np.empty_like(rows)
    mins[0] = after[1]
    mins[-1] = before[-2]
    np.minimum(before[:-2], after[2:], out=mins[1:-1])
    return mins


class PBMProtocol(RoutingProtocol):
    """Position-based multicast with the lambda progress/bandwidth tradeoff."""

    #: PBM's own objective prices bandwidth as lambda * |W| / |N| — the cost
    #: of a forwarding step scales with the number of selected neighbors,
    #: i.e. one transmission per subset member, not one shared broadcast.
    aggregates_copies = False

    def __init__(
        self,
        lam: float = 0.3,
        candidates_per_destination: int = 2,
        exact_pool_limit: int = 10,
        perimeter_exit: str = "closer",
    ) -> None:
        """Configure the protocol.

        Args:
            lam: The paper's tradeoff parameter (0 favours per-destination
                progress, larger values favour fewer transmissions; the GMP
                paper sweeps 0..0.6 and keeps the per-task best).
            candidates_per_destination: How many nearest progress-making
                neighbors per destination seed the candidate pool.
            exact_pool_limit: Pool size up to which all ``2^p - 1`` subsets
                are scored exactly; beyond it a greedy removal descent from
                the per-destination-best subset is used.
            perimeter_exit: ``"closer"`` (GPSR rule) or ``"eager"``.
        """
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        if candidates_per_destination < 1:
            raise ValueError("need at least one candidate per destination")
        if exact_pool_limit < 1 or exact_pool_limit > 20:
            raise ValueError("exact pool limit must be in [1, 20]")
        if perimeter_exit not in _PERIMETER_EXITS:
            raise ValueError(f"unknown perimeter exit rule {perimeter_exit!r}")
        self.lam = lam
        self.candidates_per_destination = candidates_per_destination
        self.exact_pool_limit = exact_pool_limit
        self.perimeter_exit = perimeter_exit
        self.name = f"PBM[l={lam:g}]"

    # ------------------------------------------------------------------
    # RoutingProtocol interface
    # ------------------------------------------------------------------

    def handle(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        if packet.perimeter is None:
            return self._handle_greedy(view, packet)
        return self._handle_perimeter(view, packet)

    # ------------------------------------------------------------------
    # Greedy subset selection
    # ------------------------------------------------------------------

    def _handle_greedy(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        decisions, void_group = self._route_by_subset(view, packet)
        if void_group:
            decisions.extend(self._start_perimeter(view, packet, void_group))
        return decisions

    def _route_by_subset(
        self, view: NodeView, packet: MulticastPacket
    ) -> Tuple[List[ForwardDecision], List[Destination]]:
        """Select the forwarding subset; returns (decisions, void dests)."""
        destinations = list(packet.destinations)
        neighbor_ids = view.neighbor_ids
        if not neighbor_ids:
            return [], destinations
        neighbor_locs = view.neighbor_location_array()
        dest_locs = np.asarray([[d.location[0], d.location[1]] for d in destinations])
        own = np.asarray([view.location[0], view.location[1]])
        # dist[i, z] = d(neighbor_i, dest_z); own_dist[z] = d(x, dest_z).
        diff = neighbor_locs[:, None, :] - dest_locs[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        own_dist = np.sqrt(((dest_locs - own) ** 2).sum(axis=1))

        progress = dist < (own_dist - PROGRESS_EPSILON)[None, :]
        has_progress = progress.any(axis=0)
        void_group = [d for d, ok in zip(destinations, has_progress) if not ok]
        routable_idx = np.flatnonzero(has_progress)
        if routable_idx.size == 0:
            return [], void_group

        sub_dist = dist[:, routable_idx]
        sub_own = own_dist[routable_idx]
        pool = self._candidate_pool(sub_dist, sub_own)
        subset = self._select_subset(
            sub_dist, sub_own, pool, neighbor_count=len(neighbor_ids)
        )

        # Assign each routable destination to the closest subset member.
        groups: Dict[int, List[Destination]] = {}
        members = self._assign(sub_dist, subset)
        for dest_idx, member in zip(routable_idx.tolist(), members):
            groups.setdefault(member, []).append(destinations[dest_idx])
        decisions = [
            ForwardDecision(
                neighbor_ids[member], packet.with_destinations(group)
            )
            for member, group in sorted(groups.items())
        ]
        return decisions, void_group

    @staticmethod
    def _assign(dist: np.ndarray, subset: Sequence[int]) -> List[int]:
        """The subset member closest to each destination column; the first in
        subset order on a tie (``argmin`` keeps the first minimum)."""
        closest = np.argmin(dist[np.asarray(subset)], axis=0).tolist()
        return [subset[i] for i in closest]

    def _candidate_pool(
        self, dist: np.ndarray, own_dist: np.ndarray
    ) -> List[int]:
        """Nearest progress-making neighbors per destination, deduplicated.

        Dedup goes through an insertion-ordered dict, never a set: the pool
        order seeds subset enumeration, so it must be identical under every
        ``PYTHONHASHSEED``.
        """
        orders = np.argsort(dist, axis=0, kind="stable").T.tolist()
        columns = dist.T.tolist()
        limits = (own_dist - PROGRESS_EPSILON).tolist()
        per_destination = self.candidates_per_destination
        pool: Dict[int, None] = {}
        for order, column, limit in zip(orders, columns, limits):
            for i in order[:per_destination]:
                if column[i] >= limit:
                    break  # Sorted: nothing further makes progress either.
                pool.setdefault(i, None)
        return list(pool)

    def _select_subset(
        self,
        dist: np.ndarray,
        own_dist: np.ndarray,
        pool: Sequence[int],
        neighbor_count: int,
    ) -> List[int]:
        """Minimize f(W) over admissible subsets of the candidate pool.

        Small pools are searched exhaustively, in mask order: bit ``i`` of a
        mask means ``pool[i]`` is a member, and a subset replaces the
        incumbent when its score is lower by more than 1e-15, or within
        1e-15 with fewer members.  Every subset is scored in one NumPy pass
        per block of masks; only the few masks that could displace the
        incumbent are replayed through that sequential rule.
        """
        scorer = _Scorer(dist, own_dist, self.lam, neighbor_count)
        if len(pool) <= self.exact_pool_limit:
            best = scorer.best_mask(dist[list(pool)])
            if best is not None:
                return [m for i, m in enumerate(pool) if best >> i & 1]
            # Fall through to the always-valid per-destination-best subset.

        # Greedy removal descent from the per-destination-best subset: take
        # the first single-member removal, in member order, that improves.
        current = sorted(set(np.argmin(dist, axis=0).tolist()))
        rows = dist[np.asarray(current)]
        _, f = scorer.scores(rows.min(axis=0, keepdims=True), len(current))
        current_score = float(f[0])
        while len(current) > 1:
            mins = _removal_minima(rows)
            valid, f = scorer.scores(mins, len(current) - 1)
            better = np.flatnonzero(valid & (f < current_score - 1e-15))
            if better.size == 0:
                break
            drop = int(better[0])
            current.pop(drop)
            rows = np.delete(rows, drop, axis=0)
            current_score = float(f[drop])
        return current

    # ------------------------------------------------------------------
    # Perimeter operation
    # ------------------------------------------------------------------

    def _start_perimeter(
        self,
        view: NodeView,
        packet: MulticastPacket,
        void_group: Sequence[Destination],
    ) -> List[ForwardDecision]:
        state = enter_perimeter(view, void_group)
        step = perimeter_next_hop(view, state)
        if step is None:
            return []
        next_hop, new_state = step
        return [
            ForwardDecision(next_hop, packet.with_perimeter(void_group, new_state))
        ]

    def _handle_perimeter(
        self, view: NodeView, packet: MulticastPacket
    ) -> List[ForwardDecision]:
        state = packet.perimeter
        assert state is not None
        may_exit = self.perimeter_exit == "eager" or (
            total_distance(view.location, packet.destination_locations)
            < state.entry_total_distance - PROGRESS_EPSILON
        )
        if may_exit:
            decisions, void_group = self._route_by_subset(view, packet)
            if decisions and not void_group:
                return decisions
            if decisions and void_group:
                decisions.extend(self._start_perimeter(view, packet, void_group))
                return decisions
        step = perimeter_next_hop(view, state)
        if step is None:
            return []
        next_hop, new_state = step
        return [
            ForwardDecision(
                next_hop, packet.with_perimeter(packet.destinations, new_state)
            )
        ]
