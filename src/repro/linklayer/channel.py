"""The shared radio medium: carrier sense and collision arbitration.

The channel tracks every transmission currently on the air.  Two geometric
relations, both answered by the network's :class:`~repro.network.graph`
spatial index, drive the MAC:

* **Carrier sense** — a node about to transmit asks :meth:`Channel.busy_until`
  whether any audible transmission (sender within the carrier-sense radius)
  is in progress.  A transmission only becomes audible
  ``sensing_delay_s`` after it starts: two nodes that sense an idle channel
  within one slot of each other both transmit — the vulnerable window that
  produces real CSMA collisions.

* **Collision at a receiver** — a reception fails when any *other*
  transmission from a sender inside the receiver's interference radius
  overlapped it in time, or when the receiver itself was transmitting
  (half-duplex).  The rule is applied per receiver, so one broadcast frame
  can be destroyed at one receiver and survive at another (capture), and two
  frames overlapping at a common receiver destroy each other there.

Overlap bookkeeping is exact and cheap: every pair of time-overlapping
transmissions registers each other's sender at ``begin`` time, so the
collision check at ``finish`` time only scans that (small) list.  Senders,
not transmissions, are kept, so finished frames never reference each other
and are freed as soon as the MAC lets go of them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.linklayer.frame import Frame
from repro.network.graph import WirelessNetwork


class Transmission:
    """One frame's occupancy of the air, ``[start_s, end_s)``."""

    __slots__ = ("frame", "sender_id", "start_s", "end_s", "overlap_senders")

    def __init__(self, frame: Frame, start_s: float, end_s: float) -> None:
        self.frame = frame
        self.sender_id = frame.sender_id
        self.start_s = start_s
        self.end_s = end_s
        #: Sender of every transmission whose airtime overlapped this one.
        self.overlap_senders: List[int] = []


class Channel:
    """Collision-domain model over a deployed :class:`WirelessNetwork`."""

    def __init__(
        self, network: WirelessNetwork, carrier_sense_factor: float
    ) -> None:
        if carrier_sense_factor < 1.0:
            raise ValueError(
                f"carrier-sense factor must be >= 1, got {carrier_sense_factor}"
            )
        self._network = network
        self._radius = carrier_sense_factor * network.radio.radio_range_m
        self._active: List[Transmission] = []
        self._interferers: Dict[int, FrozenSet[int]] = {}
        #: Virtual carrier sense: node -> NAV expiry.  A node that heard a
        #: DATA frame's duration field treats the channel as busy through
        #: the frame's ACK train even during the (short) SIFS gaps.
        self._nav: Dict[int, float] = {}

    def interferers_of(self, node_id: int) -> FrozenSet[int]:
        """Nodes whose transmissions are audible at ``node_id`` (excl. itself).

        Symmetric by construction (pure distance threshold); memoized per
        node since the deployment is static for the run.
        """
        cached = self._interferers.get(node_id)
        if cached is None:
            within = self._network.nodes_within(
                self._network.location_of(node_id), self._radius
            )
            cached = frozenset(i for i in within if i != node_id)
            self._interferers[node_id] = cached
        return cached

    @property
    def active_count(self) -> int:
        """Transmissions currently on the air."""
        return len(self._active)

    def begin(self, frame: Frame, now_s: float, airtime_s: float) -> Transmission:
        """Put ``frame`` on the air; registers overlaps with live traffic."""
        if airtime_s <= 0.0:
            raise ValueError(f"airtime must be positive, got {airtime_s}")
        tx = Transmission(frame, now_s, now_s + airtime_s)
        for other in self._active:
            other.overlap_senders.append(tx.sender_id)
            tx.overlap_senders.append(other.sender_id)
        self._active.append(tx)
        return tx

    def finish(self, tx: Transmission) -> None:
        """Take ``tx`` off the air (its overlap senders are preserved)."""
        self._active.remove(tx)

    def reserve(self, node_ids: FrozenSet[int], until_s: float) -> None:
        """Set the NAV of every node in ``node_ids`` to at least ``until_s``.

        Called by the MAC when a DATA frame goes on the air: everyone in
        carrier-sense range of the sender hears the frame's duration field
        and defers through its ACK train (802.11 virtual carrier sense).
        """
        for node_id in node_ids:
            current = self._nav.get(node_id)
            if current is None or until_s > current:
                self._nav[node_id] = until_s

    def busy_until(
        self, node_id: int, now_s: float, sensing_delay_s: float
    ) -> Optional[float]:
        """Carrier sense at ``node_id``: end time of audible traffic, if any.

        A transmission is audible once it has been on the air for at least
        ``sensing_delay_s`` and its sender lies within the carrier-sense
        radius; an unexpired NAV reservation counts as busy too.  Returns
        the latest such end time, or ``None`` when the channel appears idle
        (possibly wrongly — that is the point).
        """
        audible = self._interferers.get(node_id)
        if audible is None:
            audible = self.interferers_of(node_id)
        latest: Optional[float] = None
        for tx in self._active:
            if tx.start_s + sensing_delay_s > now_s:
                continue  # Still inside the vulnerable window: inaudible.
            if tx.sender_id not in audible:
                continue
            if latest is None or tx.end_s > latest:
                latest = tx.end_s
        nav = self._nav.get(node_id)
        if nav is not None and nav > now_s and (latest is None or nav > latest):
            latest = nav
        return latest

    def reception_collided(self, tx: Transmission, receiver_id: int) -> bool:
        """Whether ``receiver_id``'s copy of ``tx`` was destroyed.

        True when the receiver transmitted during ``tx``'s airtime
        (half-duplex) or any overlapping transmission came from inside the
        receiver's interference radius.
        """
        if not tx.overlap_senders:
            return False
        interferers = self._interferers.get(receiver_id)
        if interferers is None:
            interferers = self.interferers_of(receiver_id)
        for sender in tx.overlap_senders:
            if sender == receiver_id or sender in interferers:
                return True
        return False
