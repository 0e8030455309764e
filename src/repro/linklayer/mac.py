"""CSMA medium access, per-copy ARQ, and the beacon process.

Every node owns a :class:`NodeMac`: a FIFO transmit queue in front of a
carrier-sense/backoff state machine.  The :class:`LinkLayer` orchestrates
the whole population over one shared :class:`~repro.linklayer.channel.Channel`
and simulator clock, and reports back to its host (the contended engine)
through four callbacks — deliver a surviving copy, charge energy, ask
whether injected loss eats a copy, and record a frame for tracing.  The
linklayer package deliberately knows nothing about the engine's result
types; the host builds its own trace records from the raw outcome tuples.

Timing model (all knobs from :class:`~repro.linklayer.config.LinkLayerConfig`):

* A queued frame waits DIFS plus a uniform backoff in ``[0, cw)`` slots,
  then senses the channel.  Busy → defer until the sensed end-of-traffic
  plus a fresh DIFS+backoff; idle → transmit.  Sensing only hears
  transmissions at least one slot old, so near-simultaneous senders collide.
* A DATA frame under ARQ is followed by an ACK train: the ``i``-th copy's
  receiver, if it got the copy, acknowledges at ``SIFS + i*(ack_airtime +
  SIFS)`` after the frame ends.  ACKs skip carrier sense (their slot in the
  train *is* the arbitration) but still occupy the air and can collide.
* Copies still unacknowledged when the train window closes are retransmitted
  with a doubled contention window, up to ``max_retries`` attempts, after
  which they are dropped (counted as ``arq_drops``).  Receivers remember
  delivered ``copy_uid``s so a retransmission caused by a lost ACK is
  re-acknowledged but not re-delivered.
* Beacons ride the same queues as broadcast frames without ARQ.

Determinism: backoff and beacon jitter come from per-node named streams of
the :class:`~repro.simkit.rng.RandomStreams` family the host passes in; the
event order is fixed by the simulator's ``(time, sequence)`` heap.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.geometry import Point
from repro.linklayer.channel import Channel, Transmission
from repro.linklayer.config import LinkLayerConfig
from repro.linklayer.frame import ACK, BEACON, DATA, JAM, Frame, FrameCopy
from repro.linklayer.neighbors import BeaconService
from repro.linklayer.stats import LinkStats
from repro.network.graph import WirelessNetwork
from repro.packets import MulticastPacket
from repro.routing.base import NodeView
from repro.simkit.rng import RandomStreams
from repro.simkit.simulator import Simulator

#: A copy's fate at frame end: (receiver, packet, lost?).  ``lost`` covers
#: collision, receiver failure, and injected link loss alike.
CopyOutcome = Tuple[int, MulticastPacket, bool]

#: Host hook recording one frame: (session, kind, sender, start_s, retry,
#: outcomes).  Beacons report ``session=None``.
FrameHook = Callable[
    [Optional[int], str, int, float, int, Sequence[CopyOutcome]], None
]

#: Host hook delivering one surviving copy: (session, receiver, packet).
DeliverHook = Callable[[int, int, MulticastPacket], None]

#: Host hook charging one transmission's energy: (session, sender,
#: size_bytes, count_as_transmission).  ``session=None`` is infrastructure.
ChargeHook = Callable[[Optional[int], int, Optional[int], bool], None]

#: Host hook for injected link loss: (session, receiver) -> copy destroyed?
LossHook = Callable[[int, int], bool]


#: Raw 32-bit words per draw from a node's backoff stream (see
#: :func:`_backoff_words`).
_BACKOFF_BLOCK = 64
_WORD_RANGE = 1 << 32
_WORD_MASK = _WORD_RANGE - 1


def _backoff_words(rng: np.random.Generator) -> Iterator[int]:
    """The raw 32-bit words of ``rng``, drawn :data:`_BACKOFF_BLOCK` at a time.

    ``integers(0, 2**32, dtype=uint32)`` returns the generator's next 32-bit
    outputs unchanged, and they are the very words ``integers(0, cw)``
    consumes one at a time, so drawing them ahead changes no slot.  That
    holds only because nothing else reads the node's ``("backoff",
    node_id)`` stream: :class:`LinkLayer` creates it for this node's MAC
    alone, and a draw by anyone else would see words already spent here.
    A block stays packed (iterating a memoryview yields plain ints one at a
    time), so a node holds a few hundred bytes of words, not a list.
    """
    while True:
        yield from memoryview(
            rng.integers(0, _WORD_RANGE, size=_BACKOFF_BLOCK, dtype=np.uint32)
        )


class _Job:
    """One frame's trip through a node's MAC queue (mutable ARQ state)."""

    __slots__ = ("kind", "session_id", "copies", "size_bytes", "arq", "retry", "cw")

    def __init__(
        self,
        kind: str,
        session_id: Optional[int],
        copies: Tuple[FrameCopy, ...],
        size_bytes: Optional[int],
        arq: bool,
        cw: int,
    ) -> None:
        self.kind = kind
        self.session_id = session_id
        self.copies = copies
        self.size_bytes = size_bytes
        self.arq = arq
        self.retry = 0
        self.cw = cw


class NodeMac:
    """One node's FIFO queue plus carrier-sense/backoff state machine."""

    __slots__ = (
        "_layer", "node_id", "_words", "_queue", "_current", "_difs_s", "_slot_s"
    )

    def __init__(self, layer: "LinkLayer", node_id: int, rng: np.random.Generator) -> None:
        self._layer = layer
        self.node_id = node_id
        self._words = _backoff_words(rng)
        self._queue: Deque[_Job] = deque()
        self._current: Optional[_Job] = None
        self._difs_s = layer.config.difs_s
        self._slot_s = layer.config.slot_time_s

    @property
    def queue_depth(self) -> int:
        """Jobs waiting behind the one in service (if any)."""
        return len(self._queue)

    def draw_backoff_s(self, cw_slots: int) -> float:
        """DIFS plus a uniform ``[0, cw)``-slot backoff, in seconds.

        The slot count is exactly ``rng.integers(0, cw_slots)``: NumPy's
        bounded Lemire rule applied to the stream's next 32-bit words (a
        one-slot window draws nothing; a word whose low product half falls
        under ``(2**32 - cw) % cw`` is rejected and the next one tried).
        """
        if cw_slots < 1:
            raise ValueError(f"contention window must be >= 1 slot, got {cw_slots}")
        slots = 0
        if cw_slots > 1:
            threshold = (_WORD_RANGE - cw_slots) % cw_slots
            product = next(self._words) * cw_slots
            while product & _WORD_MASK < threshold:
                product = next(self._words) * cw_slots
            slots = product >> 32
        return self._difs_s + slots * self._slot_s

    def enqueue(self, job: _Job) -> None:
        self._queue.append(job)
        if self._current is None:
            self._start_next()

    def job_done(self) -> None:
        """Current job finished (delivered, dropped, or beacon sent)."""
        self._current = None
        self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            return
        self._current = self._queue.popleft()
        self._layer.simulator.schedule_after(
            self.draw_backoff_s(self._current.cw), self.attempt
        )

    def attempt(self) -> None:
        """Sense the channel; transmit if idle, defer if busy."""
        job = self._current
        if job is None:  # pragma: no cover - defensive; jobs never vanish
            return
        layer = self._layer
        simulator = layer.simulator
        now = simulator.now
        busy_end = layer.channel.busy_until(self.node_id, now, self._slot_s)
        if busy_end is not None:
            # Beacon jobs carry no session, so they bump the global bucket.
            layer.stats.bump("backoff_defers", job.session_id)
            wait = busy_end - now
            if wait < 0.0:
                wait = 0.0
            simulator.schedule_after(wait + self.draw_backoff_s(job.cw), self.attempt)
            return
        layer.transmit(self, job)


class LinkLayer:
    """The contended link layer shared by every node in one simulation."""

    def __init__(
        self,
        network: WirelessNetwork,
        simulator: Simulator,
        config: LinkLayerConfig,
        streams: RandomStreams,
        failed_node_ids: FrozenSet[int],
        deliver: DeliverHook,
        charge: ChargeHook,
        copy_loss: LossHook,
        on_frame: Optional[FrameHook] = None,
        advertised_location: Optional[Callable[[int], Point]] = None,
        beacon_silenced: FrozenSet[int] = frozenset(),
    ) -> None:
        self._network = network
        self.simulator = simulator
        self.config = config
        self._failed = failed_node_ids
        self._deliver = deliver
        self._charge = charge
        self._copy_loss = copy_loss
        self._on_frame = on_frame
        # Adversary seams: where a node *claims* to be in its HELLOs (a
        # location spoofer lies here) and which nodes never beacon at all
        # (suppressors).  Plain data/callables so the linklayer stays as
        # ignorant of the adversary package as it is of the engine.
        self._advertised = advertised_location or network.location_of
        self._silenced = beacon_silenced
        self.stats = LinkStats()
        self.channel = Channel(network, config.carrier_sense_factor)
        self._macs: List[NodeMac] = [
            NodeMac(self, node_id, streams.stream("backoff", node_id))
            for node_id in range(network.node_count)
        ]
        self._beacon_streams = streams
        self._beacon_service: Optional[BeaconService] = (
            BeaconService(
                network,
                config.beacon_expiry_s,
                config.warm_start,
                advertised_location=advertised_location,
                silenced=beacon_silenced,
            )
            if config.beacons
            else None
        )
        self._ack_airtime_s = network.radio.transmission_time(config.ack_bytes)
        #: One ACK's slot in a train: its airtime plus the SIFS before it.
        self._ack_slot_s = self._ack_airtime_s + config.sifs_s
        self._next_uid = 0
        #: copy_uids already delivered to their receiver (link-level dedup).
        self._delivered_uids: Set[int] = set()

    # ------------------------------------------------------------------ API

    @property
    def beacon_service(self) -> Optional[BeaconService]:
        return self._beacon_service

    def view(self, node_id: int) -> NodeView:
        """The routing view ``node_id`` holds right now.

        Beacon-fed (possibly stale) when the beacon service runs, otherwise
        the graph oracle.
        """
        if self._beacon_service is not None:
            return self._beacon_service.view(node_id, self.simulator.now)
        return NodeView(self._network, node_id)

    def send_data(
        self,
        session_id: int,
        sender_id: int,
        copies: Sequence[Tuple[int, MulticastPacket]],
        frame_bytes: Optional[int] = None,
    ) -> None:
        """Queue one DATA frame carrying ``copies`` at ``sender_id``.

        The caller decides aggregation: call once with many copies for an
        aggregated broadcast frame, or once per copy for unicast framing.
        """
        if not copies:
            raise ValueError("a DATA frame needs at least one copy")
        frame_copies = []
        for receiver_id, packet in copies:
            frame_copies.append(FrameCopy(receiver_id, packet, self._next_uid))
            self._next_uid += 1
        job = _Job(
            DATA,
            session_id,
            tuple(frame_copies),
            frame_bytes,
            self.config.arq,
            self.config.cw_min_slots,
        )
        self._macs[sender_id].enqueue(job)

    def start_beacons(self, horizon_s: float) -> None:
        """Start every live node's HELLO process, phased uniformly at random."""
        if self._beacon_service is None:
            return
        for node_id in range(self._network.node_count):
            if node_id in self._failed or node_id in self._silenced:
                continue
            rng = self._beacon_streams.stream("beacon", node_id)
            first = float(rng.uniform(0.0, self.config.beacon_period_s))
            if first <= horizon_s:
                self.simulator.schedule_at(
                    first, self._beacon_tick(node_id, horizon_s, rng)
                )

    def jam(self, node_id: int, on_air_s: float, size_bytes: int) -> None:
        """Key one junk frame at ``node_id`` for ``on_air_s`` seconds, now.

        Jammers do not play CSMA: the frame skips the MAC queue and goes
        straight on the air, deferring every carrier-sensing sender in
        range and colliding any overlapping reception.  Energy is charged
        to the infrastructure meter from ``size_bytes`` (the airtime knob
        is independent, so a jammer can hold the channel longer than its
        frame's nominal bits).
        """
        if on_air_s <= 0.0:
            raise ValueError(f"jam airtime must be positive, got {on_air_s}")
        frame = Frame(kind=JAM, sender_id=node_id, size_bytes=size_bytes)
        tx = self.channel.begin(frame, self.simulator.now, on_air_s)
        self._charge(None, node_id, size_bytes, False)
        self.stats.bump_adv("jam_frames")
        if self._on_frame is not None:
            self._on_frame(None, JAM, node_id, tx.start_s, 0, ())
        self.simulator.schedule_after(on_air_s, lambda: self.channel.finish(tx))

    def close(self) -> None:
        """Drop every node's MAC once the run is over.

        Each MAC points back at this layer; clearing them breaks that cycle.
        """
        self._macs.clear()

    # ------------------------------------------------------- transmit path

    def transmit(self, mac: NodeMac, job: _Job) -> None:
        """Put ``job``'s frame on the air (the channel was sensed idle)."""
        radio = self._network.radio
        size = job.size_bytes if job.size_bytes is not None else radio.message_size_bytes
        session_id = job.session_id
        is_data = job.kind == DATA
        frame = Frame(
            kind=job.kind,
            sender_id=mac.node_id,
            size_bytes=size,
            session_id=session_id,
            copies=job.copies,
            retry=job.retry,
        )
        airtime = radio.transmission_time(size)
        channel = self.channel
        tx = channel.begin(frame, self.simulator.now, airtime)
        self._charge(session_id, mac.node_id, job.size_bytes, is_data)
        stats = self.stats
        if is_data:
            stats.bump("data_frames", session_id)
            if job.retry > 0:
                stats.bump("retransmissions", session_id)
            if job.arq:
                # Virtual carrier sense: the frame's duration field reserves
                # the channel through its ACK train for everyone who can
                # hear the sender, covering the inter-ACK SIFS gaps.
                train_end = (
                    tx.end_s + self.config.sifs_s + len(job.copies) * self._ack_slot_s
                )
                channel.reserve(channel.interferers_of(mac.node_id), train_end)
        else:
            stats.bump("beacons_sent")
        self.simulator.schedule_after(airtime, lambda: self._finish(mac, job, tx))

    def _finish(self, mac: NodeMac, job: _Job, tx: Transmission) -> None:
        """Frame left the air: judge every copy's reception."""
        self.channel.finish(tx)
        if job.kind == BEACON:
            self._finish_beacon(mac, tx)
            mac.job_done()
            return
        session_id = job.session_id
        assert session_id is not None  # DATA frames always belong to a session
        channel, stats, failed = self.channel, self.stats, self._failed
        outcomes: List[CopyOutcome] = []
        survivors: List[Tuple[int, FrameCopy]] = []
        for index, copy in enumerate(job.copies):
            receiver = copy.receiver_id
            if channel.reception_collided(tx, receiver):
                stats.bump("collisions", session_id)
                lost = True
            elif receiver in failed:
                lost = True
            else:
                lost = self._copy_loss(session_id, receiver)
            outcomes.append((receiver, copy.packet, lost))
            if not lost:
                survivors.append((index, copy))
        if self._on_frame is not None:
            self._on_frame(
                session_id, DATA, mac.node_id, tx.start_s, job.retry, outcomes
            )
        simulator = self.simulator
        sifs_s = self.config.sifs_s
        delivered = self._delivered_uids
        for index, copy in survivors:
            if copy.copy_uid in delivered:
                stats.bump("duplicates_suppressed", session_id)
            else:
                delivered.add(copy.copy_uid)
                self._deliver(session_id, copy.receiver_id, copy.packet)
            if job.arq:
                simulator.schedule_after(
                    sifs_s + index * self._ack_slot_s,
                    self._send_ack(copy, mac.node_id, session_id),
                )
        if job.arq:
            train = sifs_s + len(job.copies) * self._ack_slot_s
            simulator.schedule_after(
                train + self.config.slot_time_s,
                lambda: self._ack_timeout(mac, job),
            )
        else:
            mac.job_done()

    def _send_ack(
        self, copy: FrameCopy, data_sender_id: int, session_id: int
    ) -> Callable[[], None]:
        def fire() -> None:
            ack = Frame(
                kind=ACK,
                sender_id=copy.receiver_id,
                size_bytes=self.config.ack_bytes,
                session_id=session_id,
                ack_copy_uid=copy.copy_uid,
                ack_target_id=data_sender_id,
            )
            tx = self.channel.begin(ack, self.simulator.now, self._ack_airtime_s)
            self._charge(session_id, copy.receiver_id, self.config.ack_bytes, False)
            self.stats.bump("acks", session_id)
            self.simulator.schedule_after(
                self._ack_airtime_s,
                lambda: self._finish_ack(tx, copy, data_sender_id, session_id),
            )

        return fire

    def _finish_ack(
        self,
        tx: Transmission,
        copy: FrameCopy,
        data_sender_id: int,
        session_id: int,
    ) -> None:
        self.channel.finish(tx)
        if self._on_frame is not None:
            self._on_frame(session_id, ACK, tx.frame.sender_id, tx.start_s, 0, ())
        if self.channel.reception_collided(tx, data_sender_id):
            self.stats.bump("ack_collisions", session_id)
            return
        copy.acked = True

    def _ack_timeout(self, mac: NodeMac, job: _Job) -> None:
        """ACK train over: retransmit unacked copies or give up."""
        session_id = job.session_id
        assert session_id is not None
        pending = tuple(copy for copy in job.copies if not copy.acked)
        if not pending:
            mac.job_done()
            return
        if job.retry >= self.config.max_retries:
            self.stats.bump("arq_drops", session_id, len(pending))
            mac.job_done()
            return
        job.retry += 1
        job.copies = pending  # copy_uids survive so receivers can dedup
        job.cw = min(job.cw * 2, self.config.cw_max_slots)
        self.simulator.schedule_after(mac.draw_backoff_s(job.cw), mac.attempt)

    # ------------------------------------------------------------- beacons

    def _beacon_tick(
        self, node_id: int, horizon_s: float, rng: np.random.Generator
    ) -> Callable[[], None]:
        """The HELLO event of ``node_id``; ``rng`` is its ``beacon`` stream."""

        def fire() -> None:
            job = _Job(
                BEACON, None, (), self.config.beacon_bytes, False,
                self.config.cw_min_slots,
            )
            self._macs[node_id].enqueue(job)
            jitter = float(
                rng.uniform(-self.config.beacon_jitter_s, self.config.beacon_jitter_s)
            )
            next_time = self.simulator.now + self.config.beacon_period_s + jitter
            if next_time <= horizon_s:
                self.simulator.schedule_at(
                    next_time, self._beacon_tick(node_id, horizon_s, rng)
                )

        return fire

    def _finish_beacon(self, mac: NodeMac, tx: Transmission) -> None:
        service = self._beacon_service
        assert service is not None  # beacon jobs only exist when beaconing
        sender = mac.node_id
        location = self._advertised(sender)
        if self._on_frame is not None:
            self._on_frame(None, BEACON, sender, tx.start_s, 0, ())
        channel, failed = self.channel, self._failed
        now = self.simulator.now
        for listener in self._network.listeners_of(sender):
            if listener in failed:
                continue
            if channel.reception_collided(tx, listener):
                self.stats.bump("beacon_collisions")
                continue
            service.hear_beacon(listener, sender, location, now)
