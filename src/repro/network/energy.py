"""Energy accounting per the paper's Section 5.3.

Footnote 2 of the paper defines the reported energy as *"the transmission
power of senders and the receiving power of all listening nodes within the
transmission radio range of the senders"*.  With an omnidirectional antenna
and no sleep scheduling, one forwarded packet of airtime ``t`` therefore
costs::

    E = P_tx * t  +  |listeners| * P_rx * t

where ``listeners`` is every node within radio range of the sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.network.radio import RadioConfig


@dataclass(frozen=True)
class EnergyModel:
    """Pure cost function mapping a transmission to Joules."""

    radio: RadioConfig

    def transmission_energy(
        self, listener_count: int, size_bytes: int | None = None
    ) -> float:
        """Joules consumed by one transmission heard by ``listener_count`` nodes."""
        if listener_count < 0:
            raise ValueError(f"listener count must be non-negative, got {listener_count}")
        airtime = self.radio.transmission_time(size_bytes)
        return airtime * (self.radio.tx_power_w + listener_count * self.radio.rx_power_w)

    def tx_energy(self, size_bytes: int | None = None) -> float:
        """Sender-side Joules for one transmission."""
        return self.radio.transmission_time(size_bytes) * self.radio.tx_power_w

    def rx_energy(self, size_bytes: int | None = None) -> float:
        """Per-listener Joules for one transmission."""
        return self.radio.transmission_time(size_bytes) * self.radio.rx_power_w


@dataclass
class EnergyMeter:
    """Accumulates energy spent, broken down by node and by role."""

    model: EnergyModel
    tx_joules_by_node: Dict[int, float] = field(default_factory=dict)
    rx_joules_by_node: Dict[int, float] = field(default_factory=dict)
    transmissions: int = 0

    def record_transmission(
        self,
        sender_id: int,
        listener_ids,
        size_bytes: int | None = None,
        count_transmission: bool = True,
    ) -> float:
        """Charge one transmission; returns the Joules it cost in total.

        ``count_transmission=False`` charges the energy without bumping the
        :attr:`transmissions` tally — used by the contended link layer for
        control traffic (ACKs, beacons) so the reported transmission count
        keeps meaning "data-frame sends", comparable to the default model.
        """
        # The products of ``EnergyModel.tx_energy``/``rx_energy``, with one
        # airtime computation for both.
        radio = self.model.radio
        airtime = radio.transmission_time(size_bytes)
        tx = airtime * radio.tx_power_w
        rx = airtime * radio.rx_power_w
        self.tx_joules_by_node[sender_id] = (
            self.tx_joules_by_node.get(sender_id, 0.0) + tx
        )
        total = tx
        rx_joules = self.rx_joules_by_node
        for listener in listener_ids:
            rx_joules[listener] = rx_joules.get(listener, 0.0) + rx
            total += rx
        if count_transmission:
            self.transmissions += 1
        return total

    @property
    def total_tx_joules(self) -> float:
        return sum(self.tx_joules_by_node.values())

    @property
    def total_rx_joules(self) -> float:
        return sum(self.rx_joules_by_node.values())

    @property
    def total_joules(self) -> float:
        """All energy spent so far (senders plus listeners)."""
        return self.total_tx_joules + self.total_rx_joules
