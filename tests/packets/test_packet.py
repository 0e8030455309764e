"""Tests for the multicast packet model."""

import dataclasses

import pytest

from repro.geometry import Point
from repro.packets import Destination, MulticastPacket, PerimeterState


def make_packet(dest_ids=(1, 2, 3)):
    return MulticastPacket(
        task_id=7,
        source=Destination(0, Point(0, 0)),
        destinations=tuple(Destination(i, Point(i * 10.0, 0)) for i in dest_ids),
    )


class TestConstruction:
    def test_duplicate_destination_rejected(self):
        with pytest.raises(ValueError):
            make_packet((1, 1))

    def test_negative_hop_count_rejected(self):
        with pytest.raises(ValueError):
            MulticastPacket(
                task_id=1,
                source=Destination(0, Point(0, 0)),
                destinations=(),
                hop_count=-1,
            )

    def test_accessors(self):
        packet = make_packet()
        assert packet.destination_ids == (1, 2, 3)
        assert packet.destination_locations[0] == Point(10, 0)
        assert not packet.in_perimeter_mode


class TestCopies:
    def test_without_destination(self):
        packet = make_packet()
        reduced = packet.without_destination(2)
        assert reduced.destination_ids == (1, 3)
        assert packet.destination_ids == (1, 2, 3)  # Original untouched.

    def test_without_missing_destination_is_noop(self):
        packet = make_packet()
        assert packet.without_destination(99) is packet

    def test_with_destinations_clears_perimeter_and_subdestination(self):
        packet = make_packet()
        state = PerimeterState(
            target=Point(5, 5), entry_location=Point(0, 0), entry_total_distance=10.0
        )
        dest = packet.destinations[0]
        in_peri = packet.with_perimeter([dest], state)
        assert in_peri.in_perimeter_mode
        back = in_peri.with_destinations([dest])
        assert not back.in_perimeter_mode
        assert back.subdestination is None

    def test_with_destinations_sets_subdestination(self):
        packet = make_packet()
        dest = packet.destinations[1]
        copy = packet.with_destinations(packet.destinations, subdestination=dest)
        assert copy.subdestination == dest

    def test_hopped_increments(self):
        packet = make_packet()
        assert packet.hopped().hop_count == 1
        assert packet.hopped().hopped().hop_count == 2
        assert packet.hop_count == 0


class TestDerivedCopies:
    """``hopped``/``without_destination`` skip ``__post_init__`` but must be
    indistinguishable from the ``dataclasses.replace`` copy they stand for."""

    @staticmethod
    def packets():
        state = PerimeterState(
            target=Point(5.0, 5.0),
            entry_location=Point(1.0, 2.0),
            entry_total_distance=9.5,
        )
        plain = make_packet((4, 1, 9))
        return [
            plain,
            plain.with_perimeter(plain.destinations[:2], state).hopped(),
            plain.with_destinations(plain.destinations[1:], plain.destinations[2]),
        ]

    @staticmethod
    def assert_same(derived, replaced):
        assert type(derived) is type(replaced)
        assert derived == replaced
        assert hash(derived) == hash(replaced)
        assert repr(derived) == repr(replaced)
        assert vars(derived) == vars(replaced)
        assert list(vars(derived)) == list(vars(replaced))

    def test_hopped_matches_replace(self):
        for packet in self.packets():
            self.assert_same(
                packet.hopped(),
                dataclasses.replace(packet, hop_count=packet.hop_count + 1),
            )

    def test_without_destination_matches_replace(self):
        for packet in self.packets():
            for dest in packet.destinations:
                remaining = tuple(d for d in packet.destinations if d != dest)
                self.assert_same(
                    packet.without_destination(dest.node_id),
                    dataclasses.replace(packet, destinations=remaining),
                )

    def test_derived_copies_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_packet().hopped().hop_count = 5

    def test_protocol_supplied_destinations_still_checked(self):
        packet = make_packet()
        twice = (packet.destinations[0], packet.destinations[0])
        state = PerimeterState(
            target=Point(0.0, 0.0),
            entry_location=Point(0.0, 0.0),
            entry_total_distance=0.0,
        )
        with pytest.raises(ValueError, match="duplicate destination"):
            packet.with_destinations(twice)
        with pytest.raises(ValueError, match="duplicate destination"):
            packet.with_perimeter(twice, state)


class TestPerimeterState:
    def test_advanced_replaces_fields(self):
        state = PerimeterState(
            target=Point(5, 5), entry_location=Point(0, 0), entry_total_distance=10.0
        )
        advanced = state.advanced(came_from=Point(1, 1))
        assert advanced.came_from == Point(1, 1)
        assert advanced.target == state.target
        assert state.came_from is None  # Immutability.


class TestHeaderSize:
    def test_grows_with_destinations(self):
        small = make_packet((1,))
        big = make_packet((1, 2, 3, 4, 5))
        assert big.header_size_bytes() > small.header_size_bytes()

    def test_perimeter_adds_overhead(self):
        packet = make_packet()
        state = PerimeterState(
            target=Point(5, 5), entry_location=Point(0, 0), entry_total_distance=10.0
        )
        in_peri = packet.with_perimeter(packet.destinations, state)
        assert in_peri.header_size_bytes() > packet.header_size_bytes()
