"""Tests for the task execution engine."""

import pytest

from repro.engine import EngineConfig, run_task
from repro.geometry import Point
from repro.routing.base import ForwardDecision, RoutingProtocol
from repro.routing.gmp import GMPProtocol
from repro.routing.grd import GRDProtocol
from repro.simkit import SimulationError
from tests.conftest import make_line_network
from tests.routing.helpers import network_from_points


class TestBasicExecution:
    def test_line_unicast_counts(self):
        net = make_line_network(5, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [4])
        assert result.success
        assert result.delivered_hops[4] == 4
        assert result.transmissions == 4
        assert result.average_per_destination_hops == 4.0

    def test_duration_matches_airtime(self):
        net = make_line_network(3, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [2])
        # Two hops of 1.024 ms airtime each.
        assert result.duration_s == pytest.approx(2 * 1.024e-3)

    def test_energy_accounting(self):
        net = make_line_network(3, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [2])
        # Hop 1: node 0 transmits (1 listener); hop 2: node 1 transmits
        # (2 listeners).
        t = 1.024e-3
        expected = t * (1.3 + 0.9) + t * (1.3 + 2 * 0.9)
        assert result.energy_joules == pytest.approx(expected)

    def test_source_excluded_and_duplicates_dropped(self):
        net = make_line_network(4, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [0, 2, 2, 3])
        assert result.destination_ids == (2, 3)
        assert result.success

    def test_empty_destinations(self):
        net = make_line_network(3, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [0])
        assert result.destination_ids == ()
        assert result.success
        assert result.transmissions == 0

    def test_invalid_ids_rejected(self):
        net = make_line_network(3, spacing=100.0)
        with pytest.raises(ValueError):
            run_task(net, GMPProtocol(), 0, [99])
        with pytest.raises(ValueError):
            run_task(net, GMPProtocol(), 99, [1])

    def test_en_route_delivery(self):
        # Destination 2 lies on the path to 4: it is delivered in passing.
        net = make_line_network(5, spacing=100.0)
        result = run_task(net, GMPProtocol(), 0, [2, 4])
        assert result.success
        assert result.delivered_hops[2] == 2
        assert result.delivered_hops[4] == 4


class TestFailures:
    def test_partitioned_destination_fails(self):
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(600, 0)], radio_range=150.0
        )
        result = run_task(net, GMPProtocol(), 0, [2])
        assert not result.success
        assert result.failed_destinations == (2,)

    def test_ttl_drops_packets(self):
        net = make_line_network(10, spacing=100.0)
        config = EngineConfig(max_path_length=5)
        result = run_task(net, GMPProtocol(), 0, [9], config=config)
        assert not result.success
        assert result.dropped_ttl >= 1

    def test_smt_on_partitioned_network_fails_cleanly(self):
        from repro.routing.smt import SMTProtocol

        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(600, 0)], radio_range=150.0
        )
        result = run_task(net, SMTProtocol(), 0, [2])
        assert not result.success
        assert result.transmissions == 0


class TestDecisionValidation:
    class _BadNeighborProtocol(RoutingProtocol):
        name = "bad-neighbor"

        def handle(self, view, packet):
            return [ForwardDecision(99, packet)]

    class _DuplicatingProtocol(RoutingProtocol):
        name = "duplicator"

        def handle(self, view, packet):
            return [
                ForwardDecision(view.neighbor_ids[0], packet),
                ForwardDecision(view.neighbor_ids[0], packet),
            ]

    def test_non_neighbor_forward_rejected(self):
        net = make_line_network(100, spacing=100.0)
        with pytest.raises(SimulationError):
            run_task(net, self._BadNeighborProtocol(), 0, [5])

    def test_duplicate_destination_rejected(self):
        net = make_line_network(5, spacing=100.0)
        with pytest.raises(SimulationError):
            run_task(net, self._DuplicatingProtocol(), 0, [4])


class TestTransmissionModels:
    def test_grd_counts_per_copy(self):
        # Star: source 0 with two opposite neighbor destinations.
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(-100, 0)], radio_range=150.0
        )
        result = run_task(net, GRDProtocol(), 0, [1, 2])
        assert result.transmissions == 2  # Independent unicasts.

    def test_gmp_aggregates_split_into_one_frame(self):
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(-100, 0)], radio_range=150.0
        )
        result = run_task(net, GMPProtocol(), 0, [1, 2])
        assert result.success
        assert result.transmissions == 1  # One broadcast serves both.

    def test_forced_unicast_model(self):
        net = network_from_points(
            [Point(0, 0), Point(100, 0), Point(-100, 0)], radio_range=150.0
        )
        config = EngineConfig(transmission_model="unicast")
        result = run_task(net, GMPProtocol(), 0, [1, 2], config=config)
        assert result.transmissions == 2

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(transmission_model="quantum")
