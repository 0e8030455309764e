"""Tests for the NodeView locality boundary and greedy primitives."""

import math

import pytest

from repro.geometry import Point, distance
from repro.packets import Destination
from repro.routing.base import ForwardDecision, NodeView, merge_decisions
from repro.routing.greedy import (
    best_neighbor_for_group,
    closest_neighbor_to,
    greedy_next_hop,
    total_distance,
)
from tests.conftest import make_line_network
from tests.routing.helpers import network_from_points, packet_for, view_of


class TestNodeView:
    def test_exposes_own_and_neighbor_locations(self):
        net = make_line_network(3, spacing=100.0)
        view = NodeView(net, 1)
        assert view.location == Point(100, 0)
        assert view.location_of(0) == Point(0, 0)
        assert view.location_of(1) == view.location

    def test_denies_non_neighbor_locations(self):
        net = make_line_network(5, spacing=100.0)  # rr=150: 0 and 3 not neighbors.
        view = NodeView(net, 0)
        with pytest.raises(ValueError):
            view.location_of(3)

    def test_neighbor_location_array_aligned(self):
        net = make_line_network(4, spacing=100.0)
        view = NodeView(net, 1)
        arr = view.neighbor_location_array()
        assert arr.shape == (len(view.neighbor_ids), 2)
        for row, nid in zip(arr, view.neighbor_ids):
            loc = net.location_of(nid)
            assert row[0] == loc.x and row[1] == loc.y

    def test_empty_neighborhood(self):
        net = network_from_points([Point(0, 0), Point(1000, 0)], radio_range=100)
        view = NodeView(net, 0)
        assert view.neighbor_ids == ()
        assert view.neighbor_location_array().shape == (0, 2)

    def test_planar_subset(self, dense_network):
        view = NodeView(dense_network, 0)
        assert set(view.planar_neighbor_ids) <= set(view.neighbor_ids)


class TestGreedyPrimitives:
    def test_total_distance(self):
        assert total_distance(Point(0, 0), [Point(3, 4), Point(0, 10)]) == pytest.approx(15.0)

    def test_closest_neighbor_to(self):
        net = make_line_network(4, spacing=100.0)
        view = view_of(net, 1)  # Neighbors: 0 and 2.
        assert closest_neighbor_to(view, Point(350, 0)) == 2
        assert closest_neighbor_to(view, Point(-50, 0)) == 0

    def test_greedy_next_hop_progress(self):
        net = make_line_network(5, spacing=100.0)
        view = view_of(net, 0)
        assert greedy_next_hop(view, net.location_of(4)) == 1

    def test_greedy_next_hop_none_at_local_minimum(self):
        # Node 0's only neighbor is farther from the target behind it.
        net = network_from_points([Point(0, 0), Point(100, 0)], radio_range=150)
        view = view_of(net, 0)
        assert greedy_next_hop(view, Point(-200, 0)) is None

    def test_greedy_no_neighbors(self):
        net = network_from_points([Point(0, 0)])
        assert greedy_next_hop(view_of(net, 0), Point(10, 10)) is None

    def test_total_distance_sums_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, so the order of the additions shows.
        origin = Point(0.0, 0.0)
        targets = [Point(1e16, 0.0)] + [Point(0.0, 1.0)] * 4
        assert total_distance(origin, targets) == 1e16
        assert math.fsum(distance(origin, t) for t in targets) == 1e16 + 4.0
        assert total_distance(origin, []) == 0.0

    def test_best_neighbor_for_group_requires_sum_decrease(self):
        # The neighbor nearest the pivot is behind; only a forward neighbor
        # reduces the total distance to the group.
        net = make_line_network(5, spacing=100.0)
        view = view_of(net, 2)
        group = [net.location_of(4)]
        hop = best_neighbor_for_group(view, net.location_of(4), group)
        assert hop == 3

    def test_best_neighbor_none_when_no_progress(self):
        net = make_line_network(3, spacing=100.0)
        view = view_of(net, 0)
        # Group is behind node 0; neighbor 1 is even farther.
        assert best_neighbor_for_group(view, Point(-300, 0), [Point(-300, 0)]) is None


class TestMergeDecisions:
    def test_merges_same_hop(self):
        net = make_line_network(3, spacing=100.0)
        packet = packet_for(net, 0, [1, 2])
        d1 = ForwardDecision(1, packet.with_destinations([packet.destinations[0]]))
        d2 = ForwardDecision(1, packet.with_destinations([packet.destinations[1]]))
        merged = merge_decisions([d1, d2])
        assert len(merged) == 1
        assert merged[0].packet.destination_ids == (1, 2)

    def test_keeps_distinct_hops(self):
        net = make_line_network(4, spacing=100.0)
        packet = packet_for(net, 1, [0, 3])
        d1 = ForwardDecision(0, packet.with_destinations([packet.destinations[0]]))
        d2 = ForwardDecision(2, packet.with_destinations([packet.destinations[1]]))
        assert len(merge_decisions([d1, d2])) == 2

    def test_never_merges_perimeter_copies(self):
        from repro.packets import PerimeterState

        net = make_line_network(3, spacing=100.0)
        packet = packet_for(net, 0, [1, 2])
        state = PerimeterState(
            target=Point(0, 0), entry_location=Point(0, 0), entry_total_distance=1.0
        )
        d1 = ForwardDecision(1, packet.with_perimeter([packet.destinations[0]], state))
        d2 = ForwardDecision(1, packet.with_perimeter([packet.destinations[1]], state))
        assert len(merge_decisions([d1, d2])) == 2
