"""Beacon tables and the views protocols read them through."""

import numpy as np
import pytest

from repro.geometry import Point
from repro.linklayer import neighbors
from repro.linklayer.neighbors import BeaconService, NeighborTable
from repro.routing.base import NodeView
from tests.conftest import make_grid_network, make_line_network


class TestNeighborTable:
    def test_update_and_lookup(self):
        table = NeighborTable()
        table.update(3, Point(10.0, 20.0), 1.0)
        assert table.location_entry(3) == Point(10.0, 20.0)
        assert table.location_entry(4) is None
        assert len(table) == 1

    def test_live_ids_sorted_and_expiring(self):
        table = NeighborTable()
        table.update(9, Point(0, 0), 0.0)
        table.update(2, Point(1, 1), 5.0)
        table.update(5, Point(2, 2), 4.0)
        assert table.live_ids(now_s=5.0, expiry_s=10.0) == (2, 5, 9)
        assert table.live_ids(now_s=5.0, expiry_s=2.0) == (2, 5)
        assert table.live_ids(now_s=20.0, expiry_s=2.0) == ()

    def test_refresh_extends_lifetime(self):
        table = NeighborTable()
        table.update(1, Point(0, 0), 0.0)
        table.update(1, Point(0, 0), 8.0)
        assert table.live_ids(now_s=9.0, expiry_s=3.0) == (1,)


class TestWarmStart:
    def test_view_matches_oracle_at_time_zero(self):
        network = make_grid_network(5, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=True)
        for node_id in range(network.node_count):
            oracle = NodeView(network, node_id)
            beacon = service.view(node_id, 0.0)
            assert beacon.neighbor_ids == oracle.neighbor_ids
            assert beacon.planar_neighbor_ids == oracle.planar_neighbor_ids
            assert beacon.location == oracle.location
            for neighbor in oracle.neighbor_ids:
                assert beacon.location_of(neighbor) == oracle.location_of(neighbor)
            np.testing.assert_array_equal(
                beacon.neighbor_location_array(), oracle.neighbor_location_array()
            )

    def test_cold_start_is_deaf(self):
        network = make_line_network(3, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=False)
        assert service.view(1, 0.0).neighbor_ids == ()

    def test_warm_entries_age_out_without_beacons(self):
        network = make_line_network(3, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=True)
        assert service.view(1, 0.0).neighbor_ids == (0, 2)
        assert service.view(1, 3.4).neighbor_ids == (0, 2)
        assert service.view(1, 3.6).neighbor_ids == ()


class TestSoftState:
    def test_crashed_node_lingers_until_expiry(self):
        # Node 1 "crashes" (simply stops beaconing); node 0 keeps refreshing.
        network = make_line_network(3, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=True)
        for tick in (1.0, 2.0, 3.0, 4.0, 5.0):
            service.hear_beacon(1, 0, network.location_of(0), tick)
        # Within the expiry window the dead node is still believed in.
        assert 2 in service.view(1, 3.0).neighbor_ids
        # After it, only the refreshed neighbor remains.
        assert service.view(1, 5.0).neighbor_ids == (0,)

    def test_view_raises_for_unheard_node(self):
        network = make_line_network(3, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=False)
        view = service.view(0, 0.0)
        with pytest.raises(ValueError):
            view.location_of(1)

    def test_beacon_updates_feed_views(self):
        network = make_line_network(3, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=False)
        service.hear_beacon(0, 1, network.location_of(1), 0.5)
        view = service.view(0, 1.0)
        assert view.neighbor_ids == (1,)
        assert view.location_of(1) == network.location_of(1)
        assert view.neighbor_location_array().shape == (1, 2)

    def test_planar_memo_consistent(self):
        network = make_grid_network(4, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=True)
        first = service.view(5, 0.0).planar_neighbor_ids
        second = service.view(5, 1.0).planar_neighbor_ids  # memoized path
        assert first == second

    def test_planar_subset_computed_once_on_first_access(self, monkeypatch):
        calls = []
        real = neighbors.gabriel_neighbors

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(neighbors, "gabriel_neighbors", counting)
        network = make_grid_network(4, 100.0)
        service = BeaconService(network, expiry_s=3.5, warm_start=True)
        views = [service.view(5, t) for t in (0.0, 1.0)]
        assert calls == []
        assert views[0].planar_neighbor_ids == views[1].planar_neighbor_ids
        assert calls == [5]

    def test_positive_expiry_required(self):
        network = make_line_network(3, 100.0)
        with pytest.raises(ValueError):
            BeaconService(network, expiry_s=0.0)


@pytest.mark.parametrize("protocol", ["LGS", "GRD", "FLOOD"])
def test_contended_run_without_perimeter_mode_plans_no_gabriel_subset(
    protocol, monkeypatch
):
    """Views hand out Gabriel subsets lazily: protocols that never enter
    perimeter mode cost no planarization pass on the beaconed medium."""
    from repro.engine import EngineConfig
    from repro.experiments.config import PaperConfig
    from repro.experiments.contention import ContentionScale, run_contention_unit

    calls = []
    real = neighbors.gabriel_neighbors

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(neighbors, "gabriel_neighbors", counting)
    config = PaperConfig()
    scale = ContentionScale(
        name="lazy-planar",
        network_count=1,
        node_count=120,
        group_size=4,
        session_counts=(3,),
        interarrival_s=(0.05,),
    )
    engine = EngineConfig(
        max_path_length=config.max_path_length,
        transmission_model="contended",
        loss_seed=config.master_seed,
    )
    results, _ = run_contention_unit(config, scale, engine, 0, 3, 0.05, (protocol,))
    assert results and all(result.transmissions > 0 for result in results)
    assert calls == []
