"""The contended transmission model wired into the engine.

The headline acceptance checks live here: a loss-free contended run must
reproduce the default model's delivery set exactly (``delivery_digest``),
ARQ must strictly improve delivery under injected loss, and perimeter-mode
GMP must survive dropped/retransmitted frames without looping.
"""

import pytest

from repro.engine import (
    EngineConfig,
    batch_digest,
    delivery_digest,
    run_contended_tasks,
    run_task,
)
from repro.linklayer import LinkLayerConfig
from repro.routing.gmp import GMPProtocol
from repro.routing.grd import GRDProtocol
from repro.routing.lgs import LGSProtocol
from tests.conftest import make_grid_network, make_line_network
from tests.routing.test_perimeter_modes import ring_network

QUIET_LINK = LinkLayerConfig(beacons=False)


def contended_config(**kwargs):
    kwargs.setdefault("link", QUIET_LINK)
    return EngineConfig(transmission_model="contended", **kwargs)


class TestDeliveryEquivalence:
    @pytest.mark.parametrize(
        "protocol_factory",
        [GMPProtocol, LGSProtocol, GRDProtocol],
        ids=["GMP", "LGS", "GRD"],
    )
    def test_loss_free_matches_default_model(self, protocol_factory):
        network = make_grid_network(6, 100.0)
        source, destinations = 0, [30, 33, 35, 17]
        default = run_task(network, protocol_factory(), source, destinations)
        contended = run_task(
            network,
            protocol_factory(),
            source,
            destinations,
            config=contended_config(),
        )
        assert default.success
        assert delivery_digest(contended) == delivery_digest(default)
        assert contended.delivered_hops == default.delivered_hops

    def test_loss_free_matches_on_perimeter_ring(self):
        network = ring_network()
        config_kwargs = {"max_path_length": 60}
        default = run_task(
            network, GMPProtocol(), 0, [8], config=EngineConfig(**config_kwargs)
        )
        contended = run_task(
            network, GMPProtocol(), 0, [8], config=contended_config(**config_kwargs)
        )
        assert default.success
        assert delivery_digest(contended) == delivery_digest(default)

    def test_run_task_routes_through_contended_engine(self):
        network = make_line_network(4, 100.0)
        result = run_task(
            network, GMPProtocol(), 0, [3], config=contended_config()
        )
        assert result.success
        assert "mac.data_frames" in result.perf


class TestDeterminism:
    def test_repeat_runs_are_digest_identical(self):
        network = make_grid_network(5, 100.0)
        tasks = [(0, 0, (24, 20)), (1, 4, (22, 10)), (2, 12, (0, 24))]
        config = contended_config(link_loss_rate=0.2, loss_seed=7)

        def run_once():
            return run_contended_tasks(
                network,
                tasks,
                GMPProtocol,
                config=config,
                start_times=[0.0, 0.001, 0.002],
                collect_trace=True,
            )

        first, second = run_once(), run_once()
        assert batch_digest(first) == batch_digest(second)
        assert [r.perf for r in first] == [r.perf for r in second]

    def test_start_order_is_submission_order(self):
        network = make_line_network(5, 100.0)
        results = run_contended_tasks(
            network,
            [(5, 0, (4,)), (3, 4, (0,))],
            GMPProtocol,
            config=contended_config(),
        )
        assert [r.task_id for r in results] == [5, 3]


class TestArqUnderLoss:
    def test_arq_strictly_improves_delivery(self):
        network = make_grid_network(6, 100.0)
        tasks = [(i, 0, (30 + i, 17)) for i in range(5)]

        def delivered(link):
            results = run_contended_tasks(
                network,
                tasks,
                GMPProtocol,
                config=EngineConfig(
                    transmission_model="contended",
                    link_loss_rate=0.3,
                    loss_seed=11,
                    link=link,
                ),
            )
            return sum(len(r.delivered_hops) for r in results)

        with_arq = delivered(LinkLayerConfig(beacons=False))
        without_arq = delivered(LinkLayerConfig(beacons=False, arq=False))
        assert with_arq > without_arq

    def test_perimeter_mode_survives_retransmission(self):
        # Satellite: perimeter-mode GMP under dropped/retransmitted frames.
        # Every hop of the ~8-hop ring walk sees 25% copy loss, so ARQ is
        # exercised on perimeter-mode packets; the walk must still terminate
        # (no loop after the retry re-enters the face) and deliver.
        network = ring_network()
        for exit_rule in ("closer", "eager"):
            result = run_task(
                network,
                GMPProtocol(perimeter_exit=exit_rule),
                0,
                [8],
                config=contended_config(
                    max_path_length=60, link_loss_rate=0.25, loss_seed=6
                ),
            )
            assert result.success, (
                f"{exit_rule} lost the packet under ARQ: "
                f"{result.failed_destinations}"
            )
            assert result.dropped_ttl == 0
            assert result.perf["mac.retransmissions"] > 0


class TestAccounting:
    def test_transmissions_count_data_frames_only(self):
        # 0 -> 1 -> 2: two DATA frames; ACKs and beacons are charged as
        # energy but never counted as transmissions.
        network = make_line_network(3, 100.0)
        result = run_task(
            network,
            GRDProtocol(),
            0,
            [2],
            config=EngineConfig(transmission_model="contended"),
        )
        assert result.success
        assert result.transmissions == 2
        assert result.perf["mac.data_frames"] == 2
        assert result.perf["mac.acks"] == 2
        assert result.perf["link.beacons_sent"] > 0

    def test_beaconing_costs_energy_but_not_session_energy_free_run(self):
        network = make_line_network(3, 100.0)
        with_beacons = run_task(
            network,
            GRDProtocol(),
            0,
            [2],
            config=EngineConfig(transmission_model="contended"),
        )
        without = run_task(
            network, GRDProtocol(), 0, [2], config=contended_config()
        )
        # Session energy includes ACKs either way; beacons are infrastructure
        # and must not inflate the session's meter.
        assert with_beacons.energy_joules == pytest.approx(
            without.energy_joules
        )
        assert "link.beacons_sent" not in without.perf

    def test_trace_records_kind_and_retry(self):
        network = make_line_network(3, 100.0)
        config = EngineConfig(
            transmission_model="contended",
            link_loss_rate=0.4,
            loss_seed=5,
            link=QUIET_LINK,
        )
        result = run_task(
            network, GRDProtocol(), 0, [2], config=config,
            collect_trace=True,
        )
        assert result.trace is not None
        kinds = {frame.kind for frame in result.trace.frames}
        assert kinds == {"data"}
        assert any(frame.retry > 0 for frame in result.trace.frames)

    def test_perf_counters_are_digest_excluded(self):
        network = make_line_network(3, 100.0)
        result = run_task(
            network, GRDProtocol(), 0, [2], config=contended_config()
        )
        stripped = result.without_perf() if hasattr(result, "without_perf") else None
        if stripped is None:
            import dataclasses

            stripped = dataclasses.replace(result, perf={})
        assert delivery_digest(stripped) == delivery_digest(result)


class TestValidation:
    def test_duplicate_task_ids_rejected(self):
        network = make_line_network(3, 100.0)
        with pytest.raises(ValueError):
            run_contended_tasks(
                network,
                [(1, 0, (2,)), (1, 0, (2,))],
                GMPProtocol,
                config=contended_config(),
            )

    def test_failed_source_rejected(self):
        network = make_line_network(3, 100.0)
        with pytest.raises(ValueError):
            run_contended_tasks(
                network,
                [(1, 0, (2,))],
                GMPProtocol,
                config=contended_config(failed_node_ids=frozenset({0})),
            )

    @pytest.mark.parametrize("link", [QUIET_LINK, LinkLayerConfig()], ids=["quiet", "beacons"])
    def test_no_tasks_returns_no_results(self, link):
        network = make_line_network(4, 100.0)
        config = contended_config(link=link)
        assert run_contended_tasks(network, [], GMPProtocol, config=config) == []
        assert run_contended_tasks(network, [], GMPProtocol, start_times=[]) == []

    def test_start_times_must_match_tasks(self):
        network = make_line_network(3, 100.0)
        with pytest.raises(ValueError):
            run_contended_tasks(
                network,
                [(1, 0, (2,))],
                GMPProtocol,
                config=contended_config(),
                start_times=[0.0, 1.0],
            )


class TestStaleTables:
    def test_crashed_next_hop_lingers_and_swallows_traffic(self):
        # Node 1 crashed but warm-start tables still list it: the source
        # routes into the hole, burns its retries, and the packet dies.
        network = make_line_network(3, 100.0)
        result = run_task(
            network,
            GRDProtocol(),
            0,
            [2],
            config=EngineConfig(
                transmission_model="contended",
                failed_node_ids=frozenset({1}),
                link=LinkLayerConfig(max_retries=2),
            ),
        )
        assert not result.success
        assert result.perf["mac.arq_drops"] >= 1
