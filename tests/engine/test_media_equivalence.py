"""Both media run one routing core: at zero loss they deliver alike.

The ideal medium and the contended CSMA/ARQ link layer share every routing
step (receive, ``protocol.handle``, validation, TTL, framing); only how a
copy reaches the next hop differs.  So on benign fuzzer scenarios — no
loss, no failures, no adversaries, no beacons — every protocol must reach
the same destinations on both media, at the same hop counts.

"No loss" on the contended medium also means no copy is abandoned by ARQ.
At the default seven-retry cap, a session's own parallel unicast streams
can collide often enough to exhaust it (PBM and GPSR each lose one
destination that way in scenario 2), which is medium loss, not a routing
difference; a cap no copy reaches keeps the medium lossless.
"""

from dataclasses import replace
from typing import Callable, List, Tuple

import pytest

from repro.engine import EngineConfig, delivery_digest, run_task
from repro.fuzz.executor import build_scenario_network, scenario_tasks
from repro.fuzz.generator import sample_scenario
from repro.linklayer import LinkLayerConfig
from repro.routing import (
    FloodingProtocol,
    GMPProtocol,
    GPSRProtocol,
    GRDProtocol,
    LGKProtocol,
    LGSProtocol,
    PBMProtocol,
    RoutingProtocol,
    SMTProtocol,
)

ROOT_SEED = 20060704
SCENARIOS = 12
LOSSLESS_LINK = LinkLayerConfig(beacons=False, max_retries=64)

PROTOCOLS: List[Tuple[str, Callable[[], RoutingProtocol]]] = [
    ("GMP", lambda: GMPProtocol(radio_aware=True)),
    ("GMPnr", lambda: GMPProtocol(radio_aware=False)),
    ("LGS", LGSProtocol),
    ("LGK", LGKProtocol),
    ("GRD", GRDProtocol),
    ("SMT", SMTProtocol),
    ("PBM", lambda: PBMProtocol(lam=0.3)),
    ("GPSR", GPSRProtocol),
    ("FLOOD", FloodingProtocol),
]


@pytest.mark.parametrize("name,factory", PROTOCOLS, ids=[n for n, _ in PROTOCOLS])
def test_zero_loss_media_deliver_alike(
    name: str, factory: Callable[[], RoutingProtocol]
) -> None:
    for index in range(SCENARIOS):
        spec = sample_scenario(ROOT_SEED, index).benign_twin()
        network = build_scenario_network(spec)
        ideal_config = EngineConfig(max_path_length=spec.max_path_length)
        contended_config = replace(
            ideal_config, transmission_model="contended", link=LOSSLESS_LINK
        )
        for task_id, source, destinations in scenario_tasks(spec):
            ideal, contended = (
                run_task(
                    network, factory(), source, destinations,
                    config=config, task_id=task_id,
                )
                for config in (ideal_config, contended_config)
            )
            if name == "FLOOD":
                # FLOOD records the hop count of each destination's *first*
                # arrival, and which rebroadcast arrives first follows MAC
                # timing (backoff, deferral).  Only the delivered set is a
                # property of the routing core; the flood's redundancy also
                # covers the odd copy its own storm makes ARQ abandon.
                assert set(contended.delivered_hops) == set(ideal.delivered_hops)
            else:
                assert contended.perf is not None
                assert contended.perf.get("mac.arq_drops", 0.0) == 0.0
                assert delivery_digest(contended) == delivery_digest(ideal), (
                    f"scenario {index} task {task_id}"
                )
