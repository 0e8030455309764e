"""Pinned output of the whole contended stack (event loop, MAC, ARQ, beacons).

A small seeded ``run_contended_tasks`` sweep through the public
``run_contention_unit`` entry point: one 120-node deployment, three
concurrent sessions of four destinations, both offered loads, and GMP, GRD
and FLOOD.  Beacons and ARQ are on (the default :class:`LinkLayerConfig`)
and the channel collides thousands of frames, so any change to event
ordering, backoff draws or collision arbitration moves the digest or the
link counters.  Refactors of the simulator or the MAC must leave both
exactly as pinned.
"""

from repro.engine import EngineConfig, batch_digest
from repro.experiments.config import PaperConfig
from repro.experiments.contention import ContentionScale, run_contention_unit

GOLDEN_SCALE = ContentionScale(
    name="golden",
    network_count=1,
    node_count=120,
    group_size=4,
    session_counts=(3,),
    interarrival_s=(0.05, 0.005),
)

GOLDEN_DIGEST = "30a4b69f949c736ea3bc5c46584c46778f1eabdaac3b2c155d287a0f4fe92202"

#: Per-session ``mac.*`` counters summed over sessions, plus each run's
#: global ``link.*`` counters (repeated in every session, so read once).
GOLDEN_COUNTERS = {
    "mac.acks": 3530.0,
    "mac.ack_collisions": 6.0,
    "mac.arq_drops": 344.0,
    "mac.backoff_defers": 13148.0,
    "mac.collisions": 6636.0,
    "mac.data_frames": 2903.0,
    "mac.duplicates_suppressed": 6.0,
    "mac.retransmissions": 1864.0,
    "link.backoff_defers": 175.0,
    "link.beacon_collisions": 322.0,
    "link.beacons_sent": 3612.0,
}


def _golden_run():
    config = PaperConfig()
    engine = EngineConfig(
        max_path_length=config.max_path_length,
        transmission_model="contended",
        loss_seed=config.master_seed,
    )
    results = []
    counters = {}
    for interarrival in GOLDEN_SCALE.interarrival_s:
        for spec in (("GMP",), ("GRD",), ("FLOOD",)):
            unit, _ = run_contention_unit(
                config, GOLDEN_SCALE, engine, 0, 3, interarrival, spec
            )
            results.extend(unit)
            for result in unit:
                for key, value in (result.perf or {}).items():
                    if key.startswith("mac."):
                        counters[key] = counters.get(key, 0.0) + value
            for key, value in (unit[0].perf or {}).items():
                if key.startswith("link."):
                    counters[key] = counters.get(key, 0.0) + value
    return results, counters


def test_contended_stack_matches_pinned_digest_and_counters():
    results, counters = _golden_run()
    assert len(results) == 18
    assert batch_digest(results) == GOLDEN_DIGEST
    assert counters == GOLDEN_COUNTERS
