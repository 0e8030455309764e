"""Ordering properties of the simulator's event heap.

Events must fire in exact ``(time, sequence)`` order whatever the mix of
times and self-scheduling callbacks, and a reset simulator must replay a
workload exactly like a fresh one.
"""

import random

from repro.simkit.simulator import Simulator


def test_identical_times_pop_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(50):
        sim.schedule_at(5.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(50))


def test_schedule_earlier_than_current_window_is_not_skipped():
    """Scheduling a far event, then a near one, fires the near one first."""
    sim = Simulator()
    order = []
    sim.schedule_at(1000.0, lambda: order.append("far"))
    sim.schedule_at(1.0, lambda: order.append("near"))
    sim.run()
    assert order == ["near", "far"]


def test_resize_churn_preserves_order():
    """Thousands of random times drain in sorted ``(time, sequence)`` order."""
    sim = Simulator()
    rng = random.Random(99)
    popped = []
    for i in range(5000):
        t = rng.uniform(0.0, 50.0)
        sim.schedule_at(t, lambda t=t, i=i: popped.append((t, i)))
    sim.run()
    assert popped == sorted(popped)
    assert len(popped) == 5000


def test_ties_scheduled_from_callbacks_fire_after_earlier_ties():
    """An event scheduled *at the current time* from a callback queues
    behind every event already waiting at that time."""
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule_after(0.0, lambda: order.append("spawned"))

    sim.schedule_at(2.0, first)
    sim.schedule_at(2.0, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "spawned"]


class TestClearResetsSequence:
    """reset() regression: a reset simulator replays like a fresh one."""

    def test_clear_restarts_sequence_numbering(self):
        def transcript(simulator):
            out = []
            for i in range(20):
                simulator.schedule_at(
                    float(i % 4), lambda i=i: out.append((simulator.now, i))
                )
            simulator.run()
            return out

        simulator = Simulator()
        first = transcript(simulator)
        simulator.schedule_at(9.0, lambda: None)
        simulator.reset()
        replay = transcript(simulator)
        assert replay == first == transcript(Simulator())

    def test_simulator_reset_replays_identical_event_order(self):
        """Through the executive: reset() + same workload == same order."""

        def run(simulator):
            fired = []
            for i in range(10):
                simulator.schedule_at(0.5, lambda i=i: fired.append(i))
            simulator.run()
            return fired

        simulator = Simulator()
        first = run(simulator)
        simulator.reset()
        assert run(simulator) == first == list(range(10))
