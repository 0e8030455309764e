"""Ordering properties of the binary-heap event scheduler.

Events must pop in exact ``(time, sequence)`` order whatever the mix of
schedules, cancellations and peeks, and a cleared scheduler must replay a
workload exactly like a fresh one.
"""

import random

from repro.simkit.scheduler import EventScheduler
from repro.simkit.simulator import Simulator


def test_identical_times_pop_in_insertion_order():
    scheduler = EventScheduler()
    events = [scheduler.schedule(5.0, lambda: None, f"e{i}") for i in range(50)]
    scheduler.cancel(events[7])
    order = []
    while True:
        event = scheduler.pop_next()
        if event is None:
            break
        order.append(event.sequence)
    assert order == [i for i in range(50) if i != 7]


def test_schedule_earlier_than_current_window_is_not_skipped():
    """Peeking a far event, then scheduling a near one, pops the near one."""
    scheduler = EventScheduler()
    scheduler.schedule(1000.0, lambda: None, "far")
    assert scheduler.peek_time() == 1000.0
    near = scheduler.schedule(1.0, lambda: None, "near")
    assert scheduler.peek_time() == 1.0
    assert scheduler.pop_next() is near


def test_resize_churn_preserves_order():
    """Thousands of random times drain in sorted ``(time, sequence)`` order."""
    scheduler = EventScheduler()
    rng = random.Random(99)
    times = [rng.uniform(0.0, 50.0) for _ in range(5000)]
    for t in times:
        scheduler.schedule(t, lambda: None)
    popped = []
    while True:
        event = scheduler.pop_next()
        if event is None:
            break
        popped.append((event.time, event.sequence))
    assert popped == sorted(popped)
    assert len(popped) == 5000


def test_len_counts_only_live_events():
    scheduler = EventScheduler()
    kept = scheduler.schedule(2.0, lambda: None)
    dropped = scheduler.schedule(1.0, lambda: None)
    assert len(scheduler) == 2
    scheduler.cancel(dropped)
    scheduler.cancel(dropped)  # double-cancel is a no-op
    assert len(scheduler) == 1
    assert scheduler.pop_next() is kept
    assert len(scheduler) == 0
    assert scheduler.peek_time() is None


def test_all_cancelled_leaves_empty_scheduler():
    scheduler = EventScheduler()
    events = [scheduler.schedule(float(i), lambda: None) for i in range(64)]
    for event in events:
        scheduler.cancel(event)
    assert len(scheduler) == 0
    assert scheduler.peek_time() is None
    assert scheduler.pop_next() is None


class TestClearResetsSequence:
    """clear() regression: a cleared scheduler replays like a fresh one."""

    def test_clear_restarts_sequence_numbering(self):
        def transcript(scheduler):
            for i in range(20):
                scheduler.schedule(float(i % 4), lambda: None, f"e{i}")
            out = []
            while True:
                event = scheduler.pop_next()
                if event is None:
                    return out
                out.append((event.time, event.sequence, event.label))

        scheduler = EventScheduler()
        first = transcript(scheduler)
        scheduler.schedule(9.0, lambda: None, "stale")
        scheduler.clear()
        assert len(scheduler) == 0
        replay = transcript(scheduler)
        assert replay == first == transcript(EventScheduler())

    def test_simulator_reset_replays_identical_event_order(self):
        """Through the executive: reset() + same workload == same order."""

        def run(simulator):
            fired = []
            for i in range(10):
                simulator.schedule_at(0.5, lambda i=i: fired.append(i), f"t{i}")
            simulator.run()
            return fired

        simulator = Simulator()
        first = run(simulator)
        simulator.reset()
        assert run(simulator) == first == list(range(10))
