"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.simkit import SimulationError, Simulator


class TestEventScheduler:
    """The simulator's event queue: ``(time, sequence)`` order."""

    def test_orders_by_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule_at(5.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(-1.0, lambda: None)


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.5, lambda: seen.append(sim.now))
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.0]
        assert sim.now == 4.0

    def test_schedule_after_accumulates(self):
        sim = Simulator()
        times = []

        def chain(depth):
            times.append(sim.now)
            if depth:
                sim.schedule_after(1.0, lambda: chain(depth - 1))

        sim.schedule_at(0.0, lambda: chain(3))
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.schedule_at(5.0, lambda: fired.append(5))
        assert sim.run(until=5.0) == 5.0
        assert fired == [1, 5]
        assert sim.now == 5.0
        assert sim.events_processed == 2
        # The later event stayed queued and fires on the next run.
        sim.run()
        assert fired == [1, 5, 10]
        assert sim.now == 10.0

    def test_run_until_before_first_event_sets_clock(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        assert sim.run(until=2.0) == 2.0
        assert sim.events_processed == 0

    def test_max_events_guard(self):
        sim = Simulator()

        def rescheduler():
            sim.schedule_after(1.0, rescheduler)

        sim.schedule_at(0.0, rescheduler)
        with pytest.raises(SimulationError, match="max_events=100"):
            sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_max_events_allows_exactly_the_budget(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: sim.run())
        with pytest.raises(SimulationError, match="re-entrant"):
            sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_reset(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        sim.schedule_at(9.0, lambda: fired.append("stale"))
        sim.reset()
        assert sim.now == 0.0
        assert sim.events_processed == 0
        sim.schedule_at(0.5, lambda: None)
        sim.run()
        assert sim.now == 0.5
        assert fired == []
