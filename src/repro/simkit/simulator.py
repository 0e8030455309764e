"""The simulation executive: a virtual clock driving an event heap.

Events are ``(time, sequence, action)`` tuples on one binary heap.  The
insertion-order ``sequence`` breaks ties between simultaneous events, so
they fire in the order they were scheduled and every run is deterministic;
because sequence numbers are unique, ordering is decided by comparing
``(time, sequence)`` alone and never reaches the action.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. time travel)."""


class Simulator:
    """Single-threaded discrete-event simulator.

    Callbacks scheduled via :meth:`schedule_at` / :meth:`schedule_after` run
    with the clock advanced to their firing time.  The executive is
    re-entrant in the usual DES sense: callbacks may schedule further events.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[], Any]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired by completed :meth:`run` calls."""
        return self._events_processed

    def schedule_at(self, time: float, action: Callable[[], Any]) -> None:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time} (clock is at {self._now})"
            )
        heappush(self._heap, (time, next(self._sequence), action))

    def schedule_after(self, delay: float, action: Callable[[], Any]) -> None:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay} at time {self._now}")
        heappush(self._heap, (self._now + delay, next(self._sequence), action))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drain the event queue.

        Args:
            until: Stop once the clock would pass this time (events at later
                times remain queued).
            max_events: Safety valve against runaway simulations; raising is
                better than silently looping forever.

        Returns:
            The virtual time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        heap = self._heap
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        fired = 0
        try:
            while heap:
                time, sequence, action = heappop(heap)
                if time > horizon or fired >= budget:
                    # Put the event back unfired: the queue keeps it.
                    heappush(heap, (time, sequence, action))
                    if time > horizon:
                        self._now = horizon
                        break
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a routing loop"
                    )
                self._now = time
                fired += 1
                action()
        finally:
            self._events_processed += fired
            self._running = False
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero.

        Sequence numbers restart too, so a reset simulator replays a
        workload with exactly the tie-breaking of a fresh one.
        """
        self._heap.clear()
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
