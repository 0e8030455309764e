"""The simulation executive: a virtual clock driving an event heap."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simkit.event import Event
from repro.simkit.scheduler import EventScheduler


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly (e.g. time travel)."""


class Simulator:
    """Single-threaded discrete-event simulator.

    Callbacks scheduled via :meth:`schedule_at` / :meth:`schedule_after` run
    with the clock advanced to their firing time.  The executive is
    re-entrant in the usual DES sense: callbacks may schedule further events.
    """

    def __init__(self) -> None:
        self._scheduler = EventScheduler()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of live (uncancelled) events still queued."""
        return len(self._scheduler)

    def schedule_at(self, time: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} (clock is at {self._now})"
            )
        return self._scheduler.schedule(time, action, label)

    def schedule_after(self, delay: float, action: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self._scheduler.schedule(self._now + delay, action, label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self._scheduler.cancel(event)

    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        event = self._scheduler.pop_next()
        if event is None:
            return False
        self._now = event.time
        self._events_processed += 1
        event.action()
        return True

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
        fired = 0
        try:
            while True:
                next_time = self._scheduler.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a routing loop"
                    )
                self.step()
                fired += 1
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._scheduler.clear()
        self._now = 0.0
        self._events_processed = 0
