"""A small deterministic discrete-event simulation kernel.

This is the reproduction's substitute for ns-2.27: an event heap with a
virtual clock, plus seeded random-stream management so that every topology,
workload and run is exactly reproducible from ``(seed, config)``.

The kernel is deliberately generic — the wireless specifics (radio medium,
energy accounting) live in :mod:`repro.network` and :mod:`repro.engine` on
top of it.
"""

from repro.simkit.event import Event
from repro.simkit.scheduler import EventScheduler
from repro.simkit.simulator import Simulator, SimulationError
from repro.simkit.rng import RandomStreams, derive_seed

__all__ = [
    "Event",
    "EventScheduler",
    "Simulator",
    "SimulationError",
    "RandomStreams",
    "derive_seed",
]
