"""In-memory spans recorded around the library's layer entry points.

The library itself stays clock-free; this module patches the public entry
points of each layer from outside (see :data:`PATCHES`), records one span
per call — name, start, end, parent — and restores every original binding
afterwards.  Names imported with ``from x import y`` are patched in each
importing module, because that is the binding the caller looks up.

Self time is a span's duration minus the time its direct children cover
(spans nest strictly on one thread, so children never overlap).

Pool workers are forked after the patches are installed, so they inherit
them.  The worker-side unit wrapper traces each unit on its own and ships
the aggregates back inside the unit's perf-counter delta under
:data:`WORKER_KEY`; the parent's ``stream_units`` wrapper removes that entry
before the library merges the delta.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: One finished span: (name, start_s, end_s, parent index or -1).
Span = Tuple[str, float, float, int]

#: Delta-dict key carrying a worker unit's trace aggregates to the parent.
WORKER_KEY = "bench.worker_trace"

#: Root spans the harness opens around a set-up sample and a pass; their
#: self time is glue outside every layer.
ROOT_SPANS = ("bench.setup", "bench.pass")


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name.

    ``spans[i][3]`` indexes the parent span (``-1`` for a root); a child
    must lie inside its parent's interval.
    """
    child_cover = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), covered in zip(spans, child_cover):
        totals[name] += (end - start) - covered
    return dict(totals)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Span recorder plus the per-name counters the layer metrics need."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: Extra tallies keyed by metric-ish name (events, group sizes, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Host milliseconds per engine call.
        self.task_ms: List[float] = []
        #: Aggregates shipped back by pool workers.
        self.worker_self: Dict[str, float] = defaultdict(float)
        self.worker_calls: Dict[str, float] = defaultdict(float)

    def enter(self) -> Tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def leave(self, name: str, index: int, parent: int, start: float) -> float:
        end = self.clock()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)
        return end - start

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def calls(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.finished():
            out[span[0]] += 1
        return dict(out)

    def run(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span called ``name``."""
        index, parent = self.enter()
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(name, index, parent, start)


#: The tracer the installed wrappers record into (``None`` when idle).
_ACTIVE: Optional[Tracer] = None


def _spanned(name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return original(*args, **kwargs)
        return tracer.run(name, original, *args, **kwargs)

    return wrapper


def _rrstr(original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(source_location: Any, destinations: Any, *args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return original(source_location, destinations, *args, **kwargs)
        tracer.counts["rrstr_group_items"] += len(destinations)
        return tracer.run(
            "steiner.rrstr", original, source_location, destinations, *args, **kwargs
        )

    return wrapper


def _engine(original: Callable[..., Any], sessions_arg: Optional[int]) -> Callable[..., Any]:
    """Engine entry: one span per call, its host ms, and the tasks it ran.

    ``sessions_arg`` is the position of the session list of
    ``run_contended_tasks`` (``None`` for ``run_task``: one task a call).
    """

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return original(*args, **kwargs)
        tracer.counts["engine_tasks"] += (
            1 if sessions_arg is None else len(args[sessions_arg])
        )
        index, parent = tracer.enter()
        start = tracer.clock()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.task_ms.append(1000.0 * tracer.leave("engine.task", index, parent, start))

    return wrapper


def _simulator_run(original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None:
            return original(self, *args, **kwargs)
        before = self.events_processed
        try:
            return tracer.run("simkit.run", original, self, *args, **kwargs)
        finally:
            tracer.counts["simkit_events"] += self.events_processed - before

    return wrapper


def _worker_unit(original: Callable[..., Any]) -> Callable[..., Any]:
    """Pool-unit wrapper: trace the unit alone, ship aggregates in its delta."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = _ACTIVE
        if tracer is None or os.getpid() == tracer.owner_pid:
            return original(*args, **kwargs)
        tracer.reset()
        start = tracer.clock()
        outcomes, delta = original(*args, **kwargs)
        busy = tracer.clock() - start
        delta = dict(delta)
        delta[WORKER_KEY] = {
            "self": self_times(tracer.finished()),
            "calls": tracer.calls(),
            "counts": dict(tracer.counts),
            "task_ms": list(tracer.task_ms),
            "busy_s": busy,
        }
        tracer.reset()
        return outcomes, delta

    return wrapper


def _pool_stream(original: Callable[..., Any]) -> Callable[..., Any]:
    """Parent-side ``stream_units`` wrapper: time each wait, absorb workers."""

    @functools.wraps(original)
    def wrapper(fn: Any, args_iter: Any, workers: int = 1, *rest: Any, **kwargs: Any) -> Iterator[Any]:
        tracer = _ACTIVE
        inner = original(fn, args_iter, workers, *rest, **kwargs)
        if tracer is None:
            yield from inner
            return
        opened = tracer.clock()
        while True:
            index, parent = tracer.enter()
            start = tracer.clock()
            try:
                item = next(inner)
            except StopIteration:
                break
            finally:
                tracer.leave("perf.pool_wait", index, parent, start)
            payload = item[1].pop(WORKER_KEY, None)
            if payload is not None:
                _absorb_worker(tracer, payload)
            yield item
        tracer.counts["pool_slot_s"] += max(workers, 1) * (tracer.clock() - opened)

    return wrapper


def _absorb_worker(tracer: Tracer, payload: Dict[str, Any]) -> None:
    """Fold one worker unit's aggregates into the parent tracer."""
    for name, seconds in payload["self"].items():
        tracer.worker_self[name] += seconds
    for name, calls in payload["calls"].items():
        tracer.worker_calls[name] += calls
    for name, value in payload["counts"].items():
        tracer.counts[name] += value
    tracer.task_ms.extend(payload["task_ms"])
    tracer.counts["worker_busy_s"] += payload["busy_s"]


def _plain(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    return lambda original: _spanned(name, original)


_PROTOCOL_CLASSES = (
    "repro.routing.gmp:GMPProtocol",
    "repro.routing.lgs:LGSProtocol",
    "repro.routing.grd:GRDProtocol",
    "repro.routing.pbm:PBMProtocol",
    "repro.routing.smt:SMTProtocol",
    "repro.routing.flooding:FloodingProtocol",
)

#: ``(module[:class], attribute, wrapper factory)`` for every traced seam.
PATCHES: Tuple[Tuple[str, str, Callable[[Callable[..., Any]], Callable[..., Any]]], ...] = (
    ("repro.experiments.sweep", "make_network", _plain("network.build")),
    ("repro.network.graph:WirelessNetwork", "gabriel_neighbors_of", _plain("network.planar")),
    ("repro.network.graph:WirelessNetwork", "rng_neighbors_of", _plain("network.planar")),
    ("repro.network.graph:WirelessNetwork", "gabriel_adjacency", _plain("network.planar")),
    ("repro.network.graph:WirelessNetwork", "rng_adjacency", _plain("network.planar")),
    ("repro.routing.gmp", "rrstr", _rrstr),
    ("repro.routing.smt", "kmb_steiner_tree", _plain("steiner.kmb")),
    *((cls, "handle", _plain("routing.handle")) for cls in _PROTOCOL_CLASSES),
    ("repro.routing.gmp", "perimeter_next_hop", _plain("routing.perimeter")),
    ("repro.routing.pbm", "perimeter_next_hop", _plain("routing.perimeter")),
    ("repro.experiments.sweep", "run_task", lambda f: _engine(f, None)),
    ("repro.sessions.runner", "run_task", lambda f: _engine(f, None)),
    ("repro.experiments.contention", "run_contended_tasks", lambda f: _engine(f, 1)),
    ("repro.simkit.simulator:Simulator", "run", _simulator_run),
    ("repro.linklayer.mac:NodeMac", "attempt", _plain("linklayer.mac")),
    ("repro.linklayer.mac:LinkLayer", "send_data", _plain("linklayer.mac")),
    # The MAC's own event callbacks (frame end, ACK end, ACK timeout): left
    # unwrapped, their time would land in the event loop's self time.
    ("repro.linklayer.mac:LinkLayer", "_finish", _plain("linklayer.mac")),
    ("repro.linklayer.mac:LinkLayer", "_finish_ack", _plain("linklayer.mac")),
    ("repro.linklayer.mac:LinkLayer", "_ack_timeout", _plain("linklayer.mac")),
    ("repro.sessions.sketches:StreamStats", "observe", _plain("sessions.fold")),
    ("repro.sessions.runner", "fold_chain", _plain("sessions.fold")),
    ("repro.sessions.arrivals:SessionWorkload", "session_at", _plain("sessions.arrivals")),
    ("repro.perf.shm:SharedNetworkPlane", "publish", _plain("perf.publish")),
    ("repro.sessions.runner", "stream_units", _pool_stream),
    ("repro.sessions.runner", "run_session_chunk", _worker_unit),
)


def _target(path: str) -> Any:
    module_name, _, class_name = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Installed:
    """The patches of one traced region; :meth:`restore` undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        global _ACTIVE
        self._saved: List[Tuple[Any, str, Any]] = []
        for path, attribute, factory in PATCHES:
            owner = _target(path)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        _ACTIVE = tracer

    def restore(self) -> None:
        global _ACTIVE
        _ACTIVE = None
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []
