"""Zero-copy shared-memory plane for network state.

Parallel sweeps run many tasks against the *same* deployments, yet every
worker process used to rebuild each network from scratch through its own
``cached_network`` memo — multiplying both warm-up time and RSS by the
worker count.  The struct-of-arrays network core keeps coordinates,
liveness, residual energy, the CSR adjacency and planarization overlays in
flat NumPy buffers, which makes them directly mappable (the spatial grid's
cells are flattened into member and bounds arrays at publish time): the parent *publishes* each built network into one
named ``multiprocessing.shared_memory`` segment, the pool initializer
hands workers the manifests, and workers *attach* read-only array views
over the mapped buffers — :func:`repro.network.graph.attach_shared_network`
reconstructs a ``WirelessNetwork`` around them without copying a byte of
node state.

The plane keeps the contracts every perf layer in this repo honors:

* **A/B switch** — :func:`set_shared_plane_enabled` turns the plane off;
  publishing refuses everything and workers fall back to rebuilding, with
  byte-identical digests either way (the mapped views hold the exact
  bytes a fresh build produces, and all derived caches fill lazily from
  the same inputs).
* **Deterministic naming** — segment names are
  ``gmp-plane-<seed>-<plane#>-<segment#>``, derived from the run seed and
  process-local counters, never from the PID, the clock, or entropy.
  Reruns are reproducible, and a run killed mid-sweep leaves names its
  successor finds and reclaims (see :func:`_create_segment`).
* **Guaranteed cleanup** — a plane is a context manager and an ``atexit``
  hook closes any plane an abnormal exit leaked, so CI never leaks
  ``/dev/shm`` entries.  Closing *unlinks* each name immediately but
  retires the mapping instead of unmapping it: adopted and attached
  array views may outlive the plane, and ``SharedMemory.close()`` would
  pull the pages out from under them (it does not raise ``BufferError``
  for live numpy views).  The OS reclaims the memory at process exit.
* **Copy-on-write mutation** — attached networks mark themselves shared;
  the first ``fail_node``/``move_node``/``drain_energy`` copies node
  state private (reprolint R017 pins this), so worker-local mutation
  never touches the bytes other processes read.
"""

from __future__ import annotations

import atexit
import itertools
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.graph import WirelessNetwork, attach_shared_network
from repro.perf.counters import GLOBAL_COUNTERS
from repro.perf.parallel import retire_pool

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

    from repro.network.radio import RadioConfig

__all__ = [
    "PlaneManifest",
    "SegmentArray",
    "SharedNetworkPlane",
    "attach_manifest",
    "attached_network",
    "install_worker_manifests",
    "peak_published_bytes",
    "set_shared_plane_enabled",
    "shared_plane_disabled",
    "shared_plane_enabled",
]


# ----------------------------------------------------------------------
# A/B switch
# ----------------------------------------------------------------------

_ENABLED = True


def set_shared_plane_enabled(enabled: bool) -> None:
    """Globally enable/disable the shared-memory plane (the A/B switch).

    With the plane disabled :meth:`SharedNetworkPlane.publish` refuses
    every network and :func:`attached_network` always declines, so pooled
    sweeps behave exactly as before the plane existed — each worker
    rebuilds through ``cached_network``.  Results are byte-identical
    either way; only warm-up time and RSS change.
    """
    global _ENABLED
    _ENABLED = bool(enabled)


def shared_plane_enabled() -> bool:
    return _ENABLED


@contextmanager
def shared_plane_disabled() -> Iterator[None]:
    """Scoped A arm for tests and A/B comparisons."""
    previous = _ENABLED
    set_shared_plane_enabled(False)
    try:
        yield
    finally:
        set_shared_plane_enabled(previous)


# ----------------------------------------------------------------------
# Segment layout
# ----------------------------------------------------------------------

_ALIGNMENT = 8  # keep every slot aligned for f8/intp views


@dataclass(frozen=True)
class SegmentArray:
    """Placement of one named array inside a plane segment."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a worker needs to attach one published deployment.

    Picklable by construction (strings, ints, tuples and the frozen
    ``RadioConfig``): manifests travel to workers through the pool
    initializer's ``initargs``.
    """

    segment: str
    radio: "RadioConfig"
    node_count: int
    nbytes: int
    arrays: Tuple[SegmentArray, ...]


def _pack_layout(
    arrays: Dict[str, np.ndarray],
) -> Tuple[Tuple[SegmentArray, ...], int]:
    """Assign aligned offsets to each array; return (layout, total bytes)."""
    layout: List[SegmentArray] = []
    offset = 0
    for key, array in arrays.items():
        offset = (offset + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)
        layout.append(
            SegmentArray(
                key=key,
                dtype=array.dtype.str,
                shape=tuple(array.shape),
                offset=offset,
            )
        )
        offset += int(array.nbytes)
    return tuple(layout), max(offset, 1)


def _segment_view(segment: "SharedMemory", slot: SegmentArray) -> np.ndarray:
    """A writable array view over one layout slot of a mapped segment."""
    return np.ndarray(
        slot.shape,
        dtype=np.dtype(slot.dtype),
        buffer=segment.buf,
        offset=slot.offset,
    )


def _segment_views(
    segment: "SharedMemory", layout: Tuple[SegmentArray, ...]
) -> Dict[str, np.ndarray]:
    """Read-only views over every slot — the attach-side array set."""
    views: Dict[str, np.ndarray] = {}
    for slot in layout:
        view = _segment_view(segment, slot)
        view.setflags(write=False)
        views[slot.key] = view
    return views


# ----------------------------------------------------------------------
# Segment lifetime helpers
# ----------------------------------------------------------------------


#: Names created by THIS process (publishing side).  Attaching to one of
#: our own segments must not undo its resource-tracker registration: the
#: tracker keys names in a set, so the attach-side re-registration is a
#: no-op and the single entry belongs to the create — ``unlink`` retires
#: it at close time.
_OWNED_NAMES: set = set()


def _create_segment(name: str, size: int) -> Optional["SharedMemory"]:
    """Create a named segment, reclaiming a stale leftover once.

    Deterministic naming means a run killed mid-sweep leaves exactly the
    names its rerun asks for, so ``FileExistsError`` is treated as "my
    predecessor died": unlink the stale segment and try once more.
    Returns ``None`` when shared memory is unusable on this platform or
    the name still cannot be created — callers degrade to per-worker
    rebuilds rather than failing the sweep.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython
        return None
    try:
        segment = shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        _reclaim_stale_segment(name)
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except (OSError, ValueError):
            return None
    except (OSError, ValueError):
        return None
    _OWNED_NAMES.add(name)
    return segment


def _reclaim_stale_segment(name: str) -> None:
    from multiprocessing import shared_memory

    try:
        stale = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return
    try:
        stale.unlink()
    except OSError:  # pragma: no cover - raced with another reclaimer
        pass
    stale.close()


#: Released segments whose *mapping* must outlive the plane.  ``close()``
#: unmaps immediately even while numpy views are alive (it raises no
#: ``BufferError``), and both the publishing parent (after
#: ``adopt_shared_arrays``) and same-process attachers may still read
#: through such views — so release only unlinks the name and parks the
#: ``SharedMemory`` object here, preventing its ``__del__`` from closing
#: the mapping.  The OS reclaims the memory when the process exits.
_RETIRED_SEGMENTS: List["SharedMemory"] = []


def _release_segment(segment: "SharedMemory") -> None:
    """Unlink the ``/dev/shm`` name now; retire (never unmap) our mapping."""
    _OWNED_NAMES.discard(segment.name)
    try:
        segment.unlink()
    except OSError:
        pass
    _RETIRED_SEGMENTS.append(segment)


# ----------------------------------------------------------------------
# Published-bytes accounting (feeds the CLI peak-RSS report)
# ----------------------------------------------------------------------

_OPEN_BYTES = 0
_PEAK_BYTES = 0


def _note_open_bytes(delta: int) -> None:
    global _OPEN_BYTES, _PEAK_BYTES
    _OPEN_BYTES += delta
    if _OPEN_BYTES > _PEAK_BYTES:
        _PEAK_BYTES = _OPEN_BYTES


def peak_published_bytes() -> int:
    """High-water mark of concurrently published segment bytes.

    The CLI's peak-RSS line prints this once as its ``shared=`` component:
    a mapped segment is resident once per machine no matter how many
    processes attach it, so adding it to any per-process RSS figure would
    double-count.
    """
    return _PEAK_BYTES


# ----------------------------------------------------------------------
# The plane (parent side)
# ----------------------------------------------------------------------

_PLANE_SEQUENCE = itertools.count()
_LIVE_PLANES: "weakref.WeakSet[SharedNetworkPlane]" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _track_live_plane(plane: "SharedNetworkPlane") -> None:
    global _ATEXIT_INSTALLED
    _LIVE_PLANES.add(plane)
    if not _ATEXIT_INSTALLED:
        atexit.register(_close_live_planes)
        _ATEXIT_INSTALLED = True


def _close_live_planes() -> None:
    """``atexit`` net: unlink whatever an abnormal exit left published."""
    for plane in list(_LIVE_PLANES):
        plane.close()


class SharedNetworkPlane:
    """Owner of the shared segments holding one sweep's deployments.

    The *parent* process creates one plane per pooled sweep, publishes
    each built network into it, and the pool wiring ships
    :meth:`manifests` to workers via the pool initializer (see
    ``repro.perf.parallel``).  Workers never construct a plane — they
    attach through :func:`attached_network`.

    The plane owns segment lifetime: use it as a context manager (or call
    :meth:`close`); an ``atexit`` hook closes planes leaked by an
    abnormal exit.  One segment is created per published network, named
    ``gmp-plane-<seed>-<plane#>-<segment#>``.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._plane_index = next(_PLANE_SEQUENCE)
        self._segments: List["SharedMemory"] = []
        self._manifests: Dict[Hashable, PlaneManifest] = {}
        self._nbytes = 0
        self._closed = False

    def segment_name(self, index: int) -> str:
        """The deterministic name of this plane's ``index``-th segment."""
        return f"gmp-plane-{self._seed}-{self._plane_index}-{index}"

    def publish(self, key: Hashable, network: WirelessNetwork) -> bool:
        """Serialize ``network``'s SoA arrays into a new shared segment.

        Returns ``True`` when workers will find ``key`` on the plane
        (idempotent per key).  Returns ``False`` — a clean degrade to
        per-worker ``cached_network`` rebuilds — when the plane is
        disabled, the network is already locally mutated, or shared
        memory is unavailable.

        On success the *parent's* network adopts the shared views too,
        dropping its private copies, so each deployment is resident once
        per machine rather than once per process.
        """
        if self._closed:
            raise ValueError("cannot publish on a closed plane")
        if key in self._manifests:
            return True
        if not shared_plane_enabled():
            return False
        arrays = network.shared_state_arrays()
        if arrays is None:
            return False
        layout, total = _pack_layout(arrays)
        name = self.segment_name(len(self._segments))
        segment = _create_segment(name, total)
        if segment is None:
            return False
        views: Dict[str, np.ndarray] = {}
        for slot in layout:
            view = _segment_view(segment, slot)
            view[...] = arrays[slot.key]
            view.setflags(write=False)
            views[slot.key] = view
        self._segments.append(segment)
        self._manifests[key] = PlaneManifest(
            segment=name,
            radio=network.radio,
            node_count=int(arrays["locations"].shape[0]),
            nbytes=total,
            arrays=layout,
        )
        self._nbytes += total
        _note_open_bytes(total)
        _track_live_plane(self)
        network.adopt_shared_arrays(views)
        return True

    @property
    def active(self) -> bool:
        """Whether anything is published (pool wiring skips idle planes)."""
        return bool(self._manifests) and not self._closed

    def manifests(self) -> Dict[Hashable, PlaneManifest]:
        """A picklable snapshot for the pool initializer."""
        return dict(self._manifests)

    def published_bytes(self) -> int:
        return self._nbytes

    def close(self) -> None:
        """Retire the pool forked with this plane, then unlink every owned
        segment; idempotent, safe with live views."""
        if self._closed:
            return
        retire_pool(self)
        self._closed = True
        for segment in self._segments:
            _release_segment(segment)
        self._segments = []
        self._manifests = {}
        _note_open_bytes(-self._nbytes)
        self._nbytes = 0
        _LIVE_PLANES.discard(self)

    def __enter__(self) -> "SharedNetworkPlane":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_WORKER_MANIFESTS: Dict[Hashable, PlaneManifest] = {}
_ATTACHED_SEGMENTS: Dict[str, "SharedMemory"] = {}


def install_worker_manifests(manifests: Dict[Hashable, PlaneManifest]) -> None:
    """Pool-initializer half of the plane: record what the parent published.

    Runs once per worker process (``ProcessPoolExecutor(initializer=...)``);
    ``repro.experiments.sweep.cached_network`` consults the recorded
    manifests before building anything.
    """
    _WORKER_MANIFESTS.update(manifests)


def _untrack_segment(segment: "SharedMemory") -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            getattr(segment, "_name", segment.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker layout varies by version
        pass


def _attach_segment(name: str) -> Optional["SharedMemory"]:
    segment = _ATTACHED_SEGMENTS.get(name)
    if segment is not None:
        return segment
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - always present on CPython
        return None
    try:
        try:
            attached = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Python < 3.13 has no ``track`` parameter: attaching registers
            # the segment with this process's resource tracker, which would
            # unlink it when the *worker* exits — yanking the mapping out
            # from under the parent and its sibling workers.  The
            # publishing plane owns the lifetime; undo the registration —
            # unless this process created the segment itself (the tracker
            # keys names in a set, so that single entry belongs to the
            # create and is retired by ``unlink`` at close time).
            attached = shared_memory.SharedMemory(name=name)
            if name not in _OWNED_NAMES:
                _untrack_segment(attached)
    except (OSError, ValueError):
        return None
    _ATTACHED_SEGMENTS[name] = attached
    return attached


def attach_manifest(manifest: PlaneManifest) -> Optional[WirelessNetwork]:
    """A zero-copy ``WirelessNetwork`` over a published segment, or ``None``.

    The reconstruction copies no node state: every array the network
    reads is a read-only view of the mapped buffer, and ``SensorNode``
    objects materialize lazily on first access.  ``None`` means the
    segment is gone or shared memory is unusable — callers fall back to
    building the network from its seed.
    """
    segment = _attach_segment(manifest.segment)
    if segment is None:
        return None
    return attach_shared_network(
        manifest.radio, _segment_views(segment, manifest.arrays)
    )


def attached_network(key: Hashable) -> Optional[WirelessNetwork]:
    """The published deployment for ``key``, if this process can attach it.

    The worker-side entry point ``cached_network`` consults before
    building.  Returns ``None`` — the caller rebuilds — when the plane is
    disabled, nothing was published for ``key``, or attaching fails.
    """
    if not shared_plane_enabled() or not _WORKER_MANIFESTS:
        return None
    counter = GLOBAL_COUNTERS.counter("network.shm_attach")
    manifest = _WORKER_MANIFESTS.get(key)
    network = attach_manifest(manifest) if manifest is not None else None
    if network is None:
        counter.misses += 1
        return None
    counter.hits += 1
    return network
