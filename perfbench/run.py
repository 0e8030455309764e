"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 20060704 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

A run builds the workload's deployments several times (``setup_s`` is the
sum over deployments of the fastest build), then repeats passes over the
workload's units until ``--seconds`` have elapsed.  The first pass fills
lazy per-deployment state and is not timed; at least three more follow.
Every pass starts with the geometry memos cleared, as a fresh process
would.  ``tasks_per_s`` divides the tasks of one pass by the sum over
units of each unit's median time.  Every pass must reproduce the first
pass's digest, and with the default seed the first digest must equal the
one pinned in ``digests.json``.

End-to-end times are in reference-host seconds (:class:`ReferenceClock`):
shared 2-core hosts slow down in spells of seconds to minutes by up to
70%, and scaling each unit by a fixed kernel timed next to it takes most
of that out.  Per-layer times stay in host seconds.

With ``--trace 1`` the passes alternate between untraced and traced, and
the per-layer metrics come from the traced passes and traced set-up
samples (see ``spans.py``).  The last line of stdout is the result object;
progress goes to stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20060704
PINS_PATH = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("paper-figures", "sessions-pooled", "contention")

#: Set-up samples per run; ``setup_s`` takes the fastest per deployment.
SETUP_SAMPLES = 15
#: Time of :func:`reference_kernel` on a quiet reference host (2-core Xeon
#: at 2.1 GHz, CPython 3.11); fixed forever, it only sets the time scale.
REFERENCE_NOMINAL_S = 0.043
#: Minimum timed repeats of every unit (per mode, traced and untraced).
MIN_REPEATS = 3

#: ``(name, unit)`` of each end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("delivery_ratio", "ratio"),
    ("tx_per_task", "count"),
    ("completed_task_share", "ratio"),
)

#: ``(name, unit)`` of each per-layer metric, in report order.
PER_LAYER = (
    ("network.build_s", "s"),
    ("network.builds", "count"),
    ("network.planar_s", "s"),
    ("network.planar_calls", "count"),
    ("steiner.rrstr_s", "s"),
    ("steiner.rrstr_calls", "count"),
    ("steiner.rrstr_group_mean", "count"),
    ("steiner.kmb_s", "s"),
    ("steiner.kmb_calls", "count"),
    ("routing.handle_s", "s"),
    ("routing.handle_calls", "count"),
    ("routing.perimeter_hops", "count"),
    ("routing.perimeter_share", "ratio"),
    ("engine.self_s", "s"),
    ("engine.tasks", "count"),
    ("engine.task_ms_p50", "ms"),
    ("engine.task_ms_p99", "ms"),
    ("simkit.events", "count"),
    ("simkit.self_s", "s"),
    ("simkit.us_per_event", "us"),
    ("linklayer.mac_s", "s"),
    ("linklayer.data_frames", "count"),
    ("linklayer.retransmissions", "count"),
    ("linklayer.collisions", "count"),
    ("linklayer.beacons_sent", "count"),
    ("linklayer.arq_drops", "count"),
    ("linklayer.useful_frame_share", "ratio"),
    ("perf.publish_s", "s"),
    ("perf.shm_attach.hits", "count"),
    ("perf.shm_attach.misses", "count"),
    ("perf.pool_wait_s", "s"),
    ("perf.worker_busy_s", "s"),
    ("perf.pool_util", "ratio"),
    ("perf.fermat_memo.hit_ratio", "ratio"),
    ("perf.fermat_memo.lookups", "count"),
    ("perf.rr_memo.hit_ratio", "ratio"),
    ("perf.rr_memo.lookups", "count"),
    ("perf.tree_cache.hit_ratio", "ratio"),
    ("perf.tree_cache.lookups", "count"),
    ("perf.vector.refine_scan.mean_batch", "count"),
    ("perf.vector.next_hop.mean_batch", "count"),
    ("perf.vector.reduction_ratio.mean_batch", "count"),
    ("sessions.fold_s", "s"),
    ("sessions.arrivals_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
)

#: Self-time metrics and the span names whose self time they sum.
LAYER_SPANS = {
    "network.build_s": ("network.build",),
    "network.planar_s": ("network.planar",),
    "steiner.rrstr_s": ("steiner.rrstr",),
    "steiner.kmb_s": ("steiner.kmb",),
    "routing.handle_s": ("routing.handle", "routing.perimeter"),
    "engine.self_s": ("engine.task",),
    "simkit.self_s": ("simkit.run",),
    "linklayer.mac_s": ("linklayer.mac",),
    "perf.publish_s": ("perf.publish",),
    "perf.pool_wait_s": ("perf.pool_wait",),
    "sessions.fold_s": ("sessions.fold",),
    "sessions.arrivals_s": ("sessions.arrivals",),
}

#: Memo metric prefix -> ``GLOBAL_COUNTERS`` cache name.
MEMOS = {
    "perf.fermat_memo": "fermat_point",
    "perf.rr_memo": "reduction_ratio",
    "perf.tree_cache": "rrstr_tree",
}

VECTOR_KERNELS = ("refine_scan", "next_hop", "reduction_ratio")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def sum_of_minima(times: Dict[Any, List[float]]) -> float:
    """Sum over units of each unit's fastest time."""
    return sum(min(ts) for ts in times.values())


def sum_of_medians(times: Dict[Any, List[float]]) -> float:
    """Sum over units of each unit's median time."""
    return sum(statistics.median(ts) for ts in times.values())


def load_pins() -> Dict[str, str]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return dict(json.load(handle))


def check_digest(workload: str, seed: int, digest: str, pins: Dict[str, str]) -> Optional[str]:
    """Why ``digest`` is wrong for the pinned default seed, or ``None``."""
    if seed != DEFAULT_SEED:
        return None
    expected = pins.get(workload)
    if expected != digest:
        return f"{workload}: digest {digest} does not match the pinned {expected}"
    return None


class Accumulator:
    """Span aggregates of one phase (set-up samples or traced passes)."""

    def __init__(self) -> None:
        self.n = 0
        self.wall = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, float] = defaultdict(float)
        self.worker_self: Dict[str, float] = defaultdict(float)
        self.worker_calls: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.task_ms: List[float] = []

    def absorb(self, tracer: spans.Tracer, wall: float) -> None:
        self.n += 1
        self.wall += wall
        for name, value in spans.self_times(tracer.finished()).items():
            self.self_s[name] += value
        for name, value in tracer.calls().items():
            self.calls[name] += value
        for source, target in (
            (tracer.worker_self, self.worker_self),
            (tracer.worker_calls, self.worker_calls),
            (tracer.counts, self.counts),
        ):
            for name, value in source.items():
                target[name] += value
        self.task_ms.extend(tracer.task_ms)
        tracer.reset()

    def per(self, table: Dict[str, float], name: str) -> float:
        return table.get(name, 0.0) / self.n if self.n else 0.0


def layer_metrics(
    setup: Accumulator,
    passes: Accumulator,
    counters: Dict[str, float],
    link: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric, per cycle (one set-up sample plus one pass).

    Worker-side self time counts toward its layer but not toward the
    parent's wall time, so ``unattributed_s`` uses parent spans only.
    """
    def seconds(span: str) -> float:
        return sum(
            acc.per(acc.self_s, span) + acc.per(acc.worker_self, span)
            for acc in (setup, passes)
        )

    def calls(span: str) -> float:
        return sum(
            acc.per(acc.calls, span) + acc.per(acc.worker_calls, span)
            for acc in (setup, passes)
        )

    def count(name: str) -> float:
        return setup.per(setup.counts, name) + passes.per(passes.counts, name)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def counter(key: str) -> float:
        return counters.get(key, 0.0) / passes.n if passes.n else 0.0

    out: Dict[str, float] = {
        metric: sum(seconds(span) for span in spans) for metric, spans in LAYER_SPANS.items()
    }
    out["network.builds"] = calls("network.build")
    out["network.planar_calls"] = calls("network.planar")
    out["steiner.rrstr_calls"] = calls("steiner.rrstr")
    out["steiner.rrstr_group_mean"] = ratio(count("rrstr_group_items"), calls("steiner.rrstr"))
    out["steiner.kmb_calls"] = calls("steiner.kmb")
    out["routing.handle_calls"] = calls("routing.handle")
    out["routing.perimeter_hops"] = calls("routing.perimeter")
    out["routing.perimeter_share"] = ratio(
        out["routing.perimeter_hops"], out["routing.handle_calls"]
    )
    out["engine.tasks"] = count("engine_tasks")
    out["engine.task_ms_p50"] = spans.percentile(passes.task_ms, 50)
    out["engine.task_ms_p99"] = spans.percentile(passes.task_ms, 99)
    out["simkit.events"] = count("simkit_events")
    out["simkit.us_per_event"] = 1e6 * ratio(out["simkit.self_s"], out["simkit.events"])
    for name in ("data_frames", "retransmissions", "collisions", "beacons_sent", "arq_drops"):
        out[f"linklayer.{name}"] = link.get(name, 0.0)
    out["linklayer.useful_frame_share"] = ratio(
        link.get("data_frames", 0.0) - link.get("retransmissions", 0.0),
        link.get("data_frames", 0.0),
    )
    out["perf.shm_attach.hits"] = counter("network.shm_attach.hits")
    out["perf.shm_attach.misses"] = counter("network.shm_attach.misses")
    out["perf.worker_busy_s"] = count("worker_busy_s")
    out["perf.pool_util"] = ratio(count("worker_busy_s"), count("pool_slot_s"))
    for prefix, cache in MEMOS.items():
        hits = counter(f"{cache}.hits")
        lookups = hits + counter(f"{cache}.misses")
        out[f"{prefix}.hit_ratio"] = ratio(hits, lookups)
        out[f"{prefix}.lookups"] = lookups
    for kernel in VECTOR_KERNELS:
        out[f"perf.vector.{kernel}.mean_batch"] = ratio(
            counter(f"vector.{kernel}.items"), counter(f"vector.{kernel}.batches")
        )
    wall = sum(acc.wall / acc.n for acc in (setup, passes) if acc.n)
    attributed = sum(
        acc.per(acc.self_s, span)
        for acc in (setup, passes)
        for span in acc.self_s
        if span not in spans.ROOT_SPANS
    )
    out["unattributed_s"] = wall - attributed
    out["unattributed_share"] = ratio(out["unattributed_s"], wall)
    out["trace_overhead"] = trace_overhead
    return {name: float(out[name]) for name, _ in PER_LAYER}


def peak_rss_mib() -> float:
    """Parent peak RSS + largest reaped worker + shared segments once."""
    from repro.perf.shm import peak_published_bytes

    divisor = 1048576.0 if sys.platform == "darwin" else 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / divisor
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / divisor
    return own + child + peak_published_bytes() / 1048576.0


def reference_kernel() -> float:
    """Fixed dict- and float-heavy Python work whose time tracks host speed."""
    table = {}
    for i in range(120_000):
        table[(i * 7919) % 1_000_003] = (i * 0.5, str(i))
    return sum(half for half, _ in table.values())


class ReferenceClock:
    """Times calls in reference-host seconds.

    The reference kernel runs after every timed call; a call's host time is
    scaled by ``REFERENCE_NOMINAL_S`` over the mean kernel time just before
    and just after it.  A slow spell of the host stretches both alike, so
    the scaled time stays put while the host time does not.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._last = self._kernel_s()

    def _kernel_s(self) -> float:
        # Collector off: a collection here would time the workload's heap,
        # not the host.
        gc.disable()
        try:
            start = self.clock()
            reference_kernel()
            return self.clock() - start
        finally:
            gc.enable()

    def call(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """``(result, host seconds, reference-host seconds)`` of ``fn(*args)``."""
        before = self._last
        start = self.clock()
        result = fn(*args)
        host = self.clock() - start
        self._last = self._kernel_s()
        return result, host, host * REFERENCE_NOMINAL_S / ((before + self._last) / 2.0)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], bool]:
    """Run one workload; returns the result object and whether it passed."""
    from repro.perf.cache import clear_caches
    from repro.perf.counters import GLOBAL_COUNTERS
    from workloads import WORKLOADS, combine

    clock = time.perf_counter
    workload = WORKLOADS[name](seed)
    tracer = spans.Tracer(clock)
    setup_acc, pass_acc = Accumulator(), Accumulator()

    def call(traced: bool, root: str, fn: Callable[..., Any], *args: Any) -> Any:
        return tracer.run(root, fn, *args) if traced else fn(*args)

    try:
        timer = ReferenceClock(clock)
        keys = workload.deployment_keys()
        build_times: Dict[int, List[float]] = {i: [] for i in range(len(keys))}

        def set_up() -> None:
            # Builds run back to back, the kernel only around the whole
            # phase: between builds it would evict the caches a build of a
            # few milliseconds depends on.
            for sample in range(SETUP_SAMPLES):
                final = sample == SETUP_SAMPLES - 1
                installed = spans.Installed(tracer) if trace else None
                sample_s = 0.0
                for i, key in enumerate(keys):
                    start = clock()
                    release = call(trace, "bench.setup", workload.build, key, final)
                    build_times[i].append(clock() - start)
                    sample_s += build_times[i][-1]
                    release()
                if installed is not None:
                    installed.restore()
                    setup_acc.absorb(tracer, sample_s)

        _, setup_host, setup_scaled = timer.call(set_up)

        units = workload.units()
        times: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
        counters: Dict[str, float] = defaultdict(float)
        reference = None
        attempted = 0
        window_start = clock()
        passes = 0
        while True:
            traced = trace and passes > 0 and passes % 2 == 0
            clear_caches()
            gc.collect()
            before = GLOBAL_COUNTERS.snapshot()
            installed = spans.Installed(tracer) if traced else None
            results, unit_times, pass_wall = [], {}, 0.0
            try:
                for label, fn in units:
                    result, host, scaled = timer.call(call, traced, "bench.pass", fn)
                    results.append(result)
                    unit_times[label] = scaled
                    pass_wall += host
            finally:
                if installed is not None:
                    installed.restore()
            outcome = combine(results)
            attempted += outcome.tasks
            if traced:
                pass_acc.absorb(tracer, pass_wall)
                for key, value in GLOBAL_COUNTERS.delta_since(before).items():
                    counters[key] += value
            if reference is None:
                reference = outcome
                log(f"{name}: seed {seed} digest {outcome.digest}")
                problem = check_digest(name, seed, outcome.digest, load_pins())
            elif outcome.digest != reference.digest:
                problem = f"{name}: pass {passes} digest {outcome.digest} != {reference.digest}"
            else:
                problem = None
            if problem is not None:
                log(problem)
                failed = {"correct": False, "attempted": attempted, "failed": outcome.tasks}
                return {**failed, "metrics": {}}, False
            if passes > 0:
                for label, value in unit_times.items():
                    times[traced].setdefault(label, []).append(value)
            passes += 1
            repeats = [len(ts) for mode in (False, trace) for ts in times[mode].values()]
            enough = min(repeats, default=0) >= MIN_REPEATS
            if enough and clock() - window_start + pass_wall > seconds:
                break
        log(f"{name}: {passes} passes in {clock() - window_start:.1f} s")

        untraced_s = sum_of_medians(times[False])
        if trace:
            overhead = sum_of_medians(times[True]) / untraced_s - 1.0
            metrics = layer_metrics(setup_acc, pass_acc, counters, reference.link, overhead)
            units_of = dict(PER_LAYER)
        else:
            metrics = {
                "setup_s": sum_of_minima(build_times) * setup_scaled / setup_host,
                "tasks_per_s": reference.tasks / untraced_s,
                "peak_rss_mib": peak_rss_mib(),
                "delivery_ratio": reference.delivered / reference.requested,
                "tx_per_task": reference.transmissions / reference.tasks,
                "completed_task_share": reference.completed / reference.tasks,
            }
            units_of = dict(END_TO_END)
        return {
            "correct": True,
            "attempted": attempted,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        }, True
    finally:
        workload.close()


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            log(f"{name}: exited with code {done.returncode}")
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:20s} {metric:40s} {entry['value']:14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: ``prctl`` option that makes a process the reaper of its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant of this run (Linux; a no-op elsewhere).

    A process a child starts and outlives its parent, such as a helper a
    pool worker spawns, is then re-parented here rather than to init, so
    :func:`reap_children` can find and reap it.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> List[int]:
    """Pids of the live or unreaped children of this process."""
    me, out = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def reap_children() -> None:
    """Kill and reap every child still left, orphans adopted included."""
    for _ in range(100):
        pids = child_pids()
        if not pids:
            return
        log(f"reaping leftover processes {pids}")
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def stop_children() -> None:
    """Join every child process this run started, helpers included.

    Pool workers are joined when their pool closes; this reaps any left
    by an error path.  Creating a shared-memory segment starts the
    multiprocessing resource tracker, a process that would otherwise
    outlive the run; it is stopped here, after every plane is closed
    (closing one talks to the tracker and would restart it).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def release_processes() -> None:
    """Stop the helpers this run started, then reap whatever is left."""
    try:
        stop_children()
    finally:
        reap_children()


def raise_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"error: no library sources under {os.path.join(ROOT, 'src')}")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    # A terminated run unwinds like a failed one, so pools and planes close.
    signal.signal(signal.SIGTERM, raise_on_sigterm)
    become_subreaper()
    # Registered before the library registers its own exit hooks, so it
    # runs after them: closing a plane at exit would restart the tracker.
    atexit.register(release_processes)
    try:
        result, ok = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        result, ok = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, False
    finally:
        release_processes()
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
