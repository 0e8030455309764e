"""Memory-bounded online statistics for unbounded session streams.

Accumulating one :class:`~repro.engine.stats.TaskResult` per completed
session makes a multi-hour sweep's memory grow linearly with throughput;
these sketches replace that accumulation with O(1)-to-O(log n) state:

* :class:`Welford` — numerically-stable running mean/variance (Welford's
  online algorithm, with Chan's parallel merge rule);
* :class:`GKQuantiles` — the Greenwald-Khanna epsilon-approximate quantile
  summary: any quantile query is answered within ``epsilon * n`` ranks of
  the exact answer, with ``O((1/epsilon) * log(epsilon * n))`` stored
  tuples — the bound the property tests assert against
  ``numpy.percentile``.

All sketches are deterministic in their input order and serialize exactly
(:meth:`state` / ``from_state``): floats round-trip through JSON by
shortest-repr, so a sketch restored from a checkpoint continues
bit-identically — the property the resume tests pin.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, List, Sequence, Tuple


class Welford:
    """Running mean and variance via Welford's online update."""

    __slots__ = ("count", "mean", "m2", "min_value", "max_value")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def update(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than two values."""
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "Welford") -> None:
        """Fold another accumulator in (Chan et al. parallel combination)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.min_value = other.min_value
            self.max_value = other.max_value
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def state(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "m2": self.m2,
            "min": self.min_value,
            "max": self.max_value,
        }

    @staticmethod
    def from_state(state: Dict[str, float]) -> "Welford":
        out = Welford()
        out.count = int(state["count"])
        out.mean = float(state["mean"])
        out.m2 = float(state["m2"])
        out.min_value = float(state["min"])
        out.max_value = float(state["max"])
        return out


class GKQuantiles:
    """Greenwald-Khanna epsilon-approximate quantile summary.

    Stores tuples ``(value, g, delta)`` in value order where ``g`` is the
    gap in minimum rank to the previous tuple and ``delta`` the rank
    uncertainty.  :meth:`query` returns a stored value whose true rank is
    within ``epsilon * count`` of the requested one (GK Theorem 1); space
    stays ``O((1/epsilon) * log(epsilon * n))``.
    """

    __slots__ = ("epsilon", "count", "_tuples", "_since_compress")

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = float(epsilon)
        self.count = 0
        #: ``[value, g, delta]`` lists, sorted by value.
        self._tuples: List[List[float]] = []
        self._since_compress = 0

    def __len__(self) -> int:
        """Number of stored tuples (the memory bound under test)."""
        return len(self._tuples)

    def update(self, value: float) -> None:
        value = float(value)
        position = bisect.bisect_left(
            [t[0] for t in self._tuples], value
        )
        if position == 0 or position == len(self._tuples):
            # New minimum or maximum is always exact: delta = 0.
            entry = [value, 1.0, 0.0]
        else:
            entry = [value, 1.0, math.floor(2.0 * self.epsilon * self.count)]
        self._tuples.insert(position, entry)
        self.count += 1
        self._since_compress += 1
        if self._since_compress >= int(math.ceil(1.0 / (2.0 * self.epsilon))):
            self._compress()
            self._since_compress = 0

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined uncertainty stays in bound."""
        if len(self._tuples) < 3:
            return
        budget = math.floor(2.0 * self.epsilon * self.count)
        merged: List[List[float]] = [self._tuples[0]]
        for entry in self._tuples[1:-1]:
            nxt = entry
            prev = merged[-1]
            # Merging prev into nxt keeps the bound if g_prev + g_next +
            # delta_next <= 2 * epsilon * n; never merge into the first
            # tuple (the minimum must stay exact).
            if (
                len(merged) > 1
                and prev[1] + nxt[1] + nxt[2] <= budget
            ):
                merged.pop()
                nxt = [nxt[0], prev[1] + nxt[1], nxt[2]]
            merged.append(nxt)
        merged.append(self._tuples[-1])
        self._tuples = merged

    def query(self, quantile: float) -> float:
        """A value whose rank is within ``epsilon * count`` of ``quantile``."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self._tuples:
            raise ValueError("cannot query an empty sketch")
        if quantile <= 0.0:
            return self._tuples[0][0]
        if quantile >= 1.0:
            return self._tuples[-1][0]
        # Canonical GK query: return the predecessor of the first tuple
        # whose maximum possible rank overshoots target + allowed — its
        # true rank is then within ``allowed`` of the target (GK Thm. 1).
        target = math.ceil(quantile * self.count)
        allowed = max(self.epsilon * self.count, 1.0)
        min_rank = 0.0
        best = self._tuples[0][0]
        for value, g, delta in self._tuples:
            min_rank += g
            if min_rank + delta > target + allowed:
                return best
            best = value
        return self._tuples[-1][0]

    def state(self) -> Dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "since_compress": self._since_compress,
            "tuples": [list(t) for t in self._tuples],
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "GKQuantiles":
        out = GKQuantiles(float(state["epsilon"]))
        out.count = int(state["count"])
        out._since_compress = int(state["since_compress"])
        out._tuples = [
            [float(v), float(g), float(d)]
            for v, g, d in state["tuples"]
        ]
        return out


#: Quantiles every metric reports (order fixes the rendered columns).
REPORT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

#: Metric names of one session outcome, in fold order.
STREAM_METRICS: Tuple[str, ...] = (
    "latency_s",
    "delivery_ratio",
    "energy_joules",
    "tree_cost",
)


class MetricSketch:
    """One metric's bounded-memory aggregate: moments plus GK quantiles."""

    __slots__ = ("moments", "quantiles")

    def __init__(self, epsilon: float = 0.01) -> None:
        self.moments = Welford()
        self.quantiles = GKQuantiles(epsilon)

    def update(self, value: float) -> None:
        self.moments.update(value)
        self.quantiles.update(value)

    def state(self) -> Dict[str, Any]:
        return {"moments": self.moments.state(), "quantiles": self.quantiles.state()}

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "MetricSketch":
        out = MetricSketch()
        out.moments = Welford.from_state(state["moments"])
        out.quantiles = GKQuantiles.from_state(state["quantiles"])
        return out


class StreamStats:
    """Bounded-memory statistics of one session stream.

    Tracks the four report metrics (latency, per-session delivery ratio,
    energy, tree cost) as :class:`MetricSketch` plus exact integer tallies
    (sessions, failures, delivered/requested destination counts).  State
    size is independent of the number of completed sessions up to the GK
    logarithmic factor — the memory-growth test pins this.
    """

    __slots__ = ("epsilon", "metrics", "sessions", "failures", "delivered", "requested")

    def __init__(self, epsilon: float = 0.01) -> None:
        self.epsilon = float(epsilon)
        self.metrics: Dict[str, MetricSketch] = {
            name: MetricSketch(epsilon) for name in STREAM_METRICS
        }
        self.sessions = 0
        self.failures = 0
        self.delivered = 0
        self.requested = 0

    def observe(
        self,
        latency_s: float,
        delivery_ratio: float,
        energy_joules: float,
        tree_cost: float,
        delivered: int,
        requested: int,
    ) -> None:
        self.metrics["latency_s"].update(latency_s)
        self.metrics["delivery_ratio"].update(delivery_ratio)
        self.metrics["energy_joules"].update(energy_joules)
        self.metrics["tree_cost"].update(tree_cost)
        self.sessions += 1
        self.delivered += int(delivered)
        self.requested += int(requested)
        if delivered < requested:
            self.failures += 1

    @property
    def aggregate_delivery_ratio(self) -> float:
        return self.delivered / self.requested if self.requested else 1.0

    def summary_rows(self) -> List[Tuple[str, float, float, float, float, float]]:
        """``(metric, mean, std, p50, p90, p99)`` per metric, fold order."""
        rows = []
        for name in STREAM_METRICS:
            sketch = self.metrics[name]
            if sketch.moments.count == 0:
                rows.append((name, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            p50, p90, p99 = (
                sketch.quantiles.query(q) for q in REPORT_QUANTILES
            )
            rows.append(
                (name, sketch.moments.mean, sketch.moments.std, p50, p90, p99)
            )
        return rows

    def state(self) -> Dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "sessions": self.sessions,
            "failures": self.failures,
            "delivered": self.delivered,
            "requested": self.requested,
            "metrics": {
                name: self.metrics[name].state() for name in STREAM_METRICS
            },
        }

    @staticmethod
    def from_state(state: Dict[str, Any]) -> "StreamStats":
        out = StreamStats(float(state["epsilon"]))
        out.sessions = int(state["sessions"])
        out.failures = int(state["failures"])
        out.delivered = int(state["delivered"])
        out.requested = int(state["requested"])
        metric_states: Dict[str, Dict[str, Any]] = state["metrics"]
        out.metrics = {
            name: MetricSketch.from_state(metric_states[name])
            for name in STREAM_METRICS
        }
        return out


def exact_quantile(values: Sequence[float], quantile: float) -> float:
    """Exact nearest-rank quantile of a finite sample (test reference)."""
    if not values:
        raise ValueError("cannot query an empty sample")
    ordered = sorted(float(v) for v in values)
    rank = max(1, int(math.ceil(quantile * len(ordered))))
    return ordered[rank - 1]
