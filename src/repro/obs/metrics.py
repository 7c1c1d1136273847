"""Process-wide metrics: counters, gauges, histograms and timers.

The registry is deliberately dependency-free and synchronous: XED's hot
paths (controller reads, Monte-Carlo batches, the perf-sim event loop)
cannot afford a metrics client, threads, or background flushing.  A
metric is a tiny mutable object fetched once (or looked up in a dict)
and bumped in place; the whole registry serialises to one JSON document
for the CLI's ``--metrics-out`` flag.

Histograms use *fixed* buckets (upper bounds chosen at creation) so
recording is O(log buckets) with no allocation -- the same design as
Prometheus client histograms, which keeps exports mergeable across
processes later.

Nothing here consults the global on/off switch; that lives in
:mod:`repro.obs.runtime`.  Instrumentation sites guard themselves with
``if OBS.enabled:`` so a disabled process pays one attribute load per
site and never touches these classes.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.fsio import atomic_write_text

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_S",
]

#: Default latency buckets (seconds): 10us .. 60s, roughly log-spaced.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing integer (events seen, bytes moved)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can move both ways (queue depth, rate, ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Add ``delta`` to the gauge."""
        self.value += delta

    def reset(self) -> None:
        """Zero the gauge."""
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    (``+Inf``) catches everything above the last bound.  ``mean``,
    ``min`` and ``max`` are tracked exactly alongside the buckets.
    """

    __slots__ = (
        "name", "buckets", "bucket_counts", "count", "total", "min", "max",
    )

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the bucket counts.

        The classic Prometheus-style estimator: find the bucket where
        the cumulative count crosses ``q * count`` and interpolate
        linearly inside it, clamping the outermost edges to the exact
        tracked ``min``/``max`` so the estimate never leaves the
        observed range.  Deterministic (pure arithmetic on the counts),
        which is what lets the time-series sampler and ``repro obs
        summarize`` report p50/p95/p99 reproducibly.  Returns ``None``
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        if target <= 0:
            return self.min
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lo = self.buckets[i - 1] if i > 0 else self.min
                hi = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else self.max
                )
                lo = min(max(lo, self.min), self.max)
                hi = min(max(hi, self.min), self.max)
                fraction = (target - cumulative) / bucket_count
                return lo + (hi - lo) * fraction
            cumulative += bucket_count
        return self.max  # pragma: no cover - cumulative always crosses

    def reset(self) -> None:
        """Forget all samples."""
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image: buckets, count, total, min, max."""
        labels = [f"le={b:g}" for b in self.buckets] + ["le=+Inf"]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(zip(labels, self.bucket_counts)),
        }

    def state(self) -> Dict[str, object]:
        """Raw mergeable state (bucket *bounds*, not display labels)."""
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Both histograms must share bucket bounds -- merging differently
        bucketed series would silently misplace observations.
        """
        if tuple(state["buckets"]) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for i, c in enumerate(state["bucket_counts"]):
            self.bucket_counts[i] += c
        self.count += state["count"]
        self.total += state["total"]
        self.min = min(self.min, state["min"])
        self.max = max(self.max, state["max"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:g})"


class Timer(Histogram):
    """A histogram of durations in seconds (fed by ``span``/``@timed``)."""

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S
    ) -> None:
        super().__init__(name, buckets)


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Names are flat strings; instrumentation uses dotted prefixes
    (``campaign.reads``, ``perfsim.writes``) to namespace subsystems.
    Registering the same name as two different metric kinds is an error
    -- it would silently split one series into two.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # -- get-or-create accessors -------------------------------------------

    def _check_free(self, name: str, among: Dict[str, object]) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
            ("timer", self._timers),
        ):
            if table is not among and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """Get or create the counter named ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge named ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, buckets: Sequence[float]) -> Histogram:
        """Get or create a histogram with the given bucket bounds."""
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, buckets)
        return metric

    def timer(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S
    ) -> Timer:
        """Get or create a duration histogram (seconds)."""
        metric = self._timers.get(name)
        if metric is None:
            self._check_free(name, self._timers)
            metric = self._timers[name] = Timer(name, buckets)
        return metric

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The whole registry as plain JSON-serialisable dicts."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
            "timers": {n: t.to_dict() for n, t in sorted(self._timers.items())},
        }

    def state(self) -> Dict[str, Dict[str, object]]:
        """A picklable, mergeable image of the registry.

        Unlike :meth:`snapshot` (a display/export payload), the state
        keeps raw histogram bucket bounds so a parent process can fold a
        worker's metrics back in losslessly via :meth:`merge_state` --
        the mechanism behind sharded Monte-Carlo/campaign runs.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: h.state() for n, h in self._histograms.items()
            },
            "timers": {n: t.state() for n, t in self._timers.items()},
        }

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`state` from another registry into this one.

        Counters add, histograms/timers merge bucket-wise, and gauges
        take the incoming value (last writer wins -- gauges are point
        samples, e.g. a worker's shard rate, not accumulables).
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name, hist_state["buckets"]).merge_state(hist_state)
        for name, timer_state in state.get("timers", {}).items():
            self.timer(name, timer_state["buckets"]).merge_state(timer_state)

    def timer_quantiles(self) -> Dict[str, Dict[str, float]]:
        """Estimated quantiles for every non-empty timer.

        Returns ``{timer_name: {"p50": ..., "p95": ..., "p99": ...}}``;
        the time-series sampler embeds this in every sample so
        shard-latency percentiles are trackable over the course of a
        run, not just at the end.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, timer in sorted(self._timers.items()):
            if timer.count == 0:
                continue
            out[name] = {
                f"p{round(q * 100):d}": timer.quantile(q)
                for q in (0.5, 0.95, 0.99)
            }
        return out

    def dump_json(self, path: str) -> None:
        """Write the snapshot as one JSON document (``--metrics-out``).

        The write is atomic (temp file + rename) so an export cut short
        by SIGTERM never leaves a truncated document behind.
        """
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        atomic_write_text(path, text + "\n")

    def reset(self) -> None:
        """Zero every registered metric (registrations survive)."""
        for table in (
            self._counters, self._gauges, self._histograms, self._timers,
        ):
            for metric in table.values():
                metric.reset()

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges)
            + len(self._histograms) + len(self._timers)
        )
