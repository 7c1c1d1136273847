"""Periodic time-series sampling of the live metrics registry.

Counters and histograms answer "how much happened, ever"; a long
campaign also needs "how fast is it happening *right now*" -- trials
per second sagging when a worker is wedged, retry counters stepping,
RSS creeping toward an OOM kill.  :class:`TelemetrySampler` snapshots
the registry on a rate-limited clock and derives, per sample,

* every counter's **rate** since the previous sample (units/second),
* p50/p95/p99 **quantile estimates** for every non-empty timer
  histogram (shard latency being the interesting one), and
* the process's **peak RSS** (``resource.getrusage``; ``None`` where
  the stdlib has no ``resource`` module).

Samples accumulate in memory (bounded) and export as JSON lines --
``--timeseries-out`` on the CLI -- one ``{"kind": "sample", ...}``
object per line, ready for any log pipeline or a quick pandas load.

The clock is injectable, so tests drive the sampler deterministically
with a fake clock; sampling is synchronous (the executor calls
:meth:`maybe_sample` after every completed shard of every sharded run)
because the hot paths cannot afford a background thread.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.obs.fsio import atomic_write_text
from repro.obs.metrics import MetricsRegistry

try:  # pragma: no cover - resource is absent only on non-POSIX
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

__all__ = [
    "TelemetrySampler",
    "peak_rss_kb",
    "read_timeseries",
    "DEFAULT_SAMPLE_INTERVAL_S",
]

#: Default minimum spacing between samples, seconds.
DEFAULT_SAMPLE_INTERVAL_S = 2.0

#: Keep at most this many samples in memory (oldest dropped first); at
#: the default interval this is over an hour of telemetry.
MAX_SAMPLES = 4096


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (``None`` off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise
    to KiB so exported samples are comparable across platforms.
    """
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - mac units
        peak //= 1024
    return int(peak)


class TelemetrySampler:
    """Rate-limited snapshots of counters, gauges, rates and quantiles.

    One sampler serves one run: the CLI installs it on ``OBS.sampler``
    and the executor calls :meth:`maybe_sample` whenever a shard
    completes; callers that want a guaranteed final data point (end of
    run) pass ``force=True``.  All time sources are injectable --
    ``clock`` (monotonic, drives rate-limiting and rate denominators)
    and ``wall`` (timestamps in the export) -- so the output is exactly
    reproducible under a fake clock.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        wall: Optional[Callable[[], float]] = None,
        rss_fn: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        self.interval_s = interval_s
        self._registry = registry
        self._clock = clock if clock is not None else time.monotonic
        self._wall = wall if wall is not None else time.time
        self._rss_fn = rss_fn if rss_fn is not None else peak_rss_kb
        self.samples: List[Dict[str, object]] = []
        self.dropped = 0
        self._started = self._clock()
        self._last_sample_t: Optional[float] = None
        self._last_counters: Dict[str, int] = {}

    def _resolve_registry(self) -> MetricsRegistry:
        """The registry being sampled (explicit or the global one)."""
        if self._registry is not None:
            return self._registry
        from repro.obs.runtime import OBS

        return OBS.registry

    def maybe_sample(self, force: bool = False) -> Optional[Dict[str, object]]:
        """Take a sample iff ``interval_s`` has elapsed (or ``force``).

        Returns the sample record, or ``None`` when rate-limited.  This
        is the call engines sprinkle on their progress callbacks: cheap
        when declined (one clock read and a comparison).
        """
        now = self._clock()
        if (
            not force
            and self._last_sample_t is not None
            and now - self._last_sample_t < self.interval_s
        ):
            return None
        return self.sample(now)

    def sample(self, now: Optional[float] = None) -> Dict[str, object]:
        """Unconditionally snapshot the registry into one sample record.

        Rates are ``(counter - previous counter) / elapsed`` since the
        previous sample (the first sample measures from construction),
        so a counter that stalls shows an exact 0.0 rather than a decay
        artifact.
        """
        registry = self._resolve_registry()
        if now is None:
            now = self._clock()
        state = registry.snapshot()
        counters: Dict[str, int] = dict(state["counters"])  # type: ignore[arg-type]
        previous_t = (
            self._last_sample_t
            if self._last_sample_t is not None
            else self._started
        )
        elapsed = now - previous_t
        rates: Dict[str, float] = {}
        if elapsed > 0:
            for name, value in counters.items():
                delta = value - self._last_counters.get(name, 0)
                rates[name] = delta / elapsed
        record: Dict[str, object] = {
            "kind": "sample",
            "ts": self._wall(),
            "uptime_s": now - self._started,
            "counters": counters,
            "gauges": dict(state["gauges"]),  # type: ignore[arg-type]
            "rates": rates,
            "quantiles": registry.timer_quantiles(),
            "rss_kb": self._rss_fn(),
        }
        self._last_sample_t = now
        self._last_counters = counters
        if len(self.samples) >= MAX_SAMPLES:
            self.samples.pop(0)
            self.dropped += 1
        self.samples.append(record)
        return record

    def to_jsonl(self) -> str:
        """The collected samples as JSON-lines text (meta line first)."""
        lines = [
            json.dumps(
                {
                    "kind": "timeseries_meta",
                    "samples": len(self.samples),
                    "dropped": self.dropped,
                    "interval_s": self.interval_s,
                }
            )
        ]
        lines.extend(json.dumps(s, sort_keys=True) for s in self.samples)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        """Atomically export the samples (``--timeseries-out``)."""
        atomic_write_text(path, self.to_jsonl())


def read_timeseries(path: str) -> List[Dict[str, object]]:
    """Parse a ``--timeseries-out`` file back into sample dicts.

    The leading ``timeseries_meta`` line is skipped, mirroring
    :func:`repro.obs.events.read_jsonl`.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "timeseries_meta":
                continue
            records.append(record)
    return records
