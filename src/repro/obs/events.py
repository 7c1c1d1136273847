"""Structured trace events and the bounded in-memory event trace.

XED's argument (Section III of the paper) is that on-die *detection*
events are telemetry worth surfacing; this module is the reproduction's
own version of that principle.  Every interesting episode in the
behavioural stack -- a catch-word recognised, a chip rebuilt from
parity, a serial-mode retry, a diagnosis pass, a scrub sweep, a
campaign trial, a campaign read classified -- is a typed
dataclass recorded into a ring buffer and exportable as JSON lines
(``--trace-out``), one event per line:

``{"event": "catch_word_detected", "ts": 1699.25, "chip": 3, ...}``

The ring buffer is bounded (oldest events evicted first) so tracing a
multi-hour campaign cannot exhaust memory; the number of evicted events
is tracked so truncation is visible in the export, never silent.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs.fsio import atomic_write_text

__all__ = [
    "TraceEvent",
    "SpanClosed",
    "CatchWordDetected",
    "ErasureReconstruction",
    "SerialRetry",
    "DiagnosisRun",
    "ScrubPass",
    "TrialCompleted",
    "ReadClassified",
    "ShardRetried",
    "ShardQuarantined",
    "CheckpointWritten",
    "RunSignalled",
    "LeaseGranted",
    "LeaseCompleted",
    "LeaseExpired",
    "ReplayedEvent",
    "EventTrace",
    "read_jsonl",
]

#: Default ring-buffer capacity; ~64K events is minutes of full-rate
#: campaign tracing at a few MB of memory.
DEFAULT_CAPACITY = 65_536


@dataclass
class TraceEvent:
    """Base class: every event has a ``kind`` tag used in the export."""

    kind = "event"

    def to_dict(self) -> Dict[str, object]:
        """Serialise the event (kind, timestamp, payload fields)."""
        record: Dict[str, object] = {"event": self.kind}
        record.update(asdict(self))
        return record


@dataclass
class SpanClosed(TraceEvent):
    """One completed span of the hierarchical trace tree.

    ``span_id``/``parent_id`` are deterministic dotted paths assigned by
    :mod:`repro.obs.tracing` (``"0"``, ``"0.1"``, ``"0.1.s3"`` ...), so
    the tree a run produces is identical for any worker count; only the
    timing fields (``start_ts``, ``duration_s``), ``trace_id`` and
    ``pid`` vary between executions.  The flat ``attrs`` dict carries
    span-specific labels (shard index, scheme name, attempt number) and
    must stay JSON-serialisable -- these records are what the JSONL and
    Perfetto exporters ship.
    """

    kind = "span"

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_ts: float
    duration_s: float
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)


@dataclass
class CatchWordDetected(TraceEvent):
    """A chip's transfer matched its catch-word: on-die ECC detected."""

    kind = "catch_word_detected"

    chip: int
    bank: int
    row: int
    column: int


@dataclass
class ErasureReconstruction(TraceEvent):
    """One chip's data was rebuilt from parity / RS erasure decoding.

    ``method`` records what located the erasure: ``catch_word`` (the
    fast path), ``fct`` (a previously convicted row), ``inter`` /
    ``intra`` (diagnosis), or ``rs_erasure`` (Chipkill symbols).
    """

    kind = "erasure_reconstruction"

    chip: int
    bank: int
    row: int
    column: int
    method: str
    collision: bool = False


@dataclass
class SerialRetry(TraceEvent):
    """Serial-mode recovery: XED-Enable cleared, line re-read, restored."""

    kind = "serial_retry"

    bank: int
    row: int
    column: int


@dataclass
class DiagnosisRun(TraceEvent):
    """Inter-/intra-line diagnosis ran on a parity-mismatched line.

    ``verdict`` is the convicted chip index, or ``None`` for a DUE.
    """

    kind = "diagnosis_run"

    bank: int
    row: int
    column: int
    inter_chip: Optional[int]
    intra_chip: Optional[int]
    ambiguous: bool
    verdict: Optional[int]
    method: Optional[str] = None


@dataclass
class ScrubPass(TraceEvent):
    """One patrol-scrub sweep (a region or a single patrol step)."""

    kind = "scrub_pass"

    lines_scrubbed: int
    clean: int
    corrected: int
    uncorrectable: int


@dataclass
class TrialCompleted(TraceEvent):
    """One trial of a fault-injection campaign finished.

    ``outcome`` is the worst classification among the trial's reads.
    Campaign trials only: a Monte-Carlo run emits no per-system
    events; its failure totals are the ``faultsim.failures`` and
    ``faultsim.failure.<kind>`` counters, and each failure's time and
    kind live in the :class:`~repro.faultsim.ReliabilityResult`.
    """

    kind = "trial_completed"

    trial: int
    campaign: str
    outcome: str
    detail: Dict[str, int] = field(default_factory=dict)


@dataclass
class ReadClassified(TraceEvent):
    """One campaign read classified against its expected data."""

    kind = "read_classified"

    trial: int
    bank: int
    row: int
    column: int
    outcome: str
    status: str
    granularities: List[str] = field(default_factory=list)
    chips: List[int] = field(default_factory=list)
    permanent: bool = True


@dataclass
class ShardRetried(TraceEvent):
    """A shard attempt failed and was rescheduled with backoff.

    ``reason`` is the executor's classification (``crash`` for an
    abnormal worker exit, ``timeout`` for a deadline miss, ``fault``
    for an ordinary exception inside the shard); ``attempt`` is how
    many attempts have now failed and ``delay_s`` the backoff before
    the next one.
    """

    kind = "shard_retried"

    shard: int
    attempt: int
    reason: str
    delay_s: float


@dataclass
class ShardQuarantined(TraceEvent):
    """A shard exhausted its retries under ``--keep-going``.

    Its result is permanently missing from the merged output; the run's
    completeness fraction accounts for it.
    """

    kind = "shard_quarantined"

    shard: int
    attempts: int
    reason: str


@dataclass
class CheckpointWritten(TraceEvent):
    """A run checkpoint reached durable storage (final flush / resume)."""

    kind = "checkpoint_written"

    path: str
    shards: int


@dataclass
class RunSignalled(TraceEvent):
    """SIGINT/SIGTERM received: the run is draining toward a checkpoint."""

    kind = "run_signalled"

    signal_name: str


@dataclass
class LeaseGranted(TraceEvent):
    """The distributed coordinator leased shard indices to a worker."""

    kind = "lease_granted"

    lease_id: int
    worker: str
    shards: int
    first_shard: int


@dataclass
class LeaseCompleted(TraceEvent):
    """Every shard of a lease was accounted for by its worker."""

    kind = "lease_completed"

    lease_id: int
    worker: str
    shards: int


@dataclass
class LeaseExpired(TraceEvent):
    """A lease missed its deadline; unfinished shards were requeued.

    ``reason`` distinguishes a deadline miss (``timeout``) from a
    worker connection dying mid-lease (``crash``).
    """

    kind = "lease_expired"

    lease_id: int
    worker: str
    outstanding: int
    reason: str


class ReplayedEvent(TraceEvent):
    """An event re-hydrated from an exported record (dict payload).

    Worker processes of a sharded run ship their trace back to the
    parent as plain record dicts (see :meth:`EventTrace.to_records`);
    the parent wraps each in a ``ReplayedEvent`` so merged traces export
    identically to natively recorded ones.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = dict(payload)
        self.payload.pop("ts", None)
        self.kind = str(self.payload.get("event", "event"))

    def to_dict(self) -> Dict[str, object]:
        """Return a copy of the replayed payload (ts re-attached)."""
        return dict(self.payload)


class EventTrace:
    """Bounded ring buffer of ``(timestamp, event)`` pairs.

    ``record`` stamps wall-clock time so exported traces correlate with
    external logs.  When the buffer is full the oldest event is evicted
    and ``dropped`` incremented -- the JSONL export carries that count in
    a leading meta line so truncated traces are self-describing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: Deque[Tuple[float, TraceEvent]] = deque(maxlen=capacity)
        self.dropped = 0

    def record(self, event: TraceEvent) -> None:
        """Append an event stamped with the current time."""
        self.record_at(time.time(), event)

    def record_at(self, ts: float, event: TraceEvent) -> None:
        """Record ``event`` with an explicit timestamp (trace merging)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append((ts, event))

    def merge_records(self, records: List[Dict[str, object]]) -> None:
        """Fold exported record dicts (:meth:`to_records`) into the trace.

        Worker timestamps are preserved, so a merged trace still
        correlates with external logs; capacity/eviction accounting
        applies as if the events had been recorded natively.
        """
        for record in records:
            ts = float(record.get("ts", 0.0))
            self.record_at(ts, ReplayedEvent(record))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return (event for _, event in self._events)

    def clear(self) -> None:
        """Drop all buffered events."""
        self._events.clear()
        self.dropped = 0

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of buffered events by kind."""
        counts: Dict[str, int] = {}
        for _, event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- export -------------------------------------------------------------

    def to_records(self) -> List[Dict[str, object]]:
        """Buffered events as picklable dicts (for cross-process merge)."""
        records = []
        for ts, event in self._events:
            record = event.to_dict()
            record["ts"] = ts
            records.append(record)
        return records

    def to_jsonl(self) -> str:
        """Serialise the buffer as JSON-lines text."""
        lines = [
            json.dumps(
                {
                    "event": "trace_meta",
                    "recorded": len(self._events),
                    "dropped": self.dropped,
                    "capacity": self.capacity,
                }
            )
        ]
        lines.extend(json.dumps(r, sort_keys=True) for r in self.to_records())
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> None:
        """Write the buffer to ``path`` as JSON lines (atomically).

        Uses write-temp-then-rename (:func:`repro.obs.fsio.
        atomic_write_text`) so a signal landing mid-export -- the end of
        a run is exactly when SIGTERM arrives -- cannot leave a
        truncated trace file for ``repro obs summarize`` to choke on.
        """
        atomic_write_text(path, self.to_jsonl())


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a ``--trace-out`` file back into event dicts.

    The leading ``trace_meta`` line is skipped; blank lines tolerated.
    """
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("event") == "trace_meta":
                continue
            records.append(record)
    return records
