"""Export span trees to the Chrome trace-event (Perfetto) JSON format.

The JSON-lines trace (``--trace-out``) is the archival format; this
module additionally renders the *span* records into the `trace-event
format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that ``chrome://tracing``, `ui.perfetto.dev <https://ui.perfetto.dev>`_
and ``speedscope`` all open directly -- one complete-duration (``"ph":
"X"``) event per span, grouped by the OS process that executed it, so a
four-worker campaign renders as four swim-lanes of shard spans under
the parent's run span.

The exporter is pure record-transformation: it accepts the dicts of
:meth:`repro.obs.events.EventTrace.to_records` *or* a parsed
``--trace-out`` file (:func:`repro.obs.events.read_jsonl`), ignores
non-span events, and never touches the global switchboard -- so it can
post-process traces from other runs, machines or processes.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.obs.fsio import atomic_write_text

__all__ = [
    "span_records",
    "to_chrome_trace",
    "write_chrome_trace",
]


def span_records(records: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Filter an event-record stream down to the span records."""
    return [r for r in records if r.get("event") == "span"]


def _thread_label(record: Dict[str, object]) -> int:
    """Trace-event ``tid`` for a span (workers are single-threaded)."""
    return int(record.get("pid", 0) or 0)


def to_chrome_trace(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Convert event records into one Chrome trace-event document.

    Every span becomes a complete event: ``ts``/``dur`` in microseconds
    (the format's unit), ``pid`` from the process that ran the span,
    and the span's ``attrs`` plus identity fields under ``args`` so the
    trace viewer's selection panel shows shard index, attempt and the
    dotted span ID.
    """
    events: List[Dict[str, object]] = []
    for record in span_records(records):
        args: Dict[str, object] = dict(record.get("attrs") or {})
        args["span_id"] = record.get("span_id")
        args["parent_id"] = record.get("parent_id")
        args["trace_id"] = record.get("trace_id")
        events.append(
            {
                "name": record.get("name", "span"),
                "cat": "repro",
                "ph": "X",
                "ts": float(record.get("start_ts", 0.0)) * 1e6,
                "dur": float(record.get("duration_s", 0.0)) * 1e6,
                "pid": int(record.get("pid", 0) or 0),
                "tid": _thread_label(record),
                "args": args,
            }
        )
    events.sort(key=lambda e: (e["pid"], e["ts"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "spans": len(events)},
    }


def write_chrome_trace(
    path: str, records: Iterable[Dict[str, object]]
) -> int:
    """Atomically write the Chrome-trace document; returns span count.

    This is the CLI's ``--trace-perfetto`` implementation: load the
    resulting file straight into ``chrome://tracing`` or
    ``ui.perfetto.dev`` (see docs/observability.md for the workflow).
    """
    document = to_chrome_trace(records)
    atomic_write_text(path, json.dumps(document, sort_keys=True) + "\n")
    return len(document["traceEvents"])  # type: ignore[arg-type]
