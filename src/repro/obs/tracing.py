"""Hierarchical spans with deterministic IDs and cross-process context.

PR 1's ``span()`` fed flat timer histograms; this module upgrades it
into a real trace tree.  Every span carries

* a ``trace_id`` shared by the whole run,
* a ``span_id`` that is a *deterministic dotted path* -- the root is
  ``"0"``, its children ``"0.1"``, ``"0.2"`` ... and the span wrapping
  shard ``i`` of a sharded run is ``"<parent>.s<i>"`` (``"...a<n>"``
  appended on retry attempt *n*), and
* a ``parent_id`` linking it into the tree.

Because shard IDs come from the shard *plan* (never from scheduling),
one campaign run yields the identical tree whether its shards execute
in-process or on four worker processes -- only timing fields, the
``trace_id`` and worker ``pid`` s differ.  That property is what makes
traces diffable across runs and is asserted by
``tests/unit/test_tracing.py``.

Cross-process propagation uses :class:`TraceContext`, a tiny picklable
``(trace_id, span_id)`` pair: the parent captures its current context,
ships it to each worker inside the task payload, and the worker opens
its shard span explicitly parented to it (:func:`shard_span`).  The
resulting :class:`~repro.obs.events.SpanClosed` events ride the
existing worker-to-parent telemetry channel (``EventTrace.to_records``
/ ``merge_records``), so no new IPC is needed.

Closing a span does two things: it observes the duration into the
``name`` timer histogram (exactly what the old ``span()`` did -- every
existing dashboard keeps working) and records a ``SpanClosed`` event
into the ring buffer for the JSONL / Perfetto exports.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, time as wall_time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.events import SpanClosed

__all__ = [
    "TraceContext",
    "current_context",
    "span",
    "shard_span",
]

#: The stack of open spans in this process (root first).
_STACK: List["_ActiveSpan"] = []

#: Next child ordinal per (trace_id, parent span_id).  Keyed by trace so
#: two runs in one process cannot bleed ordinals into each other; the
#: trace's keys are purged when its root span closes.
_CHILD_ORDINALS: Dict[Tuple[str, str], int] = {}

#: Cached reference to the process-wide switchboard (set on first use;
#: imported lazily because :mod:`repro.obs.runtime` imports this module
#: to re-export :func:`span`).
_OBS = None


def _obs():
    """The global :data:`repro.obs.OBS` switchboard (lazily cached)."""
    global _OBS
    if _OBS is None:
        from repro.obs.runtime import OBS

        _OBS = OBS
    return _OBS


@dataclass(frozen=True)
class TraceContext:
    """A picklable pointer to one span: ``(trace_id, span_id)``.

    This is the whole cross-process propagation payload: the parent
    captures :func:`current_context`, ships it with each shard, and the
    worker parents its spans under it.  Frozen so a context can never
    drift after being embedded in a task payload.
    """

    trace_id: str
    span_id: str

    def child_id(self, suffix: str) -> str:
        """The dotted span ID of a child labelled ``suffix``."""
        return f"{self.span_id}.{suffix}"


class _ActiveSpan:
    """Mutable record of a span that is currently open in this process."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_wall", "start_perf", "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, object],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_wall = wall_time()
        self.start_perf = perf_counter()
        self.attrs = attrs

    def context(self) -> TraceContext:
        """This span as a shippable :class:`TraceContext`."""
        return TraceContext(self.trace_id, self.span_id)


def current_context() -> Optional[TraceContext]:
    """The innermost open span's context, or ``None`` outside any span.

    This is what a sharded executor captures at dispatch time and ships
    to its workers so their spans join the parent's tree.
    """
    if not _STACK:
        return None
    return _STACK[-1].context()


def _next_child_id(trace_id: str, parent_span_id: str) -> str:
    """Allocate the next ordinal child ID under ``parent_span_id``."""
    key = (trace_id, parent_span_id)
    ordinal = _CHILD_ORDINALS.get(key, 0) + 1
    _CHILD_ORDINALS[key] = ordinal
    return f"{parent_span_id}.{ordinal}"


def _purge_trace(trace_id: str) -> None:
    """Drop a finished trace's ordinal counters (root span closed)."""
    for key in [k for k in _CHILD_ORDINALS if k[0] == trace_id]:
        del _CHILD_ORDINALS[key]


@contextmanager
def span(
    name: str,
    ctx: Optional[TraceContext] = None,
    span_id: Optional[str] = None,
    **attrs: object,
) -> Iterator[Optional[TraceContext]]:
    """Open one span of the trace tree (no-op while OBS is disabled).

    Without arguments the span parents under the innermost open span
    (ordinal child IDs: ``0.1``, ``0.2`` ...), or starts a new trace as
    root ``"0"`` when none is open.  A worker process passes the
    shipped ``ctx`` (and usually a deterministic ``span_id``, see
    :func:`shard_span`) to graft its spans into the parent's tree.
    ``attrs`` become the span's labels in every export and must be
    JSON-serialisable.

    On exit the duration is observed into the ``name`` timer histogram
    (the PR-1 contract -- ``span()`` call sites keep their metrics) and
    a :class:`~repro.obs.events.SpanClosed` event is recorded.  Yields
    the span's :class:`TraceContext` (``None`` when disabled).
    """
    obs = _obs()
    if not obs.enabled:
        yield None
        return
    if ctx is not None:
        trace_id = ctx.trace_id
        parent_id: Optional[str] = ctx.span_id
        sid = span_id if span_id is not None else _next_child_id(
            trace_id, ctx.span_id
        )
    elif _STACK:
        parent = _STACK[-1]
        trace_id = parent.trace_id
        parent_id = parent.span_id
        sid = span_id if span_id is not None else _next_child_id(
            trace_id, parent.span_id
        )
    else:
        trace_id = uuid.uuid4().hex[:16]
        parent_id = None
        sid = span_id if span_id is not None else "0"
    active = _ActiveSpan(name, trace_id, sid, parent_id, dict(attrs))
    _STACK.append(active)
    try:
        yield active.context()
    finally:
        _STACK.pop()
        duration = perf_counter() - active.start_perf
        obs.registry.timer(name).observe(duration)
        obs.trace.record(
            SpanClosed(
                name=active.name,
                trace_id=active.trace_id,
                span_id=active.span_id,
                parent_id=active.parent_id,
                start_ts=active.start_wall,
                duration_s=duration,
                pid=os.getpid(),
                attrs=active.attrs,
            )
        )
        if active.parent_id is None:
            _purge_trace(active.trace_id)


@contextmanager
def shard_span(
    ctx: Optional[TraceContext],
    index: int,
    attempt: int = 1,
) -> Iterator[Optional[TraceContext]]:
    """The span wrapping one shard execution (in-process or worker).

    The span ID is derived from the shard *plan* -- ``<parent>.s<i>``,
    with ``a<attempt>`` appended for retries -- never from scheduling,
    so the assembled trace tree is identical for any worker count.
    Both executors route every shard attempt through here; the
    ``shard_s`` timer this feeds is where the per-shard latency
    percentiles of ``repro obs summarize`` and the time-series sampler
    come from.

    ``ctx`` is the parent's shipped context; with ``None`` (shard ran
    outside any span) the shard span simply roots its own trace.
    """
    suffix = f"s{index}" if attempt <= 1 else f"s{index}a{attempt}"
    sid = ctx.child_id(suffix) if ctx is not None else None
    with span(
        "shard_s", ctx=ctx, span_id=sid, shard=index, attempt=attempt
    ) as span_ctx:
        yield span_ctx
