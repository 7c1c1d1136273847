"""The ``repro obs`` sub-commands: post-run analysis of exported runs.

Every long-running ``repro`` command can export its observability
artefacts (``--metrics-out``, ``--trace-out``, ``--timeseries-out``,
``--trace-perfetto``); this module is the other half of that story --
turning the files back into answers without re-running anything:

* ``repro obs summarize --trace t.jsonl [--metrics m.json]`` -- the
  trace tree at a glance: slowest spans, the per-shard latency table
  with p50/p95/p99, and the retry/quarantine report.
* ``repro obs inspect CKPT`` -- a checkpoint's fingerprint and shard
  completeness (which shards are done, which are missing), without
  loading any engine code paths.
* ``repro obs diff BASELINE CURRENT`` -- compare two runs'
  ``--metrics-out`` documents: counter deltas, gauge changes and timer
  mean ratios, with a regression highlight threshold.

All three read only exported files (plus the checkpoint format), so
they work on artefacts copied from another machine or downloaded from
CI.  See docs/observability.md for worked examples.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.events import read_jsonl
from repro.obs.exporters import span_records

__all__ = [
    "add_obs_parser",
    "format_span_summary",
    "format_shard_table",
    "format_metrics_diff",
    "exact_percentile",
]


def add_obs_parser(
    subparsers: argparse._SubParsersAction,
    obs_flags: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """Attach the ``obs`` sub-command group to the main CLI parser.

    Each of its sub-commands sets ``handler``, the function that runs
    it, as every ``repro`` sub-command does.  ``obs`` and each of its
    sub-commands take ``obs_flags``, the observability flags every
    ``repro`` sub-command accepts.
    """
    obs = subparsers.add_parser(
        "obs",
        parents=[obs_flags],
        allow_abbrev=False,
        help="analyse exported traces, metrics and checkpoints",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize", parents=[obs_flags],
        help="summarise an exported trace (and metrics)",
    )
    summarize.set_defaults(handler=_cmd_summarize)
    summarize.add_argument(
        "--trace", required=True, metavar="PATH",
        help="a --trace-out JSON-lines file",
    )
    summarize.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="optionally also summarise a --metrics-out JSON document",
    )
    summarize.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest spans/shards to list (default 10)",
    )

    inspect = obs_sub.add_parser(
        "inspect", parents=[obs_flags],
        help="show a checkpoint's fingerprint and completeness",
    )
    inspect.set_defaults(handler=_cmd_inspect)
    inspect.add_argument("checkpoint", help="a .ckpt file")

    diff = obs_sub.add_parser(
        "diff", parents=[obs_flags],
        help="compare two runs' --metrics-out documents",
    )
    diff.set_defaults(handler=_cmd_diff)
    diff.add_argument("baseline", help="baseline metrics JSON")
    diff.add_argument("current", help="current metrics JSON")
    diff.add_argument(
        "--threshold", type=float, default=0.10, metavar="F",
        help="flag timer-mean changes beyond this fraction (default 0.10)",
    )
    return obs


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def exact_percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile of pre-sorted values.

    Unlike :meth:`repro.obs.metrics.Histogram.quantile` (which estimates
    from bucket counts because the live registry cannot keep every
    sample), the summariser holds the full per-shard duration list, so
    it reports the exact percentile.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    position = q * (len(sorted_values) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    if lo == hi:
        return sorted_values[lo]
    fraction = position - lo
    return sorted_values[lo] * (1 - fraction) + sorted_values[hi] * fraction


def format_span_summary(
    records: List[Dict[str, object]], top: int = 10
) -> str:
    """Render the span-tree overview: totals, roots, slowest spans."""
    spans = span_records(records)
    lines: List[str] = []
    trace_ids = sorted({str(s.get("trace_id")) for s in spans})
    roots = [s for s in spans if s.get("parent_id") is None]
    known = {(s.get("trace_id"), s.get("span_id")) for s in spans}
    orphans = [
        s
        for s in spans
        if s.get("parent_id") is not None
        and (s.get("trace_id"), s.get("parent_id")) not in known
    ]
    lines.append(
        f"{len(records)} events, {len(spans)} spans, "
        f"{len(trace_ids)} trace(s), {len(roots)} root span(s), "
        f"{len(orphans)} orphan(s)"
    )
    for root in roots:
        lines.append(
            f"  root: {root.get('name')} "
            f"[trace {root.get('trace_id')}] "
            f"{float(root.get('duration_s', 0.0)) * 1e3:.1f} ms"
        )
    slowest = sorted(
        spans, key=lambda s: float(s.get("duration_s", 0.0)), reverse=True
    )[: max(0, top)]
    if slowest:
        lines.append(f"slowest {len(slowest)} span(s):")
        for s in slowest:
            attrs = s.get("attrs") or {}
            label = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            lines.append(
                f"  {float(s.get('duration_s', 0.0)) * 1e3:10.2f} ms  "
                f"{s.get('name')}  id={s.get('span_id')}"
                + (f"  ({label})" if label else "")
            )
    return "\n".join(lines)


def format_shard_table(
    records: List[Dict[str, object]], top: int = 10
) -> str:
    """Render the per-shard latency table plus exact p50/p95/p99."""
    shard_spans = [
        s for s in span_records(records) if s.get("name") == "shard_s"
    ]
    if not shard_spans:
        return "no shard spans recorded"
    durations = sorted(
        float(s.get("duration_s", 0.0)) for s in shard_spans
    )
    lines = [
        f"{len(shard_spans)} shard span(s): "
        f"p50 {exact_percentile(durations, 0.50) * 1e3:.2f} ms, "
        f"p95 {exact_percentile(durations, 0.95) * 1e3:.2f} ms, "
        f"p99 {exact_percentile(durations, 0.99) * 1e3:.2f} ms, "
        f"max {durations[-1] * 1e3:.2f} ms"
    ]
    slowest = sorted(
        shard_spans,
        key=lambda s: float(s.get("duration_s", 0.0)),
        reverse=True,
    )[: max(0, top)]
    lines.append(f"slowest {len(slowest)} shard(s):")
    for s in slowest:
        attrs = s.get("attrs") or {}
        lines.append(
            f"  shard {attrs.get('shard', '?'):>4}  "
            f"attempt {attrs.get('attempt', 1)}  "
            f"{float(s.get('duration_s', 0.0)) * 1e3:10.2f} ms  "
            f"pid {s.get('pid')}"
        )
    return "\n".join(lines)


def _format_reliability_report(records: List[Dict[str, object]]) -> str:
    """Render the retry/quarantine report from runtime trace events."""
    retries = [r for r in records if r.get("event") == "shard_retried"]
    quarantines = [
        r for r in records if r.get("event") == "shard_quarantined"
    ]
    lines = [
        f"{len(retries)} retry event(s), "
        f"{len(quarantines)} quarantined shard(s)"
    ]
    for r in retries:
        lines.append(
            f"  retry: shard {r.get('shard')} attempt {r.get('attempt')} "
            f"({r.get('reason')}), backoff {float(r.get('delay_s', 0)):.2f}s"
        )
    for r in quarantines:
        lines.append(
            f"  quarantined: shard {r.get('shard')} after "
            f"{r.get('attempts')} attempt(s) ({r.get('reason')})"
        )
    return "\n".join(lines)


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        records = read_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro obs: cannot read trace {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    print(format_span_summary(records, top=args.top))
    print()
    print(format_shard_table(records, top=args.top))
    print()
    print(_format_reliability_report(records))
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"repro obs: cannot read metrics {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        print()
        print(_format_metrics_headlines(metrics))
    return 0


def _format_metrics_headlines(metrics: Dict[str, object]) -> str:
    """The counters/gauges of a ``--metrics-out`` document, sorted."""
    lines = ["metrics:"]
    for name, value in sorted((metrics.get("counters") or {}).items()):
        lines.append(f"  counter {name} = {value}")
    for name, value in sorted((metrics.get("gauges") or {}).items()):
        lines.append(f"  gauge   {name} = {value:g}")
    for name, timer in sorted((metrics.get("timers") or {}).items()):
        lines.append(
            f"  timer   {name}: count={timer.get('count')} "
            f"mean={float(timer.get('mean', 0.0)):.6f}s"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def _cmd_inspect(args: argparse.Namespace) -> int:
    # Imported lazily: the obs layer must not depend on repro.runtime at
    # module level (runtime already depends on obs).
    from repro.runtime.checkpoint import CheckpointError, load_checkpoint

    try:
        loaded = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return 2
    fingerprint, records = loaded.fingerprint, loaded.records
    print(f"checkpoint: {args.checkpoint}")
    for field in (
        "kind", "seed", "total", "shard_size", "config_hash", "code_version"
    ):
        print(f"  {field:12s} = {fingerprint.get(field)}")
    total = int(fingerprint.get("total", 0) or 0)
    shard_size = int(fingerprint.get("shard_size", 1) or 1)
    planned = max(1, math.ceil(total / shard_size)) if total else len(records)
    done = sorted(records)
    missing = [i for i in range(planned) if i not in records]
    completeness = len(done) / planned if planned else 1.0
    print(
        f"  shards       = {len(done)}/{planned} complete "
        f"({completeness:.1%}), {loaded.discarded} corrupt record(s) discarded"
    )
    if loaded.duplicates or loaded.conflicts:
        # A run writes each index once and a resume rewrites away any
        # repeats, so repeated shard lines mean the file was pieced
        # together outside a run (say, two checkpoints concatenated).
        # Conflicting ones (same index, different digest) mean their
        # sources disagreed -- the loader kept the first valid record.
        print(
            f"  duplicates   = {loaded.duplicates} identical, "
            f"{loaded.conflicts} conflicting (first valid record kept)"
        )
    if missing:
        print(f"  missing      = {_compress_ranges(missing)}")
    return 0


def _compress_ranges(indices: List[int]) -> str:
    """Render sorted ints as compact ranges: ``0-2, 5, 7-9``."""
    parts: List[str] = []
    start: Optional[int] = None
    previous: Optional[int] = None
    for i in indices:
        if start is None:
            start = previous = i
            continue
        if i == (previous or 0) + 1:
            previous = i
            continue
        parts.append(str(start) if start == previous else f"{start}-{previous}")
        start = previous = i
    if start is not None:
        parts.append(str(start) if start == previous else f"{start}-{previous}")
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def format_metrics_diff(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = 0.10,
) -> Tuple[str, int]:
    """Compare two metrics snapshots; returns ``(report, flagged)``.

    ``flagged`` counts the timer means that moved by more than
    ``threshold`` in either direction -- the caller decides whether that
    is an error (the CI bench comparator has its own tolerance logic in
    ``tools/bench_snapshot.py``; this diff is a debugging view).
    """
    lines: List[str] = []
    flagged = 0
    base_counters = dict(baseline.get("counters") or {})
    cur_counters = dict(current.get("counters") or {})
    for name in sorted(set(base_counters) | set(cur_counters)):
        b = base_counters.get(name, 0)
        c = cur_counters.get(name, 0)
        if b != c:
            lines.append(f"  counter {name}: {b} -> {c} ({c - b:+d})")
    base_gauges = dict(baseline.get("gauges") or {})
    cur_gauges = dict(current.get("gauges") or {})
    for name in sorted(set(base_gauges) | set(cur_gauges)):
        b = base_gauges.get(name)
        c = cur_gauges.get(name)
        if b != c:
            lines.append(f"  gauge {name}: {b} -> {c}")
    base_timers = dict(baseline.get("timers") or {})
    cur_timers = dict(current.get("timers") or {})
    for name in sorted(set(base_timers) | set(cur_timers)):
        b = base_timers.get(name) or {}
        c = cur_timers.get(name) or {}
        b_mean = float(b.get("mean", 0.0) or 0.0)
        c_mean = float(c.get("mean", 0.0) or 0.0)
        if b_mean == c_mean:
            continue
        if b_mean > 0:
            ratio = c_mean / b_mean
            flag = ""
            if abs(ratio - 1.0) > threshold:
                flagged += 1
                flag = "  << beyond threshold"
            lines.append(
                f"  timer {name}: mean {b_mean:.6f}s -> {c_mean:.6f}s "
                f"(x{ratio:.2f}){flag}"
            )
        else:
            lines.append(
                f"  timer {name}: mean {b_mean:.6f}s -> {c_mean:.6f}s"
            )
    if not lines:
        return "no metric differences", 0
    return "\n".join(lines), flagged


def _cmd_diff(args: argparse.Namespace) -> int:
    documents = []
    for path in (args.baseline, args.current):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                documents.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"repro obs: cannot read metrics {path}: {exc}",
                  file=sys.stderr)
            return 2
    report, flagged = format_metrics_diff(
        documents[0], documents[1], threshold=args.threshold
    )
    print(f"diff {args.baseline} -> {args.current}:")
    print(report)
    if flagged:
        print(
            f"{flagged} timer(s) moved beyond the {args.threshold:.0%} "
            f"threshold"
        )
    return 0
