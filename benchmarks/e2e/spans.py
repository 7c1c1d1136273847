"""Spans recorded around calls into the repro layers, and their fold.

The benchmark times layers from outside the program.  A traced run
replaces a fixed set of the layers' functions and methods with
wrappers (:func:`layer_wrappers`) that open a span around each call and
count a few events on the enclosing span.  Spans live in memory and are
written out when the run ends.  :func:`fold` turns them into self times
(a span's duration minus the part of it its children cover), and
:func:`layer_metrics` names the per-layer numbers ``BENCHMARK.json``
lists.

Layers are named after the package's modules: ``faultsim``,
``perfsim``, ``ecc``, ``analysis``, ``cli``, ``runtime``, ``obs`` and
``service``.  ``bench`` is the harness itself (the client of the
service, the parent of a CLI subprocess).

A span is a dict with ``name``, ``trace_id``, ``span_id``,
``parent_id``, ``start``/``end`` (``time.perf_counter`` seconds, which
is CLOCK_MONOTONIC on Linux and so comparable between processes on one
host), ``attrs`` and ``counts``.  Span IDs carry the process ID, so the
spans of the harness, a server and a CLI subprocess can be merged into
one list.  A stack per thread gives each thread its own tree; an HTTP
request starts a new trace on the server, joined to the client's
request span through the :data:`TRACE_HEADER` header.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import statistics
import threading
import uuid
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

LAYERS = (
    "faultsim", "perfsim", "ecc", "analysis", "cli", "runtime", "obs",
    "service", "bench",
)

#: The experiments ``repro all`` runs, in its order.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4",
    "fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14",
)

#: Schemes whose sampling and adjudication time is reported separately.
SCHEME_KEYS = {
    "EccDimmScheme": "ecc_dimm", "XedScheme": "xed",
    "ChipkillScheme": "chipkill",
}

#: Request header (``<trace_id>/<span_id>``) that parents a server-side
#: request span under the client span that sent it.
TRACE_HEADER = "X-Bench-Trace"

#: Environment variable with the same value, for a CLI subprocess.
TRACE_ENV = "BENCH_TRACE_PARENT"

Span = Dict[str, object]


def parse_parent(value: Optional[str]) -> Optional[Tuple[str, str]]:
    """``"<trace_id>/<span_id>"`` as a pair, or ``None``."""
    if not value or "/" not in value:
        return None
    trace_id, span_id = value.split("/", 1)
    return trace_id, span_id


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(
        self, name: str, parent: Optional[Tuple[str, str]] = None, **attrs
    ) -> Iterator[Span]:
        """Record one span; ``parent`` joins a trace begun elsewhere.

        ``parent`` only applies when no span is open on this thread;
        otherwise the innermost open span is the parent.
        """
        stack = self._stack()
        if stack:
            trace_id, parent_id = stack[-1]["trace_id"], stack[-1]["span_id"]
        elif parent is not None:
            trace_id, parent_id = parent
        else:
            trace_id, parent_id = uuid.uuid4().hex, None
        record: Span = {
            "name": name,
            "trace_id": trace_id,
            "span_id": f"{self._pid}.{next(self._ids)}",
            "parent_id": parent_id,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
            "counts": {},
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a count on the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            _add(stack[-1], key, amount)


def write_spans(path: str, records: List[Span]) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: str) -> List[Span]:
    """Spans written by :func:`write_spans`."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def span_or_null(recorder: Optional[Recorder], name: str, **attrs):
    """``recorder.span(...)``, or a no-op context without a recorder."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, **attrs)


def _add(record: Span, key: str, amount: int) -> None:
    counts = record["counts"]
    counts[key] = counts.get(key, 0) + amount


def _scheme(scheme: object) -> str:
    name = type(scheme).__name__
    return SCHEME_KEYS.get(name, name)


# -- wrappers -----------------------------------------------------------


def _spanned(
    rec: Recorder,
    name: str,
    attrs: Optional[Callable[..., dict]] = None,
    after: Optional[Callable[[Span, object], None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrapper factory: a span ``name`` around every call."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with rec.span(name, **extra) as record:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result

        return wrapper

    return make


def _counted(
    rec: Recorder, key: str, amount: Callable[[object], int] = lambda r: 1
) -> Callable[[Callable], Callable]:
    """Wrapper factory: count calls (or ``amount(result)``), no span."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.count(key, amount(result))
            return result

        return wrapper

    return make


def _trace_builds(rec: Recorder, cached: Callable) -> Callable:
    """Span trace generation; count the LRU cache's misses as builds."""

    @functools.wraps(cached)
    def wrapper(*args, **kwargs):
        with rec.span("perfsim.trace_gen") as record:
            before = cached.cache_info().misses
            result = cached(*args, **kwargs)
            _add(record, "perfsim.trace_builds",
                 cached.cache_info().misses - before)
            return result

    return wrapper


def _http(rec: Recorder, fn: Callable) -> Callable:
    """One new trace per HTTP request, joined to the client's span."""

    @functools.wraps(fn)
    def wrapper(handler):
        parent = parse_parent(handler.headers.get(TRACE_HEADER))
        with rec.span("service.http", parent=parent, method=handler.command):
            return fn(handler)

    return wrapper


def _requests(record: Span, result) -> None:
    _add(record, "perfsim.requests",
         result.reads + result.writes
         + result.companion_reads + result.companion_writes)


def _queued(record: Span, result) -> None:
    job, created = result
    record["attrs"].update(job_id=job.job_id, created=created)


@contextlib.contextmanager
def layer_wrappers(rec: Recorder) -> Iterator[Recorder]:
    """Install the layer wrappers for the ``with`` block, then restore.

    Each entry patches one attribute where its callers look it up: a
    module global for functions other modules import by name (for
    example ``simulator.adjudicate_shard``), the class for methods.
    """
    import repro.analysis.experiments as experiments
    import repro.faultsim.injector as injector
    import repro.faultsim.simulator as simulator
    import repro.faultsim.vectorized as vectorized
    import repro.obs.events as events
    import repro.perfsim.pipeline as pipeline
    import repro.perfsim.power as power
    import repro.perfsim.runner as runner
    import repro.runtime.checkpoint as checkpoint
    import repro.service.app as app
    import repro.service.cache as cache
    import repro.service.jobstore as jobstore
    import repro.service.spec as spec

    def method(name: str):
        return lambda self, *a, **k: {"method": name}

    patches = [
        (injector.FaultSampler, "sample_shard_arrays", _spanned(
            rec, "faultsim.sample",
            attrs=lambda self, *a, **k: {"scheme": _scheme(self.scheme)},
            after=lambda r, res: _add(
                r, "faultsim.systems_selected", res.num_selected),
        )),
        (simulator, "adjudicate_shard", _spanned(
            rec, "faultsim.adjudicate",
            attrs=lambda scheme, *a, **k: {"scheme": _scheme(scheme)},
            after=lambda r, res: _add(
                r, "faultsim.failures", len(res.failure_times)),
        )),
        (vectorized, "system_rng", _counted(rec, "faultsim.tail_replays")),
        (simulator.ReliabilityResult, "merge",
         _spanned(rec, "faultsim.merge")),
        (pipeline, "build_trace_arrays",
         lambda fn: _trace_builds(rec, fn)),
        (runner, "simulate_system", _spanned(
            rec, "perfsim.simulate_system", after=_requests)),
        (power.PowerModel, "compute", _spanned(rec, "perfsim.power")),
        (experiments, "detection_table",
         _spanned(rec, "ecc.detection_table")),
        (experiments, "run_experiment", _spanned(
            rec, "analysis.run_experiment",
            attrs=lambda exp_id, *a, **k: {"id": exp_id},
        )),
        (simulator, "run_resilient", _spanned(rec, "runtime.execute")),
        (checkpoint.CheckpointStore, "add",
         _spanned(rec, "runtime.checkpoint_append")),
        (checkpoint.ShardRecord, "to_line", _counted(
            rec, "runtime.checkpoint_bytes", lambda line: len(line) + 1)),
        (events.EventTrace, "to_records", _spanned(
            rec, "obs.capture",
            after=lambda r, res: _add(r, "obs.captured_records", len(res)),
        )),
        (app._ServiceHandler, "do_GET", lambda fn: _http(rec, fn)),
        (app._ServiceHandler, "do_POST", lambda fn: _http(rec, fn)),
        (spec.ExperimentSpec, "from_dict", _spanned(rec, "service.spec")),
        (spec.ExperimentSpec, "fingerprint", _spanned(rec, "service.spec")),
        (cache.ResultCache, "get", _spanned(rec, "service.cache_read")),
        (cache.ResultCache, "put", _spanned(rec, "service.cache_write")),
        (jobstore.JobStore, "submit", _spanned(
            rec, "service.queue_submit", after=_queued)),
        (jobstore.JobStore, "begin_run", _spanned(
            rec, "service.queue_begin",
            attrs=lambda self, job, *a, **k: {"job_id": job.job_id},
        )),
    ]
    patches += [
        (app.CampaignService, name,
         _spanned(rec, "service.handler", attrs=method(name)))
        for name in ("submit", "job_status", "job_result", "cache_lookup")
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- fold -----------------------------------------------------------------


def within(spans: List[Span], start: float, end: float) -> List[Span]:
    """The spans that began and ended inside ``[start, end]``."""
    return [s for s in spans if s["start"] >= start and s["end"] <= end]


def covered(
    spans: List[Span], lo: float = -math.inf, hi: float = math.inf
) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted((s["start"], s["end"]) for s in spans):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time per span ID: duration minus the union of its children.

    Children are clipped to their parent's interval, and overlapping
    children (a parent whose children ran on several threads) count
    once, so a span's self time is never negative.
    """
    ids = {s["span_id"] for s in spans}
    children: Dict[str, List[Span]] = {}
    for s in spans:
        if s["parent_id"] in ids:
            children.setdefault(s["parent_id"], []).append(s)
    return {
        s["span_id"]: (s["end"] - s["start"])
        - covered(children.get(s["span_id"], []), s["start"], s["end"])
        for s in spans
    }


def fold(spans: List[Span], wall_s: float) -> Dict[str, object]:
    """Per-layer and per-span-name self time, call counts and shares.

    ``coverage`` is the time the root spans cover (their union) over
    ``wall_s``, the traced run's wall time: below 1 when part of the
    timed run lies outside every span.  ``thread_s`` is the sum of the
    root spans' durations, which counts concurrent threads (two client
    connections, a server job thread) once each; ``share`` is self time
    over it, so that the shares add up to about 1.  On a workload with
    one thread ``thread_s`` is the traced wall time.
    """
    own = self_times(spans)
    ids = set(own)
    roots = [s for s in spans if s["parent_id"] not in ids]
    thread_s = math.fsum(s["end"] - s["start"] for s in roots)
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    names: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for s in spans:
        layer = layers.setdefault(
            s["name"].split(".", 1)[0], {"self_s": 0.0, "calls": 0}
        )
        layer["self_s"] += own[s["span_id"]]
        layer["calls"] += 1
        entry = names.setdefault(
            s["name"], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        entry["self_s"] += own[s["span_id"]]
        entry["total_s"] += s["end"] - s["start"]
        entry["calls"] += 1
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for layer in layers.values():
        layer["share"] = layer["self_s"] / thread_s if thread_s > 0 else 0.0
    return {
        "wall_s": wall_s,
        "thread_s": thread_s,
        "coverage": covered(roots) / wall_s if wall_s > 0 else 0.0,
        "layers": layers,
        "spans": names,
        "counts": counts,
    }


def layer_metrics(
    spans: List[Span], wall_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every span-derived per-layer metric as ``{name: (value, unit)}``.

    Metrics measured outside spans (``cli.import_s``, the cache hit
    counters, the tracing overhead) are added by the caller.
    """
    own = self_times(spans)
    folded = fold(spans, wall_s)
    counts = folded["counts"]
    thread_s = folded["thread_s"]

    def self_s(name: str, **match) -> float:
        return math.fsum(
            own[s["span_id"]] for s in spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())
        )

    def share(seconds: float) -> float:
        return seconds / thread_s if thread_s > 0 else 0.0

    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (folded["layers"][layer]["self_s"], "s")
    for what, name in (("sample", "faultsim.sample"),
                       ("adjudicate", "faultsim.adjudicate")):
        total = self_s(name)
        out[f"faultsim.{what}_s"] = (total, "s")
        for key in SCHEME_KEYS.values():
            out[f"faultsim.{what}_s.{key}"] = (self_s(name, scheme=key), "s")
        out[f"faultsim.{what}_share"] = (share(total), "ratio")
    for key in ("tail_replays", "systems_selected", "failures"):
        out[f"faultsim.{key}"] = (counts.get(f"faultsim.{key}", 0), "count")
    out["faultsim.merge_s"] = (self_s("faultsim.merge"), "s")

    trace_gen = self_s("perfsim.trace_gen")
    event_loop = self_s("perfsim.simulate_system")
    requests = counts.get("perfsim.requests", 0)
    out["perfsim.trace_gen_s"] = (trace_gen, "s")
    out["perfsim.trace_gen_share"] = (share(trace_gen), "ratio")
    out["perfsim.trace_builds"] = (counts.get("perfsim.trace_builds", 0),
                                   "count")
    out["perfsim.event_loop_s"] = (event_loop, "s")
    out["perfsim.event_loop_share"] = (share(event_loop), "ratio")
    out["perfsim.requests"] = (requests, "count")
    out["perfsim.host_us_per_request"] = (
        event_loop / requests * 1e6 if requests else 0.0, "us")
    out["perfsim.power_s"] = (self_s("perfsim.power"), "s")

    detection = self_s("ecc.detection_table")
    out["ecc.detection_table_s"] = (detection, "s")
    out["ecc.detection_table_share"] = (share(detection), "ratio")
    for exp_id in EXPERIMENT_IDS:
        out[f"analysis.experiment_s.{exp_id}"] = (math.fsum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "analysis.run_experiment"
            and s["attrs"].get("id") == exp_id
        ), "s")

    out["runtime.execute_s"] = (self_s("runtime.execute"), "s")
    out["runtime.checkpoint_append_s"] = (
        self_s("runtime.checkpoint_append"), "s")
    out["runtime.checkpoint_bytes"] = (
        counts.get("runtime.checkpoint_bytes", 0), "count")
    capture = self_s("obs.capture")
    out["obs.capture_s"] = (capture, "s")
    out["obs.capture_share"] = (share(capture), "ratio")
    out["obs.captured_records"] = (counts.get("obs.captured_records", 0),
                                   "count")

    for what, name in (("http", "service.http"),
                       ("handler", "service.handler"),
                       ("spec", "service.spec"),
                       ("cache_read", "service.cache_read"),
                       ("cache_write", "service.cache_write")):
        out[f"service.{what}_s"] = (self_s(name), "s")
    transport = [own[s["span_id"]] for s in spans
                 if s["name"] == "service.transport"]
    out["service.transport_ms_mean"] = (
        statistics.fmean(transport) * 1e3 if transport else 0.0, "ms")
    out["service.queue_wait_s"] = (_queue_wait(spans), "s")

    out["bench.trace_wall_s"] = (wall_s, "s")
    out["bench.span_coverage"] = (folded["coverage"], "ratio")
    return out


def _queue_wait(spans: List[Span]) -> float:
    """Mean time from a job's creation to the start of its run."""
    submitted = {
        s["attrs"]["job_id"]: s["end"] for s in spans
        if s["name"] == "service.queue_submit" and s["attrs"].get("created")
    }
    waits = [
        s["start"] - submitted[s["attrs"]["job_id"]] for s in spans
        if s["name"] == "service.queue_begin"
        and s["attrs"]["job_id"] in submitted
    ]
    return statistics.fmean(waits) if waits else 0.0
