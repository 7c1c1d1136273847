"""Trace-tree semantics: deterministic span IDs across worker counts.

The load-bearing property is that one campaign run yields the *same*
span tree whether its shards execute in-process or on a pool of worker
processes -- span IDs derive from the shard plan, never from
scheduling.  These tests assert that directly (workers=1 vs workers=4
simulate runs), plus the dotted-ID allocation rules, cross-process
``TraceContext`` grafting, root reachability, and the Chrome
trace-event export.
"""

import json

from numpy.testing import assert_array_equal

from repro.obs import (
    OBS,
    EventTrace,
    TraceContext,
    current_context,
    shard_span,
    span,
    span_records,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import read_jsonl


def _spans():
    return span_records(OBS.trace.to_records())


class TestSpanIds:
    def test_root_is_zero_children_are_ordinals(self):
        OBS.enable()
        with span("root_s"):
            with span("child_s"):
                pass
            with span("child_s"):
                pass
        by_name = {}
        for s in _spans():
            by_name.setdefault(s["name"], []).append(s)
        assert by_name["root_s"][0]["span_id"] == "0"
        assert by_name["root_s"][0]["parent_id"] is None
        assert [s["span_id"] for s in by_name["child_s"]] == ["0.1", "0.2"]
        assert all(s["parent_id"] == "0" for s in by_name["child_s"])

    def test_nested_ids_extend_the_dotted_path(self):
        OBS.enable()
        with span("a_s"):
            with span("b_s"):
                with span("c_s"):
                    ctx = current_context()
                    assert ctx.span_id == "0.1.1"
        ids = {s["name"]: s["span_id"] for s in _spans()}
        assert ids == {"a_s": "0", "b_s": "0.1", "c_s": "0.1.1"}

    def test_ordinals_reset_between_traces(self):
        OBS.enable()
        with span("first_s"):
            with span("inner_s"):
                pass
        with span("second_s"):
            with span("inner_s"):
                pass
        inner_ids = [
            s["span_id"] for s in _spans() if s["name"] == "inner_s"
        ]
        # Both traces allocate "0.1" -- the first root's close purged
        # its ordinal counters.
        assert inner_ids == ["0.1", "0.1"]
        trace_ids = {s["trace_id"] for s in _spans()}
        assert len(trace_ids) == 2

    def test_disabled_span_yields_none_and_records_nothing(self):
        OBS.disable()
        with span("quiet_s") as ctx:
            assert ctx is None
            assert current_context() is None
        assert _spans() == []

    def test_current_context_outside_any_span(self):
        OBS.enable()
        assert current_context() is None

    def test_attrs_survive_into_the_record(self):
        OBS.enable()
        with span("labelled_s", scheme="xed", systems=5):
            pass
        (s,) = _spans()
        assert s["attrs"] == {"scheme": "xed", "systems": 5}


class TestShardSpan:
    def test_shard_ids_come_from_the_plan(self):
        OBS.enable()
        with span("run_s") as ctx:
            for i in (2, 0, 1):  # completion order must not matter
                with shard_span(ctx, i):
                    pass
        ids = sorted(
            s["span_id"] for s in _spans() if s["name"] == "shard_s"
        )
        assert ids == ["0.s0", "0.s1", "0.s2"]

    def test_retry_attempt_suffix(self):
        OBS.enable()
        with span("run_s") as ctx:
            with shard_span(ctx, 3, attempt=2):
                pass
        (s,) = [s for s in _spans() if s["name"] == "shard_s"]
        assert s["span_id"] == "0.s3a2"
        assert s["attrs"] == {"shard": 3, "attempt": 2}

    def test_context_grafts_across_pickling(self):
        """A shipped TraceContext parents worker spans into the tree."""
        import pickle

        OBS.enable()
        with span("parent_s") as ctx:
            shipped = pickle.loads(pickle.dumps(ctx))
        assert shipped == TraceContext(ctx.trace_id, "0")
        with shard_span(shipped, 7):
            pass
        (s,) = [s for s in _spans() if s["name"] == "shard_s"]
        assert s["trace_id"] == ctx.trace_id
        assert s["parent_id"] == "0"
        assert s["span_id"] == "0.s7"

    def test_no_context_roots_its_own_trace(self):
        OBS.enable()
        with shard_span(None, 0):
            pass
        (s,) = _spans()
        assert s["parent_id"] is None
        assert s["span_id"] == "0"


def _normalise(records):
    """Strip timing/process fields so trees compare structurally."""
    tree = []
    for s in span_records(records):
        attrs = dict(s.get("attrs") or {})
        attrs.pop("workers", None)  # legitimate config difference
        tree.append(
            {
                "name": s["name"],
                "span_id": s["span_id"],
                "parent_id": s["parent_id"],
                "attrs": attrs,
            }
        )
    tree.sort(key=lambda s: s["span_id"])
    return tree


def _assert_rooted(records):
    """Every span's parent chain must reach a root in the same trace."""
    spans = span_records(records)
    by_id = {(s["trace_id"], s["span_id"]): s for s in spans}
    for s in spans:
        node = s
        hops = 0
        while node["parent_id"] is not None:
            key = (node["trace_id"], node["parent_id"])
            assert key in by_id, f"orphan span {node['span_id']}"
            node = by_id[key]
            hops += 1
            assert hops < 100
        assert node["parent_id"] is None


def _simulate_trace(workers):
    from repro.faultsim import MonteCarloConfig, XedScheme, simulate

    OBS.reset()
    OBS.enable()
    config = MonteCarloConfig(
        num_systems=2000, years=2.0, seed=7, scaling_rate=2.0,
        faultsim_backend="vectorized",
    )
    result = simulate(
        XedScheme(), config, workers=workers, shard_size=500
    )
    return result, OBS.trace.to_records()


class TestCrossProcessTree:
    def test_tree_identical_for_one_and_four_workers(self):
        result_1, records_1 = _simulate_trace(workers=1)
        result_4, records_4 = _simulate_trace(workers=4)
        assert_array_equal(
            result_1.failure_times_hours, result_4.failure_times_hours
        )
        tree_1, tree_4 = _normalise(records_1), _normalise(records_4)
        assert tree_1 == tree_4
        shard_ids = [
            s["span_id"] for s in tree_1 if s["name"] == "shard_s"
        ]
        assert shard_ids == ["0.s0", "0.s1", "0.s2", "0.s3"]
        _assert_rooted(records_1)
        _assert_rooted(records_4)

    def test_single_trace_single_root(self):
        _, records = _simulate_trace(workers=4)
        spans = span_records(records)
        assert len({s["trace_id"] for s in spans}) == 1
        roots = [s for s in spans if s["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "faultsim.simulate"


class TestChromeExport:
    def test_export_shape(self):
        OBS.enable()
        with span("run_s") as ctx:
            with shard_span(ctx, 0):
                pass
        doc = to_chrome_trace(OBS.trace.to_records())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["spans"] == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]
        shard = [
            e for e in doc["traceEvents"]
            if e["args"]["span_id"] == "0.s0"
        ]
        assert shard and shard[0]["args"]["parent_id"] == "0"

    def test_write_is_valid_json_and_roundtrips(self, tmp_path):
        OBS.enable()
        with span("run_s") as ctx:
            with shard_span(ctx, 1):
                pass
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), OBS.trace.to_records())
        assert count == 2
        doc = json.loads(out.read_text())
        assert len(doc["traceEvents"]) == 2

    def test_exporter_accepts_parsed_jsonl(self, tmp_path):
        OBS.enable()
        with span("run_s"):
            pass
        path = tmp_path / "t.jsonl"
        OBS.trace.write_jsonl(str(path))
        doc = to_chrome_trace(read_jsonl(str(path)))
        assert [e["name"] for e in doc["traceEvents"]] == ["run_s"]


class TestSpanTimerContract:
    def test_span_still_feeds_the_timer_histogram(self):
        """The PR-1 contract: span() observes into the name's timer."""
        OBS.enable()
        with span("contract_s"):
            pass
        timers = OBS.registry.snapshot()["timers"]
        assert timers["contract_s"]["count"] == 1

    def test_trace_capacity_still_applies(self):
        OBS.enabled = False
        OBS.trace = EventTrace(capacity=4)
        OBS.enable()
        with span("outer_s"):
            for _ in range(10):
                with span("inner_s"):
                    pass
        assert len(OBS.trace) == 4
