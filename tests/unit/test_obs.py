"""Unit tests for the observability layer (repro.obs)."""

import io
import json
import math

import pytest

from repro.obs import (
    OBS,
    CatchWordDetected,
    Counter,
    EventTrace,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProgressReporter,
    ReadClassified,
    ScrubPass,
    Timer,
    configure,
    events,
    read_jsonl,
    span,
    timed,
)


class TestCounter:
    def test_inc_and_reset(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_add(self):
        g = Gauge("g")
        g.set(2.5)
        g.add(-1.0)
        assert g.value == pytest.approx(1.5)


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1: 0.5 and 1.0; <=10: 5.0; <=100: 50.0; +Inf: 500.0
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.mean == pytest.approx(556.5 / 5)
        assert h.min == 0.5 and h.max == 500.0

    def test_to_dict_labels(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(3.0)
        d = h.to_dict()
        assert d["buckets"] == {"le=1": 0, "le=10": 1, "le=+Inf": 0}
        assert d["count"] == 1

    def test_empty_stats(self):
        d = Histogram("h", buckets=(1.0,)).to_dict()
        assert d["min"] is None and d["max"] is None and d["mean"] == 0.0

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        reg.counter("a").inc()
        assert reg.snapshot()["counters"]["a"] == 1

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.timer("t").observe(0.01)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["timers"]["t"]["count"] == 1
        # Must be JSON-serialisable as-is (the --metrics-out contract).
        json.dumps(snap)

    def test_dump_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        path = tmp_path / "m.json"
        reg.dump_json(str(path))
        assert json.loads(path.read_text())["counters"]["c"] == 7

    def test_reset_keeps_registrations(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.reset()
        assert reg.snapshot()["counters"]["c"] == 0
        assert len(reg) == 1


class TestEventTrace:
    def test_ring_buffer_eviction(self):
        trace = EventTrace(capacity=3)
        for chip in range(5):
            trace.record(CatchWordDetected(chip, 0, 0, 0))
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [e.chip for e in trace] == [2, 3, 4]

    def test_counts_by_kind(self):
        trace = EventTrace()
        trace.record(CatchWordDetected(0, 0, 0, 0))
        trace.record(ScrubPass(4, 4, 0, 0))
        trace.record(ScrubPass(4, 3, 1, 0))
        assert trace.counts_by_kind() == {
            "catch_word_detected": 1, "scrub_pass": 2,
        }

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace(capacity=2)
        trace.record(CatchWordDetected(3, 1, 2, 4))
        trace.record(
            ReadClassified(
                0, 1, 2, 3, "corrected", "corrected_erasure",
                granularities=["row"], chips=[3], permanent=True,
            )
        )
        trace.record(ScrubPass(10, 9, 1, 0))  # evicts the first event
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(str(path))

        # The meta line carries the eviction count.
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {
            "event": "trace_meta", "recorded": 2, "dropped": 1, "capacity": 2,
        }

        records = read_jsonl(str(path))
        assert [r["event"] for r in records] == ["read_classified", "scrub_pass"]
        assert records[0]["granularities"] == ["row"]
        assert all("ts" in r for r in records)

    def test_clear(self):
        trace = EventTrace(capacity=1)
        trace.record(ScrubPass(1, 1, 0, 0))
        trace.record(ScrubPass(1, 1, 0, 0))
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0


class TestRuntime:
    def test_disabled_by_default(self):
        # The library must be inert unless something opts in.
        import repro.obs.runtime as runtime

        assert runtime.Observability().enabled is False

    def test_emit_respects_switch(self):
        OBS.disable()
        OBS.emit(ScrubPass(1, 1, 0, 0))
        assert len(OBS.trace) == 0
        OBS.enable()
        OBS.emit(ScrubPass(1, 1, 0, 0))
        assert len(OBS.trace) == 1

    def test_span_disabled_records_nothing(self):
        OBS.disable()
        with span("span_disabled_s"):
            pass
        # The timer is never even registered while the switch is off.
        assert "span_disabled_s" not in OBS.registry.snapshot()["timers"]

    def test_span_enabled_records_duration(self):
        OBS.enable()
        with span("t"):
            pass
        timers = OBS.registry.snapshot()["timers"]
        assert timers["t"]["count"] == 1
        assert timers["t"]["sum"] >= 0.0

    def test_timed_decorator(self):
        calls = []

        @timed("f_s")
        def f(x):
            calls.append(x)
            return x * 2

        OBS.disable()
        assert f(2) == 4
        OBS.enable()
        assert f(3) == 6
        assert calls == [2, 3]
        assert OBS.registry.snapshot()["timers"]["f_s"]["count"] == 1

    def test_configure_enables_and_resets(self):
        OBS.enable()
        OBS.registry.counter("stale").inc()
        assert configure(metrics=True) is True
        assert OBS.enabled
        assert OBS.registry.snapshot()["counters"]["stale"] == 0
        assert configure() is False


class TestProgressReporter:
    def test_disabled_writes_nothing(self):
        stream = io.StringIO()
        reporter = ProgressReporter(10, "x", stream=stream, enabled=False)
        reporter.update(5)
        reporter.close()
        assert stream.getvalue() == ""

    def test_forced_draws_line_with_rate(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            10, "bench", stream=stream, enabled=True, min_interval_s=0.0
        )
        reporter.update(4)
        reporter.set(10)
        reporter.close()
        out = stream.getvalue()
        assert "bench: 10/10 (100.0%)" in out
        assert "/s" in out
        assert out.endswith("\n")

    def test_non_tty_uses_plain_mode(self):
        OBS.progress_enabled = True
        stream = io.StringIO()  # not a tty
        reporter = ProgressReporter(10, "x", stream=stream)
        assert reporter.enabled is True
        assert reporter.tty is False

    def test_non_tty_rate_limits_then_final_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            10, "x", stream=stream, enabled=True, fallback_interval_s=3600.0
        )
        reporter.update(3)
        reporter.update(4)
        assert stream.getvalue() == ""  # inside the rate-limit window
        reporter.close()
        out = stream.getvalue()
        assert out.count("\n") == 1  # exactly one final plain line
        assert "x: 7/10 (70.0%)" in out
        assert "\r" not in out  # no control characters in logs

    def test_non_tty_interval_elapsed_emits_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            10, "x", stream=stream, enabled=True, fallback_interval_s=0.0
        )
        reporter.update(2)
        reporter.update(3)
        reporter.close()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 3
        assert "x: 2/10" in lines[0]
        assert "x: 5/10" in lines[1]
        assert "x: 5/10" in lines[2]

    def test_non_tty_empty_run_stays_silent(self):
        stream = io.StringIO()
        with ProgressReporter(0, "x", stream=stream, enabled=True):
            pass
        assert stream.getvalue() == ""
