"""The perf-regression ledger comparator (tools/bench_snapshot.py).

The acceptance property: a simulated >30% regression on a ratio
metric MUST fail the comparison, while jitter inside the band and
purely-informational wall metrics must not.  The comparator is pure
(snapshot dict in, verdict out), so no timing runs here.
"""

import copy
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_snapshot.py"
_spec = importlib.util.spec_from_file_location("bench_snapshot", _TOOL)
bench_snapshot = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_snapshot", bench_snapshot)
_spec.loader.exec_module(bench_snapshot)


def _snapshot(**overrides):
    metrics = {
        "ecc.batched_speedup": {
            "value": 20.0, "cls": "ratio", "better": "higher",
        },
        "faultsim.vectorized_speedup": {
            "value": 5.0, "cls": "ratio", "better": "higher",
        },
        "faultsim.scalar_s": {
            "value": 0.10, "cls": "wall", "better": "lower",
        },
    }
    for name, value in overrides.items():
        metrics[name] = dict(metrics[name], value=value)
    return {"kind": "bench_snapshot", "version": 1, "metrics": metrics}


class TestComparator:
    def test_clean_comparison_passes(self):
        base = _snapshot()
        _, regressions = bench_snapshot.compare_snapshots(
            base, copy.deepcopy(base)
        )
        assert regressions == []

    def test_simulated_35_percent_regression_fails(self):
        """The acceptance case: >30% speedup loss must be flagged."""
        base = _snapshot()
        bad = _snapshot(**{"faultsim.vectorized_speedup": 5.0 * 0.65})
        lines, regressions = bench_snapshot.compare_snapshots(
            base, bad, tolerance=0.30
        )
        assert regressions == ["faultsim.vectorized_speedup"]
        assert any("REGRESSION" in line for line in lines)

    def test_jitter_inside_the_band_passes(self):
        base = _snapshot()
        wobbly = _snapshot(**{"faultsim.vectorized_speedup": 5.0 * 0.75})
        _, regressions = bench_snapshot.compare_snapshots(
            base, wobbly, tolerance=0.30
        )
        assert regressions == []

    def test_speedup_improvement_never_flags(self):
        base = _snapshot()
        faster = _snapshot(**{"ecc.batched_speedup": 100.0})
        _, regressions = bench_snapshot.compare_snapshots(base, faster)
        assert regressions == []

    def test_wall_metrics_informational_by_default(self):
        base = _snapshot()
        slower = _snapshot(**{"faultsim.scalar_s": 10.0})  # 100x slower
        _, regressions = bench_snapshot.compare_snapshots(base, slower)
        assert regressions == []

    def test_wall_metrics_gated_under_include_wall(self):
        base = _snapshot()
        slower = _snapshot(**{"faultsim.scalar_s": 0.20})
        _, regressions = bench_snapshot.compare_snapshots(
            base, slower, tolerance=0.30, include_wall=True
        )
        assert regressions == ["faultsim.scalar_s"]

    def test_new_and_dropped_metrics_reported_not_flagged(self):
        base = _snapshot()
        cur = _snapshot()
        cur["metrics"]["brand.new_speedup"] = {
            "value": 1.0, "cls": "ratio", "better": "higher",
        }
        del cur["metrics"]["ecc.batched_speedup"]
        lines, regressions = bench_snapshot.compare_snapshots(base, cur)
        assert regressions == []
        assert any("new metric" in line for line in lines)
        assert any("dropped from current" in line for line in lines)


class TestSnapshotEnvelope:
    def test_make_snapshot_shape(self):
        snap = bench_snapshot.make_snapshot(
            {"m": {"value": 1.0, "cls": "ratio", "better": "higher"}}
        )
        assert snap["kind"] == "bench_snapshot"
        assert snap["version"] == bench_snapshot.SNAPSHOT_VERSION
        assert len(snap["stamp"]) == 8 and snap["stamp"].isdigit()
        assert "python" in snap["host"]
        assert snap["host"]["cpus"] == os.cpu_count()
        affinity = getattr(os, "sched_getaffinity", None)
        assert snap["host"]["affinity_cpus"] == (
            len(affinity(0)) if affinity else None
        )

    def test_find_latest_snapshot_orders_by_stamp(self, tmp_path):
        for stamp in ("20250101", "20260807", "20251231"):
            (tmp_path / f"BENCH_{stamp}.json").write_text("{}")
        latest = bench_snapshot.find_latest_snapshot(tmp_path)
        assert latest.name == "BENCH_20260807.json"

    def test_find_latest_snapshot_empty_dir(self, tmp_path):
        assert bench_snapshot.find_latest_snapshot(tmp_path) is None

    def test_committed_snapshot_exists_and_parses(self):
        """The ledger ships at least one committed baseline."""
        latest = bench_snapshot.find_latest_snapshot()
        assert latest is not None, "no BENCH_*.json committed"
        snap = json.loads(latest.read_text())
        assert snap["kind"] == "bench_snapshot"
        ratio_metrics = [
            name for name, m in snap["metrics"].items()
            if m["cls"] == "ratio"
        ]
        assert ratio_metrics, "baseline has no machine-portable metrics"


class TestCompareCli:
    def test_compare_against_self_passes(self, tmp_path, monkeypatch):
        """`compare --baseline <self-recorded>` must exit 0."""
        snap = _snapshot()
        path = tmp_path / "BENCH_20260808.json"
        path.write_text(json.dumps(snap))
        monkeypatch.setattr(
            bench_snapshot, "collect_metrics",
            lambda: copy.deepcopy(snap["metrics"]),
        )
        code = bench_snapshot.main(["compare", "--baseline", str(path)])
        assert code == 0

    def test_compare_regression_exits_one(self, tmp_path, monkeypatch, capsys):
        snap = _snapshot()
        path = tmp_path / "BENCH_20260808.json"
        path.write_text(json.dumps(snap))
        bad = _snapshot(**{"ecc.batched_speedup": 1.0})
        monkeypatch.setattr(
            bench_snapshot, "collect_metrics", lambda: bad["metrics"]
        )
        code = bench_snapshot.main(["compare", "--baseline", str(path)])
        assert code == 1
        assert "regressed beyond" in capsys.readouterr().out

    def test_compare_unreadable_baseline_exits_two(self, tmp_path):
        code = bench_snapshot.main(
            ["compare", "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2
