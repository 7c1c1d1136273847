"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
workloads run in this process at small sizes passed as arguments; the
``repro`` subprocesses (CLI, server) are the real ones.
"""

import itertools
import json
import os
import random
from pathlib import Path

import pytest

import hostspeed
import paced_cli
import run as bench
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SEED = 7

SMALL = {
    "fig7_mc": dict(systems=50_000, warmup_systems=5_000),
    "fig11_grid": dict(instructions=2_000, workloads=["mcf", "libquantum"],
                       cells_checked=1),
    "cli_all_quick": dict(),
    "serve_mixed": dict(specs=2, spec_systems=2_000, job_systems=20_000),
}


def test_small_sizes_cover_every_workload():
    assert set(SMALL) == set(workloads.WORKLOADS) == set(bench.WORKLOAD_NAMES)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)


@pytest.fixture(scope="module", params=sorted(SMALL))
def pair(request, tmp_path_factory):
    """One untraced and one traced small run of a workload."""
    name = request.param
    work = tmp_path_factory.mktemp(name)
    run_small = lambda tag, recorder: workloads.WORKLOADS[name](  # noqa: E731
        SEED, 0.3, workdir=work / tag, recorder=recorder, max_ops=1,
        **SMALL[name])
    plain = run_small("plain", None)
    traced = run_small("traced", spans.Recorder())
    return name, plain, traced, work


def test_every_listed_metric_is_printed_with_its_unit(pair):
    name, plain, traced, work = pair
    untraced_run = bench.Run(name, SEED, 0.3, trace=0)
    bench.end_to_end(untraced_run, [], workloads.result_doc(plain),
                     {m["name"]: m for m in SPEC["end_to_end"]})
    traced_run = bench.Run(name, SEED, 0.3, trace=1)
    bench.per_layer(traced_run, workloads.result_doc(plain),
                    workloads.result_doc(traced, work / "trace"),
                    {m["name"]: m for m in SPEC["per_layer"]})
    for run, listed in ((untraced_run, SPEC["end_to_end"]),
                        (traced_run, SPEC["per_layer"])):
        printed = {}
        for line in bench.lines(run):
            metric, value, unit = line.split(" ")
            printed[metric] = (float(value), unit)
        assert {m["name"]: m["unit"] for m in listed} == {
            k: unit for k, (_, unit) in printed.items()}
        assert not [f for f in run.failures if "not measured" in f]
    for metric in SPEC["end_to_end"]:
        assert untraced_run.metrics[metric["name"]][0] > 0
    assert (work / "trace" / "spans.jsonl").exists()
    assert json.loads((work / "trace" / "layers.json").read_text())[
        "coverage"] == pytest.approx(1.0, abs=bench.COVERAGE_TOLERANCE)


def test_traced_outputs_equal_untraced(pair):
    name, plain, traced, _ = pair
    assert plain.spans is None
    assert traced.spans
    assert plain.digest == traced.digest


def _span(span_id, parent, start, end, name="faultsim.sample", **counts):
    return {"name": name, "trace_id": "t", "span_id": span_id,
            "parent_id": parent, "start": start, "end": end, "attrs": {},
            "counts": counts}


def test_fold_subtracts_children_on_a_three_level_tree():
    tree = [
        _span("root", None, 0.0, 10.0, name="bench.fig7_mc"),
        # A second thread's root, overlapping the first for 2 s.
        _span("other", None, 8.0, 12.0, name="bench.client"),
        _span("a", "root", 1.0, 4.0, name="faultsim.simulate"),
        _span("b", "root", 3.0, 9.0, name="perfsim.simulate_system"),
        _span("b1", "b", 5.0, 7.0, name="perfsim.trace_gen",
              **{"perfsim.trace_builds": 2}),
        _span("a1", "a", 2.0, 3.0, **{"faultsim.tail_replays": 5}),
    ]
    own = spans.self_times(tree)
    # Overlapping children [1, 4] and [3, 9] cover [1, 9] once.
    assert own == {"root": 2.0, "other": 4.0, "a": 2.0, "b": 4.0,
                   "b1": 2.0, "a1": 1.0}
    folded = spans.fold(tree, wall_s=16.0)
    # Shares divide by the two threads' time, 10 + 4 s.
    assert folded["thread_s"] == 14.0
    assert folded["layers"]["perfsim"] == {
        "self_s": 6.0, "calls": 2, "share": 6.0 / 14.0}
    assert folded["layers"]["faultsim"]["self_s"] == 3.0
    assert folded["counts"] == {"perfsim.trace_builds": 2,
                                "faultsim.tail_replays": 5}
    # The roots cover [0, 12] once: 12 s of the 16 s traced.
    assert folded["coverage"] == pytest.approx(12.0 / 16.0)
    metrics = spans.layer_metrics(tree, wall_s=16.0)
    assert metrics["perfsim.event_loop_s"] == (4.0, "s")
    assert metrics["faultsim.sample_share"] == (1.0 / 14.0, "ratio")
    assert metrics["bench.self_s"] == (6.0, "s")
    assert metrics["bench.span_coverage"] == (0.75, "ratio")


def test_corrupt_cache_entry_under_live_server_counts_as_failed(tmp_path):
    out = workloads.Result()
    with workloads.Server(tmp_path) as server:
        client = workloads.Client(server.port)
        entries = workloads.populate(
            client, workloads._cache_specs(SEED, 2, 2_000), out)
        assert len(entries) == 2 and not out.failures
        entry = server.data_dir / "cache" / f"{entries[0]['fingerprint']}.json"
        entry.write_bytes(entry.read_bytes()[:-20])
        requests = itertools.count()
        workloads.hit_mix(client, entries, random.Random(SEED),
                          lambda: next(requests) >= 20, 0.0, out)
        client.close()
    assert out.failures and len(out.failures) / out.attempted > 0


def test_chunks_scale_by_the_probes_around_them():
    unprobed = hostspeed.Pacer(enabled=False)
    assert unprobed.time(lambda: 3) == 3
    raw, scaled = unprobed.since(0)
    assert raw == scaled
    # A host at half speed: a probe takes twice the reference time.
    slow = 2 * hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scale(4.0, slow, slow) == pytest.approx(2.0)
    # A 10 s invocation: two probes, one 6 s experiment already scaled
    # to 3 s, and the rest (start-up, imports) scaled by the first probe.
    raw, scaled = paced_cli.scaled_invocation(
        10.0, {"probes": [slow, slow], "chunks": [[6.0, 3.0]]})
    assert raw == pytest.approx(10.0 - 2 * slow)
    assert scaled == pytest.approx(3.0 + (raw - 6.0) / 2)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_probes_hold_the_gate_on_the_pinned_cpu(monkeypatch):
    before = os.sched_getaffinity(0)
    cpu = min(before)
    seen = []
    readings = iter([0.3, 0.1, 0.2])

    class Gate:
        def __enter__(self):
            seen.append("enter")

        def __exit__(self, *exc):
            seen.append("exit")

    def probe():
        seen.append(os.sched_getaffinity(0))
        return next(readings)

    monkeypatch.setattr(hostspeed, "probe", probe)
    pacer = hostspeed.Pacer(gate=Gate(), repeats=3, cpus={cpu})
    assert seen == ["enter", {cpu}, {cpu}, {cpu}, "exit"]
    assert pacer.probes == [0.2]
    assert os.sched_getaffinity(0) == before


def _results(path, values):
    runs = [{"workload": "fig7_mc", "metrics": {
        "p50_ms": {"value": p50, "unit": "ms"},
        "faultsim.tail_replays": {"value": replays, "unit": "count"}}}
        for p50, replays in values]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_flags_bound_breaches_and_count_changes(tmp_path, capsys):
    a = _results(tmp_path / "a.json", [(100.0, 7), (102.0, 7), (98.0, 7)])
    same = _results(tmp_path / "b.json", [(101.0, 7), (99.0, 7)])
    assert bench.compare(a, same) == 0
    slower = _results(tmp_path / "c.json", [(150.0, 7), (151.0, 8)])
    assert bench.compare(a, slower) == 1
    report = capsys.readouterr().out
    assert "beyond bound" in report and "count differs" in report
