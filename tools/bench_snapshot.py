#!/usr/bin/env python
"""Perf-regression ledger: record and compare benchmark snapshots.

The ledger keeps the reproduction's performance honest across PRs.
``record`` times a small fixed set of hot paths (scalar ECC decode,
batched ECC decode, scalar and vectorized Monte-Carlo adjudication,
the analytical Markov solver vs vectorized Monte-Carlo on the full
Fig-7 sweep, the scalar vs event-driven pipeline perfsim engines
on a Fig-11 cell, the distributed coordinator's merge throughput
over loopback workers, and the telemetry bytes each shard record of
a checkpointed, telemetry-scoped Monte-Carlo run carries) and writes a
``BENCH_<stamp>.json`` snapshot into ``benchmarks/snapshots/``; one
snapshot per landed optimisation is committed alongside the code.
``compare`` re-times the same paths and diffs them against the latest
committed snapshot (or an explicit baseline), failing when a metric
regresses beyond the tolerance band.

Metrics come in two classes:

``ratio``
    Machine-independent speedups (batched over scalar ECC, vectorized
    over scalar faultsim) and deterministic sizes (the telemetry bytes
    per checkpointed shard record).  These are compared by default: a
    committed baseline from one host is a meaningful bound on another.

``wall``
    Raw wall-clock seconds.  Recorded for the ledger's history but
    only compared under ``--include-wall``, since absolute times move
    with the host.

Usage::

    PYTHONPATH=src python tools/bench_snapshot.py record [--out DIR]
    PYTHONPATH=src python tools/bench_snapshot.py compare \
        [--baseline PATH] [--tolerance 0.30] [--include-wall]

Exit codes: 0 clean, 1 regression beyond tolerance, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_DIR = REPO_ROOT / "benchmarks" / "snapshots"

#: Fraction a ratio metric may drop (or a wall metric may rise) before
#: the comparator flags it.  Deliberately generous: the ledger exists
#: to catch order-of-magnitude mistakes (a vectorised kernel silently
#: falling back to its scalar replay), not scheduler jitter.
DEFAULT_TOLERANCE = 0.30

#: Snapshot schema version, bumped when the metric set changes shape.
SNAPSHOT_VERSION = 1


def _time_call(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_ecc(num_words: int = 4096) -> Dict[str, Dict[str, object]]:
    """Time scalar vs batched SECDED decode over one word batch."""
    import numpy as np

    from repro.ecc import HammingSECDED

    code = HammingSECDED()
    rng = np.random.default_rng(2016)
    data = rng.integers(0, 2, size=(num_words, code.batched().k),
                        dtype=np.uint8)
    batched = code.batched()
    codewords = batched.encode(data)
    scalar_words = [int("".join(map(str, row[::-1])), 2)
                    for row in codewords[:512]]

    def scalar_decode() -> None:
        for w in scalar_words:
            code.decode(w)

    scalar_s = _time_call(scalar_decode)
    batched_s = _time_call(lambda: batched.decode(codewords))
    # Normalise to per-word cost before forming the speedup: the
    # scalar loop only walks 512 words, the batch decodes num_words.
    scalar_per_word = scalar_s / len(scalar_words)
    batched_per_word = batched_s / num_words
    return {
        "ecc.scalar_decode_s": {
            "value": scalar_s, "cls": "wall", "better": "lower",
        },
        "ecc.batched_decode_s": {
            "value": batched_s, "cls": "wall", "better": "lower",
        },
        "ecc.batched_speedup": {
            "value": scalar_per_word / max(batched_per_word, 1e-12),
            "cls": "ratio", "better": "higher",
        },
    }


def _bench_faultsim(num_systems: int = 50_000) -> Dict[str, Dict[str, object]]:
    """Time the ``scheme.evaluate`` reference vs vectorized Monte-Carlo."""
    from repro.faultsim import MonteCarloConfig, XedScheme, simulate
    from repro.faultsim.differential import reference_simulate

    config = MonteCarloConfig(
        num_systems=num_systems, years=2.0, seed=2016, scaling_rate=2.0,
    )
    scalar_s = _time_call(
        lambda: reference_simulate(XedScheme(), config), repeats=2
    )
    vector_s = _time_call(lambda: simulate(XedScheme(), config), repeats=2)
    return {
        "faultsim.scalar_s": {
            "value": scalar_s, "cls": "wall", "better": "lower",
        },
        "faultsim.vectorized_s": {
            "value": vector_s, "cls": "wall", "better": "lower",
        },
        "faultsim.vectorized_speedup": {
            "value": scalar_s / max(vector_s, 1e-12),
            "cls": "ratio", "better": "higher",
        },
    }


def _bench_markov(num_systems: int = 4_000_000) -> Dict[str, Dict[str, object]]:
    """Time the analytical Markov solver vs vectorized Monte-Carlo.

    The workload is the full Fig-7 sweep (ECC-DIMM, XED, Chipkill) at
    the committed full-scale figure population: the closed-form solver
    answers it in milliseconds while the sampler pays per system, so
    the ratio is the ledger's guard against the solver silently
    regressing into per-system work.  The Monte-Carlo leg is timed
    once (it runs ~1 s; its jitter is small relative to the 20x-scale
    ratio and the comparator's tolerance band).
    """
    from repro.faultsim import (
        ChipkillScheme,
        EccDimmScheme,
        MonteCarloConfig,
        XedScheme,
        simulate,
    )

    schemes = [EccDimmScheme(), XedScheme(), ChipkillScheme()]

    def run(backend: str) -> None:
        config = MonteCarloConfig(
            num_systems=num_systems, seed=2016, faultsim_backend=backend,
        )
        for scheme in schemes:
            simulate(scheme, config)

    run("analytical")  # warm the geometry/SDC-fraction caches
    analytical_s = _time_call(lambda: run("analytical"))
    vectorized_s = _time_call(lambda: run("vectorized"), repeats=1)
    return {
        "faultsim.analytical_sweep_s": {
            "value": analytical_s, "cls": "wall", "better": "lower",
        },
        "faultsim.analytical_sweep_speedup": {
            "value": vectorized_s / max(analytical_s, 1e-12),
            "cls": "ratio", "better": "higher",
        },
    }


def _bench_perfsim(instructions: int = 50_000) -> Dict[str, Dict[str, object]]:
    """Time the scalar vs event-driven pipeline perfsim engines.

    One memory-heavy Fig-11 cell (mcf under XED) per timing, trace
    cache warmed first so the ratio tracks the event loop itself.  The
    two engines are bit-identical (enforced by the golden corpus and
    ``repro.perfsim.differential``), so the ratio is the ledger's guard
    against the pipeline backend silently losing its constant-factor
    win over the golden scalar walk (~4x in-process; grid fan-out and
    trace-cache amortisation compound it at paper scale).
    """
    from repro.perfsim import SCHEME_CONFIGS, SystemTiming, simulate_system
    from repro.perfsim.workloads import workload_by_name

    workload = workload_by_name("mcf")
    config = SCHEME_CONFIGS["xed"]
    system = SystemTiming()

    def run(backend: str) -> None:
        simulate_system(workload, config, system, instructions,
                        backend=backend)

    run("pipeline")  # warm the shared trace cache
    pipeline_s = _time_call(lambda: run("pipeline"))
    scalar_s = _time_call(lambda: run("scalar"), repeats=2)
    return {
        "perfsim.scalar_s": {
            "value": scalar_s, "cls": "wall", "better": "lower",
        },
        "perfsim.pipeline_s": {
            "value": pipeline_s, "cls": "wall", "better": "lower",
        },
        "perfsim.pipeline_speedup": {
            "value": scalar_s / max(pipeline_s, 1e-12),
            "cls": "ratio", "better": "higher",
        },
    }


def _bench_distributed(
    num_systems: int = 40_000, shard_size: int = 2_500, workers: int = 4
) -> Dict[str, Dict[str, object]]:
    """Time the distributed coordinator merging from loopback workers.

    One coordinator (main thread) serves the shard plan to ``workers``
    loopback worker threads; the metric is end-to-end merged shards
    per second, covering lease granting, the wire protocol, digest
    re-verification and the merge.  Wall-class (``better: higher``):
    absolute throughput moves with the host, so it is recorded for the
    ledger's history rather than gated by default -- the gate here is
    the run itself, which re-proves the distributed path works on
    every ``record``.
    """
    import threading

    from repro.runtime.distributed import Coordinator, run_worker
    from repro.runtime.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "schemes": ["xed"], "systems": num_systems,
        "shard_size": shard_size, "seed": 2016,
    })
    coordinator = Coordinator(spec, port=0, lease_shards=2)
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"worker_id": f"bench-{i}", "connect_timeout_s": 30.0},
            daemon=True,
        )
        for i in range(workers)
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    coordinator.run()
    elapsed = time.perf_counter() - t0
    for thread in threads:
        thread.join(timeout=30.0)
    shards = coordinator.outcome.total_shards
    return {
        "runtime.distributed_merge_throughput": {
            "value": shards / max(elapsed, 1e-12),
            "cls": "wall", "better": "higher",
        },
    }


def _bench_checkpoint(
    num_systems: int = 100_000,
) -> Dict[str, Dict[str, object]]:
    """Telemetry bytes per shard record of a checkpointed ECC-DIMM run.

    ECC-DIMM fails about one system in seven, so this is the run whose
    per-shard telemetry would grow with the failure count if anything
    recorded failures one by one.  It runs as a service job does: under
    a :class:`TelemetryScope` with a :class:`RuntimePolicy` writing a
    fresh checkpoint in a temporary directory.  The metric is the mean
    canonical-JSON size of each shard record's ``metrics`` plus its
    ``trace`` (about 1.3 KB in each of 2 records): a count, not a
    timing, so it does not move with the sampler's speed or the host,
    only the printed width of span timings jitters it by a few bytes.
    It is ratio class, so CI gates it: the ledger's guard against
    per-failure telemetry coming back.
    """
    import tempfile

    from repro.faultsim import EccDimmScheme, MonteCarloConfig, simulate
    from repro.obs import TelemetryScope
    from repro.runtime import RuntimePolicy
    from repro.runtime.checkpoint import canonical_json, load_checkpoint

    config = MonteCarloConfig(num_systems=num_systems)
    with tempfile.TemporaryDirectory() as tmp:
        with TelemetryScope():
            simulate(EccDimmScheme(), config,
                     runtime=RuntimePolicy(checkpoint_dir=tmp))
        (path,) = Path(tmp).glob("*.ckpt")
        records = list(load_checkpoint(path).records.values())
    sizes = [
        len(canonical_json(r.metrics)) + len(canonical_json(r.trace))
        for r in records
    ]
    return {
        "runtime.checkpoint_telemetry_bytes": {
            "value": statistics.mean(sizes),
            "cls": "ratio", "better": "lower",
        },
    }


def collect_metrics() -> Dict[str, Dict[str, object]]:
    """Run every ledger benchmark and return the metric mapping."""
    metrics: Dict[str, Dict[str, object]] = {}
    metrics.update(_bench_ecc())
    metrics.update(_bench_faultsim())
    metrics.update(_bench_markov())
    metrics.update(_bench_perfsim())
    metrics.update(_bench_distributed())
    metrics.update(_bench_checkpoint())
    return metrics


def make_snapshot(metrics: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Wrap collected ``metrics`` in the snapshot envelope."""
    now = datetime.now(timezone.utc)
    return {
        "kind": "bench_snapshot",
        "version": SNAPSHOT_VERSION,
        "stamp": now.strftime("%Y%m%d"),
        "recorded_at": now.isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
            # Wall metrics move with the CPUs the run could use.
            "cpus": os.cpu_count(),
            "affinity_cpus": (
                len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None
            ),
        },
        "metrics": metrics,
    }


def find_latest_snapshot(directory: Path = SNAPSHOT_DIR) -> Optional[Path]:
    """Return the newest ``BENCH_*.json`` under ``directory``, if any."""
    candidates = sorted(directory.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
    include_wall: bool = False,
) -> Tuple[List[str], List[str]]:
    """Diff two snapshots; returns (report lines, regressed metric names).

    A ``ratio`` metric regresses when it moves beyond ``tolerance``
    in its worse direction (a speedup dropping below ``baseline *
    (1 - tolerance)``).  ``wall`` metrics are held to the same band
    only when ``include_wall`` is set.  Metrics present on one side
    only are reported but never flagged, so adding a benchmark does
    not fail the comparison that introduces it.
    """
    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    lines: List[str] = []
    regressions: List[str] = []
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        if name not in base_metrics:
            lines.append(f"  {name}: (new metric, no baseline)")
            continue
        if name not in cur_metrics:
            lines.append(f"  {name}: (dropped from current run)")
            continue
        base = base_metrics[name]
        cur = cur_metrics[name]
        b, c = float(base["value"]), float(cur["value"])
        cls = base.get("cls", "wall")
        better = base.get("better", "lower")
        ratio = c / b if b else float("inf")
        flagged = False
        if cls == "ratio" or include_wall:
            if better == "higher" and c < b * (1.0 - tolerance):
                flagged = True
            if better == "lower" and c > b * (1.0 + tolerance):
                flagged = True
        marker = "  << REGRESSION" if flagged else ""
        lines.append(
            f"  {name} [{cls}]: {b:.6g} -> {c:.6g} (x{ratio:.2f}){marker}"
        )
        if flagged:
            regressions.append(name)
    return lines, regressions


def snapshot_path(out_dir: Path, stamp: str) -> Path:
    """Unoccupied ``BENCH_<stamp>[letter].json`` path under ``out_dir``.

    Two snapshots landed on the same day get letter suffixes
    (``BENCH_20260808.json``, ``BENCH_20260808b.json``, ...) so a
    same-day recording never overwrites the committed baseline it is
    meant to be compared against.
    """
    path = out_dir / f"BENCH_{stamp}.json"
    suffix = ord("b")
    while path.exists():
        path = out_dir / f"BENCH_{stamp}{chr(suffix)}.json"
        suffix += 1
    return path


def _cmd_record(args: argparse.Namespace) -> int:
    """Collect metrics and write ``BENCH_<stamp>.json``."""
    snapshot = make_snapshot(collect_metrics())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = snapshot_path(out_dir, snapshot["stamp"])
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(snapshot['metrics'])} metric(s) -> {path}")
    for name, m in sorted(snapshot["metrics"].items()):
        print(f"  {name} [{m['cls']}] = {m['value']:.6g}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Re-time the ledger benchmarks and diff against the baseline."""
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        latest = find_latest_snapshot()
        if latest is None:
            print(f"no committed snapshot under {SNAPSHOT_DIR}; "
                  "run `record` first", file=sys.stderr)
            return 2
        baseline_path = latest
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    current = make_snapshot(collect_metrics())
    lines, regressions = compare_snapshots(
        baseline, current,
        tolerance=args.tolerance, include_wall=args.include_wall,
    )
    print(f"baseline {baseline_path.name} vs current run "
          f"(tolerance {args.tolerance:.0%}, "
          f"wall {'included' if args.include_wall else 'informational'}):")
    print("\n".join(lines))
    if regressions:
        print(f"{len(regressions)} metric(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(regressions)}")
        return 1
    print("no regressions beyond tolerance")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="bench_snapshot",
        description="record/compare perf-regression ledger snapshots",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="write a BENCH_<stamp>.json")
    rec.add_argument("--out", default=str(SNAPSHOT_DIR),
                     help="snapshot directory (default benchmarks/snapshots)")
    cmp_p = sub.add_parser("compare", help="diff a fresh run vs baseline")
    cmp_p.add_argument("--baseline", default=None,
                       help="baseline snapshot path (default: latest)")
    cmp_p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help="allowed fractional change (default 0.30)")
    cmp_p.add_argument("--include-wall", action="store_true",
                       help="hold wall-clock metrics to the band too")
    args = parser.parse_args(argv)
    if args.mode == "record":
        return _cmd_record(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
