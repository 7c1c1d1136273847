"""End-to-end benchmark of the paths users run, with traced per-layer runs.

Run one workload (or ``all``) from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload fig7_mc --seed 2016
    python3 benchmarks/e2e/run.py --workload all --trace 1

Each workload runs in fresh Python processes (``workloads.py``): some
that only set up (at least three, more while they have used under four
seconds), whose set-up times join the main run's for the ``setup_s``
median, then the main run, which sets up, measures for ``--seconds``
and checks its outputs.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
with compute-bound times scaled to a reference host speed
(``hostspeed.py``).
``--trace 1`` runs the workload's operation once untraced and once
traced (with the layer wrappers of ``spans.py``) in two fresh
processes, checks that both produce the same outputs and that the
root spans cover the traced wall time, and reports the per-layer
metrics; the traced run's ``spans.jsonl`` and ``layers.json``
go to ``<out>/trace/<workload>-seed<seed>/``.

Each run also appends a record (host, versions, commit, seed, workload
parameters, metrics) to ``<out>/results.json``.  Compare two such
files, per metric, with::

    python3 benchmarks/e2e/run.py compare A.json B.json

The exit code is 0 when every check passed, 1 when any failed, and 2
when the benchmark cannot run at all (no ``src/repro`` next to it).
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import Tally, repro_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("fig7_mc", "fig11_grid", "cli_all_quick", "serve_mixed")

#: Operations per process in a ``--trace 1`` run.  A fixed count keeps
#: the per-layer counts of one seed identical from run to run.
TRACE_OPS = {"fig7_mc": 1, "fig11_grid": 1, "cli_all_quick": 1,
             "serve_mixed": 4}

#: Set-up-only processes per run: at least the first number, then more
#: while they have used under ``SETUP_BUDGET_S``, up to the second.
#: Their times and the main process's give the ``setup_s`` median.
SETUP_ONLY_RUNS = (3, 10)
SETUP_BUDGET_S = 4.0

#: No run may take longer than this, set-up and checks included.
RUN_BUDGET_S = 170.0

#: Largest tolerated gap between the time the root spans cover and the
#: traced wall time, as a share.
COVERAGE_TOLERANCE = 0.05

#: End-to-end metrics that are a constant over another one on a
#: workload: a batch workload's ``work_per_s`` is its work over the
#: median operation, which ``p50_ms`` reports.  ``compare`` never flags
#: them on their own.
DERIVED = {("fig7_mc", "work_per_s"), ("fig11_grid", "work_per_s"),
           ("cli_all_quick", "work_per_s")}


def _metric_specs() -> dict:
    """``BENCHMARK.json``'s metrics by name, and its ``run_seconds``."""
    spec = json.loads(BENCHMARK.read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


class Run(Tally):
    """Checks, counts and metrics of one workload run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        super().__init__()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: Unscaled end-to-end values and the median probe over the
        #: reference (:mod:`hostspeed`), for the run record.
        self.raw: Dict[str, float] = {}
        self.slowdown: Optional[float] = None
        self.params: Dict[str, object] = {}
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def absorb(self, child: dict) -> None:
        """Add the checks of a child process's result document."""
        self.merge(Tally(child["attempted"], child["failures"]))


def _child(run: Run, out: Path, tag: str, *, seconds: float,
           setup_only: bool = False, max_ops: Optional[int] = None,
           trace_dir: Optional[Path] = None) -> Optional[dict]:
    """Run the workload in a fresh process; its result, or ``None``."""
    workdir = out / "work" / f"{run.workload}-{os.getpid()}-{tag}"
    result_path = workdir / "result.json"
    log_path = out / "logs" / f"{run.workload}-seed{run.seed}-{tag}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), run.workload,
           "--seed", str(run.seed), "--seconds", str(seconds),
           "--workdir", str(workdir), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        with open(log_path, "wb") as log:
            proc = subprocess.run(
                cmd, env=repro_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, run.deadline - time.monotonic()))
        ok = run.check(proc.returncode == 0,
                       f"{run.workload} [{tag}] exited {proc.returncode}; "
                       f"see {log_path}")
        return json.loads(result_path.read_text()) if ok else None
    except subprocess.TimeoutExpired:
        run.check(False, f"{run.workload} [{tag}] exceeded the run budget")
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(run: Run, out: Path, specs: dict) -> None:
    """Run the workload's processes and fill ``run.metrics``."""
    if run.trace:
        ops = TRACE_OPS[run.workload]
        trace_dir = out / "trace" / f"{run.workload}-seed{run.seed}"
        plain = _child(run, out, "untraced", seconds=run.seconds / 2,
                       max_ops=ops)
        traced = _child(run, out, "traced", seconds=run.seconds / 2,
                        max_ops=ops, trace_dir=trace_dir)
        if plain is not None and traced is not None:
            per_layer(run, plain, traced, specs["per_layer"])
        return
    fewest, most = SETUP_ONLY_RUNS
    setups: List[dict] = []
    began = time.monotonic()
    while len(setups) < most and (
            len(setups) < fewest
            or time.monotonic() - began < SETUP_BUDGET_S):
        child = _child(run, out, f"setup{len(setups)}", seconds=run.seconds,
                       setup_only=True)
        if child is None:
            break
        setups.append(child)
    child = _child(run, out, "main", seconds=run.seconds)
    if child is not None:
        end_to_end(run, setups, child, specs["end_to_end"])


def end_to_end(run: Run, setups: List[dict], child: dict,
               listed: Dict[str, dict]) -> None:
    """The listed end-to-end metrics of an untraced main process.

    ``setup_s`` is the median over the set-up-only processes' times
    and the main process's own.
    """
    for doc in setups + [child]:
        run.absorb(doc)
    run.params = child["params"]
    run.slowdown = child["slowdown"]
    values, run.raw = dict(child["metrics"]), dict(child["raw"])
    for doc, key in ((values, "metrics"), (run.raw, "raw")):
        doc["setup_s"] = statistics.median(
            s[key]["setup_s"] for s in setups + [child])
    for name, spec in listed.items():
        if run.check(name in values, f"metric {name} not measured"):
            run.metrics[name] = (values[name], spec["unit"])


def per_layer(run: Run, plain: dict, traced: dict,
              listed: Dict[str, dict]) -> None:
    """The listed per-layer metrics of an untraced/traced pair.

    Checks that both produced the same outputs and that the traced
    run's root spans cover its traced wall time.
    """
    run.absorb(plain)
    run.absorb(traced)
    run.params = traced["params"]
    run.check(plain["digest"] == traced["digest"],
              f"{run.workload}: traced outputs differ from untraced")
    coverage = traced["coverage"]
    run.check(abs(coverage - 1.0) <= COVERAGE_TOLERANCE,
              f"{run.workload}: root spans cover {coverage:.3f} "
              "of the traced wall time")
    values = {k: v for k, (v, _unit) in traced["layer_metrics"].items()}
    # Unscaled: a traced run does not probe the host's speed.
    values["bench.trace_overhead"] = (
        traced["raw"]["p50_ms"] / plain["raw"]["p50_ms"] - 1)
    for name, spec in listed.items():
        if run.check(name in values, f"metric {name} not measured"):
            run.metrics[name] = (values[name], spec["unit"])


def lines(run: Run, prefix: str = "") -> List[str]:
    """``name value unit`` for every metric, value with all its digits."""
    return [f"{prefix}{name} {value!r} {unit}"
            for name, (value, unit) in run.metrics.items()]


def _git_head() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _record(run: Run) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "params": run.params,
        "host": {"cpus": os.cpu_count(),
                 "affinity_cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine()},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_head": _git_head(),
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in run.metrics.items()},
        "raw": run.raw,
        "host_slowdown": run.slowdown,
    }


def _append(results: Path, record: dict) -> None:
    doc = {"runs": []}
    if results.exists():
        doc = json.loads(results.read_text())
    doc["runs"].append(record)
    results.parent.mkdir(parents=True, exist_ok=True)
    tmp = results.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, results)


def run_benchmark(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    specs = _metric_specs()
    seconds = args.seconds if args.seconds is not None else specs["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        run = Run(name, args.seed, seconds, args.trace)
        measure(run, args.out, specs)
        prefix = "" if len(names) == 1 else f"{name}."
        print("\n".join(lines(run, prefix)))
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in run.metrics.items()})
        for message in run.failures:
            print(f"FAILED: {message}", file=sys.stderr)
        _append(args.results or args.out / "results.json", _record(run))
        attempted += run.attempted
        failed += len(run.failures)
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# -- compare --------------------------------------------------------------


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(a_path: Path, b_path: Path) -> int:
    """Print each side's median and quartiles per metric; flag changes.

    An end-to-end metric is flagged when its medians differ by more
    than its ``BENCHMARK.json`` bound (except the :data:`DERIVED` ones);
    a per-layer count when its values differ at all.  Metrics that read
    0 in every run on both sides (layers the workload bypasses) are left
    out.  Returns 1 when anything is flagged.
    """
    specs = _metric_specs()
    sides = []
    for path in (a_path, b_path):
        grouped: Dict[Tuple[str, str], List[float]] = {}
        for record in json.loads(path.read_text())["runs"]:
            for name, metric in record["metrics"].items():
                grouped.setdefault((record["workload"], name), []).append(
                    metric["value"])
        sides.append(grouped)
    flagged = 0
    print(f"{'workload':14s} {'metric':34s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s}  flag")
    keys = sorted(set(sides[0]) | set(sides[1]), key=lambda k: (
        k[0], k[1] not in specs["end_to_end"], k[1]))
    for key in keys:
        workload, name = key
        a, b = sides[0].get(key), sides[1].get(key)
        if not any((a or []) + (b or [])):
            continue
        flag = ""
        if a is None or b is None:
            flag = "only in " + ("B" if a is None else "A")
        else:
            qa, qb = _quartiles(a), _quartiles(b)
            e2e = specs["end_to_end"].get(name)
            layer = specs["per_layer"].get(name)
            if e2e is not None and qa[1] and key not in DERIVED:
                change = qb[1] / qa[1] - 1
                if abs(change) > e2e["bound"]:
                    flag = f"median {change:+.1%} beyond bound {e2e['bound']}"
            elif layer is not None and layer["unit"] == "count":
                if set(a) != set(b):
                    flag = "count differs"
        cols = [" ".join(f"{v:.4g}" for v in _quartiles(side))
                if side else "-" for side in (a, b)]
        print(f"{workload:14s} {name:34s} {cols[0]:>32s} {cols[1]:>32s}  "
              f"{flag}")
        flagged += bool(flag)
    print(f"{flagged} metric(s) flagged")
    return 1 if flagged else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Also: run.py compare A.json B.json")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json"
                             " run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="logs, traces and results.json")
    parser.add_argument("--results", type=Path, default=None,
                        help="results file to append to "
                             "(default <out>/results.json)")
    return run_benchmark(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
