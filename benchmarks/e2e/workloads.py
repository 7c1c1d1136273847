"""The four end-to-end workloads of the benchmark.

Each workload is a function ``name(seed, seconds, *, workdir, recorder,
ready, max_ops, <sizes>) -> Result``.  It sets up (imports, warm-ups,
a server), calls ``ready(result)`` once ``setup_s`` is measured, runs
its operation until ``seconds`` would be exceeded (at most ``max_ops``
times), then checks the outputs outside the timed part.  Sizes are
keyword arguments, so tests can run a workload small.  With a
:class:`spans.Recorder` the layer wrappers are installed around the
timed part, in this process or in the ``repro`` subprocess
(``traced_cli.py``), and the result carries the spans.

``run.py`` runs each workload in a fresh process through this file::

    PYTHONPATH=src python benchmarks/e2e/workloads.py <name> --seed N \\
        --seconds S --workdir DIR --result FILE [--trace-dir DIR] \\
        [--setup-only] [--max-ops N]

Every workload reports the same end-to-end metrics, each defined on the
workload's own operation (see README.md): ``setup_s``, ``p50_ms``,
``work_per_s`` and ``peak_rss_mb``.  On the batch workloads
(``fig7_mc``, ``fig11_grid``, ``cli_all_quick``) ``work_per_s`` is a
constant over the median operation, so it moves with ``p50_ms``.

Compute-bound times are timed in chunks between probes of the host's
speed and reported at the reference speed (:mod:`hostspeed`): the
batch workloads' set-up and every operation, and ``serve_mixed``'s
cold jobs.  The service's set-up and request latency are not: most of
them is waiting, not computing.  ``Result.raw`` keeps the unscaled
values.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from time import perf_counter
from typing import (
    Callable, ContextManager, Dict, List, Optional, Set, Tuple,
)

import hostspeed
import spans
from hostspeed import Pacer, pinned
from paced_cli import scaled_invocation
from spans import Recorder, span_or_null

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRACED_CLI = HERE / "traced_cli.py"
PACED_CLI = HERE / "paced_cli.py"

FIG7_SCHEMES = ("ecc_dimm", "xed", "chipkill")
FIG11_SCHEMES = (
    "ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill",
)

#: ``fig11_grid``: grid rows (workloads) timed as one chunk, about 1 s.
ROWS_PER_CHUNK = 4

#: ``serve_mixed``: the schemes of a cold job, connection B's think
#: time between requests, and connection A's job-status polling period.
JOB_SCHEMES = ("ecc_dimm", "xed")
THINK_S = 0.02
POLL_S = 0.05

#: ``serve_mixed``: pause before each probe, and probes per median.
#: Right after a job's result has been served a probe can read up to
#: 60% slow; a cold job runs for seconds in another process, so one
#: 80 ms probe on either side samples too little of the host's speed.
SETTLE_S = 0.2
PROBE_REPEATS = 3

#: Operation timings: ``(raw seconds, reference seconds)``.
Timing = Tuple[float, float]


@dataclass
class Tally:
    """Operations and checks attempted; each failure adds a message."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one check; record ``message`` when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def merge(self, other: "Tally") -> None:
        """Add another tally's checks (a second client's, a child's)."""
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class Result(Tally):
    """What one workload run measured and checked."""

    #: End-to-end values: setup_s, p50_ms, work_per_s, peak_rss_mb.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The same before scaling to the reference speed.
    raw: Dict[str, float] = field(default_factory=dict)
    #: The run's median probe over the reference probe.
    slowdown: float = 1.0
    #: Fingerprint of the outputs, equal for traced and untraced runs.
    digest: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    #: Wall time of the timed part; shares divide by it.
    trace_wall_s: float = 0.0
    spans: Optional[List[dict]] = None
    #: Per-layer values measured outside spans.
    layer_extra: Dict[str, float] = field(default_factory=dict)


def _noop_ready(result: "Result") -> None:
    pass


def timed_ops(
    op: Callable[[], Timing],
    seconds: float,
    max_ops: Optional[int],
) -> List[Timing]:
    """Run ``op`` (which returns its own :data:`Timing`) repeatedly.

    Stops at ``max_ops``, or once the next run would end more than half
    a run past ``seconds`` (judged by the last run's wall time, probes
    included), so the runs fill ``seconds`` as closely as whole runs
    can.  A slow host gets fewer runs rather than a longer one.
    """
    timings: List[Timing] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        timings.append(op())
        if max_ops is not None and len(timings) >= max_ops:
            return timings
        now = perf_counter()
        if now - start + (now - began) / 2 > seconds:
            return timings


def _set_up(out: "Result", started: float, recorder: Optional[Recorder],
            ready: Callable[["Result"], None], scaled: bool = True,
            **pacing) -> Pacer:
    """End the set-up begun at ``started``; the timed part's pacer.

    The pacer's first probe, right after the set-up, scales it unless
    ``scaled`` is false.  ``pacing`` goes to :class:`Pacer`.
    """
    raw = perf_counter() - started
    pacer = Pacer(enabled=recorder is None, **pacing)
    out.raw["setup_s"] = raw
    out.metrics["setup_s"] = (hostspeed.scale(raw, pacer.probes[0])
                              if scaled else raw)
    ready(out)
    return pacer


def _operation_metrics(out: "Result", timings: List[Timing], work: float,
                       slowdown: float) -> None:
    """``p50_ms`` and ``work_per_s`` of the median operation, both ways."""
    for values, target in ((out.raw, 0), (out.metrics, 1)):
        median = statistics.median(t[target] for t in timings)
        values["p50_ms"] = median * 1e3
        values["work_per_s"] = work / median
    out.slowdown = slowdown


def canonical_json(obj: object) -> str:
    """Sorted keys, no whitespace: the service's documented digest input.

    Re-implemented here rather than imported, so the client's check
    does not depend on the code it checks.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _reliability_digest(results: dict) -> str:
    """Digest of each scheme's failure times and kinds, in order.

    Hashes the raw float64 bytes rather than going through
    :func:`_sha256`, because a JSON copy of every payload would add
    to the process's peak memory, which is a metric.
    """
    import numpy as np

    digest = hashlib.sha256()
    for key, result in results.items():
        digest.update(f"{key}:{result.num_systems}:".encode())
        digest.update(np.asarray(result.failure_times_hours,
                                 dtype=np.float64).tobytes())
        digest.update("".join(k.value for k in result.kinds).encode())
    return digest.hexdigest()


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@contextlib.contextmanager
def _traced(recorder: Optional[Recorder], root: str):
    """The layer wrappers and the harness root span, when tracing.

    Time the traced part inside the block: installing the wrappers
    imports modules, which is not the workload's time.
    """
    if recorder is None:
        yield
        return
    with spans.layer_wrappers(recorder), recorder.span(root):
        yield


def repro_env() -> Dict[str, str]:
    """The environment for a ``repro`` subprocess (``src`` on the path)."""
    env = dict(os.environ)
    path = str(ROOT / "src")
    env["PYTHONPATH"] = path + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- fig7_mc ------------------------------------------------------------


def fig7_mc(
    seed: int,
    seconds: float,
    *,
    workdir: Optional[Path] = None,
    recorder: Optional[Recorder] = None,
    ready: Callable[["Result"], None] = _noop_ready,
    max_ops: Optional[int] = None,
    systems: int = 1_000_000,
    warmup_systems: int = 25_000,
) -> Result:
    """Fig-7 Monte-Carlo: ECC-DIMM, XED and Chipkill in-process.

    One operation is a ``simulate()`` pass over the three schemes at
    ``systems`` lifetimes each (vectorized, one worker, default shards,
    no runtime policy); each scheme is one chunk between probes.
    ``work_per_s`` counts lifetimes adjudicated.
    """
    started = perf_counter()
    from repro.faultsim import (
        ChipkillScheme, EccDimmScheme, MonteCarloConfig, XedScheme, simulate,
    )
    from repro.faultsim.differential import DifferentialMismatch, replay_shard
    from repro.faultsim.simulator import DEFAULT_SHARD_SIZE

    schemes = {"ecc_dimm": EccDimmScheme(), "xed": XedScheme(),
               "chipkill": ChipkillScheme()}

    def config(n: int) -> MonteCarloConfig:
        return MonteCarloConfig(
            num_systems=n, seed=seed, faultsim_backend="vectorized")

    for scheme in schemes.values():
        simulate(scheme, config(warmup_systems))
    out = Result(params={"systems": systems, "schemes": list(FIG7_SCHEMES),
                         "warmup_systems": warmup_systems, "workers": 1,
                         "shard_size": DEFAULT_SHARD_SIZE})
    pacer = _set_up(out, started, recorder, ready)

    digests: List[str] = []
    failures: Dict[str, int] = {}

    def one_pass() -> Timing:
        first = len(pacer.chunks)
        results = {}
        for key, scheme in schemes.items():
            with span_or_null(recorder, "faultsim.simulate", scheme=key):
                results[key] = pacer.time(simulate, scheme, config(systems))
        digests.append(_reliability_digest(results))
        failures.update({k: r.failures for k, r in results.items()})
        return pacer.since(first)

    with _traced(recorder, "bench.fig7_mc"):
        t0 = perf_counter()
        timings = timed_ops(one_pass, seconds, max_ops)
        out.trace_wall_s = perf_counter() - t0
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    _operation_metrics(out, timings, len(schemes) * systems, pacer.slowdown())
    out.attempted += len(timings)
    out.digest = digests[0]

    ecc, xed, ck = (failures[k] for k in FIG7_SCHEMES)
    out.check(len(set(digests)) == 1, "fig7_mc: passes of one seed differ")
    if out.check(xed > 0, "fig7_mc: XED saw no failures"):
        out.check(80 < ecc / xed < 400,
                  f"fig7_mc: XED/ECC-DIMM {ecc / xed:.1f} outside (80, 400)")
        out.check(2 < ck / xed < 8,
                  f"fig7_mc: XED/Chipkill {ck / xed:.2f} outside (2, 8)")
    out.check(xed < ck < ecc,
              f"fig7_mc: failures not XED < Chipkill < ECC-DIMM "
              f"({xed}, {ck}, {ecc})")
    for key, scheme in schemes.items():
        try:
            replay_shard(scheme, config(systems), 0,
                         min(DEFAULT_SHARD_SIZE, systems))
            problem = None
        except DifferentialMismatch as exc:
            problem = exc
        out.check(problem is None, f"fig7_mc: replay_shard {key}: {problem}")
    out.spans = recorder.spans if recorder is not None else None
    return out


# -- fig11_grid -----------------------------------------------------------


def fig11_grid(
    seed: int,
    seconds: float,
    *,
    workdir: Optional[Path] = None,
    recorder: Optional[Recorder] = None,
    ready: Callable[["Result"], None] = _noop_ready,
    max_ops: Optional[int] = None,
    instructions: int = 100_000,
    workloads: Optional[List[str]] = None,
    cells_checked: int = 3,
) -> Result:
    """Fig-11 grid: 5 schemes x every workload, pipeline engine.

    One operation is a ``run_suite`` pass with the trace cache cleared
    first, because every ``repro perf`` process pays trace generation.
    The pass runs :data:`ROWS_PER_CHUNK` grid rows per ``run_suite``
    call, each call one chunk between probes; cells do not depend on
    which call runs them.  ``work_per_s`` counts simulated instructions
    (cells x cores x ``instructions``) per second of host time.
    """
    started = perf_counter()
    from repro.perfsim import trace as perf_trace
    from repro.perfsim.differential import PerfsimMismatch, replay_cell
    from repro.perfsim.runner import (
        geometric_mean, normalized_metric, run_suite,
    )
    from repro.perfsim.timing import SystemTiming
    from repro.perfsim.workloads import WORKLOADS

    chosen = [w for w in WORKLOADS if workloads is None or w.name in workloads]
    # A one-cell run imports the pipeline engine, which loads lazily.
    run_suite(("ecc_dimm",), workloads=chosen[:1], instructions_per_core=1000,
              seed=seed, backend="pipeline")
    cores = SystemTiming().num_cores
    out = Result(params={"instructions_per_core": instructions,
                         "schemes": list(FIG11_SCHEMES),
                         "workloads": [w.name for w in chosen],
                         "cores": cores, "engine": "pipeline", "workers": 1,
                         "rows_per_chunk": ROWS_PER_CHUNK})
    pacer = _set_up(out, started, recorder, ready)

    grids: List[dict] = []
    digests: List[str] = []

    def one_pass() -> Timing:
        perf_trace.build_trace_arrays.cache_clear()
        first = len(pacer.chunks)
        grid = {}
        for at in range(0, len(chosen), ROWS_PER_CHUNK):
            with span_or_null(recorder, "perfsim.run_suite"):
                grid.update(pacer.time(
                    run_suite, FIG11_SCHEMES,
                    workloads=chosen[at:at + ROWS_PER_CHUNK],
                    instructions_per_core=instructions, seed=seed,
                    backend="pipeline", workers=1))
        digests.append(_sha256({
            w: {k: run.to_payload() for k, run in row.items()}
            for w, row in grid.items()
        }))
        if not grids:
            grids.append(grid)
        return pacer.since(first)

    with _traced(recorder, "bench.fig11_grid"):
        t0 = perf_counter()
        timings = timed_ops(one_pass, seconds, max_ops)
        out.trace_wall_s = perf_counter() - t0
    out.metrics["peak_rss_mb"] = _peak_rss_mb()
    cells = len(chosen) * len(FIG11_SCHEMES)
    _operation_metrics(out, timings, cells * cores * instructions,
                       pacer.slowdown())
    out.attempted += len(timings)
    out.digest = digests[0]

    grid = grids[0]
    gmean = {k: geometric_mean(normalized_metric(grid, k).values())
             for k in FIG11_SCHEMES[1:]}
    out.check(len(set(digests)) == 1, "fig11_grid: passes of one seed differ")
    out.check(abs(gmean["xed"] - 1.0) <= 0.002,
              f"fig11_grid: XED gmean {gmean['xed']:.4f} not 1.0+-0.002")
    out.check(1.05 < gmean["chipkill"] < 1.6,
              f"fig11_grid: Chipkill gmean {gmean['chipkill']:.3f} "
              "outside (1.05, 1.6)")
    out.check(1.3 < gmean["double_chipkill"] < 3.2,
              f"fig11_grid: Double-Chipkill gmean "
              f"{gmean['double_chipkill']:.3f} outside (1.3, 3.2)")
    cell_list = [(w.name, k) for w in chosen for k in FIG11_SCHEMES]
    for name, key in random.Random(seed).sample(
            cell_list, min(cells_checked, len(cell_list))):
        try:
            cert = replay_cell(name, key, instructions_per_core=instructions,
                               seed=seed)
        except PerfsimMismatch as exc:
            out.check(False, f"fig11_grid: replay_cell {name}/{key}: {exc}")
            continue
        out.check(cert.exec_bus_cycles == grid[name][key].exec_bus_cycles,
                  f"fig11_grid: {name}/{key} certificate cycles "
                  f"{cert.exec_bus_cycles} != grid "
                  f"{grid[name][key].exec_bus_cycles}")
    out.spans = recorder.spans if recorder is not None else None
    return out


# -- cli_all_quick --------------------------------------------------------


def _repro_command(recorder: Optional[Recorder], spans_path: Path,
                   args: List[str]) -> List[str]:
    if recorder is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACED_CLI), str(spans_path), *args]


def _cli_command(recorder: Optional[Recorder], path: Path,
                 args: List[str]) -> List[str]:
    """``repro <args>``: traced (spans to ``path``) or paced (pacing)."""
    script = PACED_CLI if recorder is None else TRACED_CLI
    return [sys.executable, str(script), str(path), *args]


def _invocation(recorder: Optional[Recorder], path: Path, args: List[str],
                env: Dict[str, str], probes: List[float]):
    """Run one CLI invocation: ``(process, timing)``.

    A paced invocation's probes join ``probes``; a traced one's spans
    join the recorder, and its timing is its wall time both ways.
    """
    t0 = perf_counter()
    proc = subprocess.run(_cli_command(recorder, path, args), env=env,
                          capture_output=True, timeout=150)
    wall = perf_counter() - t0
    if not path.exists():
        return proc, (wall, wall)
    if recorder is not None:
        recorder.spans.extend(spans.read_spans(str(path)))
        return proc, (wall, wall)
    pacing = json.loads(path.read_text())
    probes.extend(pacing["probes"])
    return proc, scaled_invocation(wall, pacing)


def cli_import_s(reps: int = 5) -> float:
    """Median of ``import repro.cli`` minus bare interpreter start."""
    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=repro_env(),
                       check=True, timeout=60)
        return perf_counter() - t0

    return statistics.median(
        [wall("import repro.cli") - wall("pass") for _ in range(reps)])


def cli_all_quick(
    seed: int,
    seconds: float,
    *,
    workdir: Path,
    recorder: Optional[Recorder] = None,
    ready: Callable[["Result"], None] = _noop_ready,
    max_ops: Optional[int] = None,
) -> Result:
    """``python -m repro all --scale quick`` as a subprocess.

    One operation is one invocation; ``setup_s`` is the time of ``repro
    list``, the fixed cost of any invocation.  Untraced invocations run
    through ``paced_cli.py``, which times each experiment between
    probes.  ``work_per_s`` counts experiments reproduced per second.
    """
    out = Result(params={"scale": "quick",
                         "experiments": len(spans.EXPERIMENT_IDS)})
    workdir.mkdir(parents=True, exist_ok=True)
    env = repro_env()
    probes: List[float] = []
    listed, (raw, scaled) = _invocation(None, workdir / "list.json",
                                        ["list"], env, probes)
    out.raw["setup_s"], out.metrics["setup_s"] = raw, scaled
    out.check(listed.returncode == 0,
              f"cli_all_quick: repro list exited {listed.returncode}")
    ready(out)

    stdouts: List[bytes] = []
    walls: List[float] = []
    args = ["all", "--scale", "quick", "--seed", str(seed)]

    def one_invocation() -> Timing:
        path = workdir / f"cli-{len(stdouts)}.out"
        with span_or_null(recorder, "bench.invoke") as record:
            if record is not None:
                env[spans.TRACE_ENV] = f"{record['trace_id']}/{record['span_id']}"
            t0 = perf_counter()
            proc, timing = _invocation(recorder, path, args, env, probes)
            walls.append(perf_counter() - t0)
        out.check(proc.returncode == 0,
                  f"cli_all_quick: repro all exited {proc.returncode}: "
                  f"{proc.stderr.decode(errors='replace')[-400:]}")
        stdouts.append(proc.stdout)
        return timing

    timings = timed_ops(one_invocation, seconds, max_ops)
    out.trace_wall_s = sum(walls)
    out.metrics["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    _operation_metrics(out, timings, len(spans.EXPERIMENT_IDS),
                       statistics.median(probes) / hostspeed.REFERENCE_PROBE_S)
    out.digest = hashlib.sha256(stdouts[0]).hexdigest()

    text = stdouts[0].decode("utf-8", errors="replace")
    missing = [i for i in spans.EXPERIMENT_IDS if f"== {i}:" not in text]
    out.check(not missing, f"cli_all_quick: headers missing for {missing}")
    out.check(len(set(stdouts)) == 1,
              "cli_all_quick: stdout differs between invocations")
    if recorder is not None:
        out.layer_extra["cli.import_s"] = cli_import_s()
        out.spans = recorder.spans
    return out


# -- the campaign service ---------------------------------------------------


def verify_entry(raw: bytes, fingerprint: str) -> Optional[str]:
    """Why a served cache entry is bad, or ``None`` when it verifies.

    The envelope digest must be the SHA-256 of the canonical body, and
    the body's ``result_digest`` that of its deterministic core.
    """
    try:
        envelope = json.loads(raw)
        body = envelope["body"]
        core = {k: body[k] for k in ("fingerprint", "table", "results")}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable entry: {exc!r}"
    if envelope.get("fingerprint") != fingerprint:
        return "entry for another fingerprint"
    if envelope.get("digest") != _sha256(body):
        return "envelope digest does not match the body"
    if body.get("result_digest") != _sha256(core):
        return "result_digest does not match the result"
    return None


class Server:
    """A ``repro serve`` subprocess on a fresh data dir and free port.

    With ``cpus`` every thread of the server runs on those CPUs only.
    """

    def __init__(self, workdir: Path, recorder: Optional[Recorder] = None,
                 cpus: Optional[Set[int]] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.data_dir = workdir / "service-data"
        self.spans_path = workdir / "server-spans.jsonl"
        self.log_path = workdir / "server.log"
        self.recorder = recorder
        args = ["serve", "--bind", "127.0.0.1:0",
                "--data-dir", str(self.data_dir)]
        self._log = open(self.log_path, "wb")
        with pinned(cpus):
            self.proc = subprocess.Popen(
                _repro_command(recorder, self.spans_path, args),
                env=repro_env(), stdout=subprocess.DEVNULL, stderr=self._log)
        try:
            self.port = self._wait_for_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "serving campaigns on" in line:
                    return int(line.split(" on ", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(
            f"repro serve did not start: {self.log_path.read_text()[-400:]}")

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.recorder is not None and self.spans_path.exists():
            self.recorder.spans.extend(spans.read_spans(str(self.spans_path)))
            self.spans_path.unlink()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int, recorder: Optional[Recorder] = None):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.recorder = recorder

    def call(self, method: str, path: str, payload: object = None):
        """``(status, body bytes, latency_s)`` of one request."""
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        with span_or_null(self.recorder, "service.transport") as record:
            if record is not None:
                headers[spans.TRACE_HEADER] = (
                    f"{record['trace_id']}/{record['span_id']}")
            t0 = perf_counter()
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            latency = perf_counter() - t0
        return response.status, raw, latency

    def json(self, method: str, path: str, payload: object = None):
        status, raw, _ = self.call(method, path, payload)
        return status, json.loads(raw)

    def close(self) -> None:
        self.conn.close()


def wait_done(client: Client, job_id: str, poll_s: float,
              timeout: float = 120.0) -> str:
    """Poll a job until it is ``done`` or ``failed``; return the state."""
    deadline = time.monotonic() + timeout
    while True:
        status, doc = client.json("GET", f"/v1/jobs/{job_id}")
        state = doc.get("state") if status == 200 else f"HTTP {status}"
        if state in ("done", "failed") or time.monotonic() > deadline:
            return state
        time.sleep(poll_s)


def run_job(client: Client, spec: dict, poll_s: float,
            out: Tally) -> Optional[dict]:
    """Submit ``spec``, wait for it and fetch and verify its result.

    Returns ``{"fingerprint", "job_id", "raw", "spec"}`` of a verified
    result, or ``None`` after recording why it failed.
    """
    status, doc = client.json("POST", "/v1/jobs", spec)
    if not out.check(status == 202 and doc.get("disposition") == "created",
                     f"submit {spec}: HTTP {status} {doc}"):
        return None
    state = wait_done(client, doc["job_id"], poll_s)
    if not out.check(state == "done", f"job {doc['job_id']} ended {state}"):
        return None
    status, raw, _ = client.call("GET", f"/v1/jobs/{doc['job_id']}/result")
    problem = (f"HTTP {status}" if status != 200
               else verify_entry(raw, doc["fingerprint"]))
    if not out.check(problem is None,
                     f"result of {doc['job_id']}: {problem}"):
        return None
    return {"fingerprint": doc["fingerprint"], "job_id": doc["job_id"],
            "raw": raw, "spec": spec}


def populate(client: Client, specs: List[dict], out: Tally) -> List[dict]:
    """Run ``specs`` to completion so their results are cached."""
    entries = [run_job(client, spec, 0.01, out) for spec in specs]
    return [e for e in entries if e is not None]


def hit_mix(client: Client, entries: List[dict], rng: random.Random,
            stop: Callable[[], bool], think_s: float, out: Tally,
            gate: ContextManager = contextlib.nullcontext()) -> List[float]:
    """Closed loop of cache reads until ``stop()``; returns latencies.

    60% ``GET /v1/cache/<fp>``, 20% resubmissions (which must come back
    ``cached``), 20% ``GET /v1/jobs/<id>/result``.  Served bytes must
    verify and equal the first fetch of that fingerprint.  Each request
    and its check hold ``gate`` (a :class:`hostspeed.Pacer`'s).
    """
    latencies: List[float] = []
    while not stop():
        entry = rng.choice(entries)
        draw = rng.random()
        with gate:
            if draw < 0.2:
                status, raw, latency = client.call("POST", "/v1/jobs",
                                                   entry["spec"])
                ok = status == 202 and json.loads(raw).get(
                    "disposition") == "cached"
                out.check(ok, f"resubmission: HTTP {status} {raw[:200]!r}")
            else:
                path = (f"/v1/cache/{entry['fingerprint']}" if draw < 0.8
                        else f"/v1/jobs/{entry['job_id']}/result")
                status, raw, latency = client.call("GET", path)
                problem = (f"HTTP {status}" if status != 200
                           else verify_entry(raw, entry["fingerprint"]))
                if problem is None and raw != entry["raw"]:
                    problem = "bytes differ from the first fetch"
                out.check(problem is None, f"GET {path}: {problem}")
        latencies.append(latency)
        if think_s:
            time.sleep(think_s)
    return latencies


def _cache_specs(seed: int, count: int, systems: int) -> List[dict]:
    return [{"schemes": ["xed"], "systems": systems, "seed": seed + i}
            for i in range(count)]


def _stats(client: Client) -> dict:
    status, doc = client.json("GET", "/v1/stats")
    return doc if status == 200 else {}


def _stat_deltas(before: dict, after: dict) -> Dict[str, float]:
    return {
        "service.cache_hits": after.get("cache.hits", 0)
        - before.get("cache.hits", 0),
        "service.cache_misses": after.get("cache.misses", 0)
        - before.get("cache.misses", 0),
    }


def _split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """The server's CPU and the client's: the last usable CPU, the rest.

    On one CPU both share it; ``(None, None)`` where the platform
    cannot pin.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    server = {cpus[-1]}
    return server, set(cpus[:-1]) or server


def _connection(port: int, recorder: Optional[Recorder], entries, rng,
                stop, think_s, gate) -> tuple:
    """One client connection's hit loop: ``(latencies, tally)``."""
    tally = Tally()
    client = Client(port, recorder)
    try:
        with span_or_null(recorder, "bench.client"):
            latencies = hit_mix(client, entries, rng, stop, think_s, tally,
                                gate)
    except (OSError, http.client.HTTPException) as exc:
        tally.check(False, f"connection failed: {exc!r}")
        latencies = []
    finally:
        client.close()
    return latencies, tally


def serve_mixed(
    seed: int,
    seconds: float,
    *,
    workdir: Path,
    recorder: Optional[Recorder] = None,
    ready: Callable[["Result"], None] = _noop_ready,
    max_ops: Optional[int] = None,
    specs: int = 8,
    spec_systems: int = 25_000,
    job_systems: int = 100_000,
) -> Result:
    """The service: cold jobs on connection A, cache hits on connection B.

    Set-up starts the server, caches ``specs`` small XED specs and runs
    one untimed warm-up job.  Connection A runs cold jobs one after
    another (distinct seeds, polling every :data:`POLL_S`); each is
    timed from submission to verified result bytes, as one chunk
    between probes.  Connection B runs the hit mix (:func:`hit_mix`)
    with :data:`THINK_S` between requests until A is done, pausing
    while the host is probed.  The server runs on one CPU and the
    client on the others (:func:`_split_cpus`); the probes run on the
    server's CPU, where the jobs run.  ``p50_ms`` is B's request
    latency, unscaled; ``work_per_s`` counts lifetimes per second of
    the median job.
    """
    started = perf_counter()
    server_cpus, client_cpus = _split_cpus()
    out = Result(params={"specs": specs, "spec_systems": spec_systems,
                         "job_systems": job_systems,
                         "job_schemes": list(JOB_SCHEMES),
                         "think_s": THINK_S, "poll_s": POLL_S,
                         "connections": 2,
                         "mix": "60% cache GET, 20% resubmit, 20% result GET",
                         "server_cpus": sorted(server_cpus or ()),
                         "client_cpus": sorted(client_cpus or ())})
    with pinned(client_cpus), \
            Server(workdir, recorder, server_cpus) as server:
        client = Client(server.port)
        entries = populate(client, _cache_specs(seed, specs, spec_systems),
                           out)
        run_job(client, {"schemes": list(JOB_SCHEMES),
                         "systems": spec_systems, "seed": seed + 999}, POLL_S,
                out)
        # Most of the set-up waits on the server (its start, job polls),
        # so its time is not scaled to the host's speed.
        pacer = _set_up(out, started, recorder, ready, scaled=False,
                        settle_s=SETTLE_S,
                        gate=threading.Lock(), repeats=PROBE_REPEATS,
                        cpus=server_cpus)
        before = _stats(client)
        done = threading.Event()
        jobs_client = Client(server.port, recorder)
        results: List[Optional[dict]] = []

        def one_job() -> Timing:
            spec = {"schemes": list(JOB_SCHEMES), "systems": job_systems,
                    "seed": seed + 1000 + len(results)}
            with span_or_null(recorder, "bench.job"):
                results.append(pacer.time(run_job, jobs_client, spec, POLL_S,
                                          out))
            return pacer.chunks[-1]

        t0 = perf_counter()
        with ThreadPoolExecutor(max_workers=1) as second:
            b = second.submit(_connection, server.port, recorder, entries,
                              random.Random(seed * 2 + 1), done.is_set,
                              THINK_S, pacer.gate)
            try:
                timings = timed_ops(one_job, seconds, max_ops)
            finally:
                done.set()
                jobs_client.close()
            b_lat, b_tally = b.result()
        t1 = perf_counter()
        out.layer_extra.update(_stat_deltas(before, _stats(client)))
        client.close()
    # In a fresh process the server is the only child so far.
    out.metrics["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    out.merge(b_tally)
    out.check(len(b_lat) > 0, "serve_mixed: no foreground request completed")
    _operation_metrics(out, timings, len(JOB_SCHEMES) * job_systems,
                       pacer.slowdown())
    out.metrics["p50_ms"] = out.raw["p50_ms"] = (
        statistics.median(b_lat or [0.0]) * 1e3)
    out.digest = _results_digest(
        entries + [r for r in results if r is not None])
    _service_trace(out, recorder, t0, t1)
    return out


def _results_digest(entries: List[dict]) -> str:
    """Digest of the ``result_digest`` of every verified result."""
    return _sha256(sorted(
        json.loads(e["raw"])["body"]["result_digest"] for e in entries))


def _service_trace(out: Result, recorder: Optional[Recorder],
                   t0: float, t1: float) -> None:
    """Keep the spans of the timed window (the server's set-up is out)."""
    out.trace_wall_s = t1 - t0
    if recorder is not None:
        out.spans = spans.within(recorder.spans, t0, t1)
        out.layer_extra["cli.import_s"] = cli_import_s()


WORKLOADS = {
    "fig7_mc": fig7_mc,
    "fig11_grid": fig11_grid,
    "cli_all_quick": cli_all_quick,
    "serve_mixed": serve_mixed,
}


#: Per-layer metrics measured outside spans, with their units.  A
#: workload that does not measure one reports 0.
EXTRA_UNITS = {"cli.import_s": "s", "service.cache_hits": "count",
               "service.cache_misses": "count"}


def result_doc(result: Result, trace_dir: Optional[Path] = None) -> dict:
    """The JSON document of a run; with spans, also its layer metrics.

    ``trace_dir`` receives ``spans.jsonl`` and the fold, ``layers.json``.
    """
    doc = {f.name: getattr(result, f.name) for f in fields(result)
           if f.name != "spans"}
    if result.spans is None:
        return doc
    folded = spans.fold(result.spans, result.trace_wall_s)
    metrics = spans.layer_metrics(result.spans, result.trace_wall_s)
    for key, unit in EXTRA_UNITS.items():
        metrics[key] = (result.layer_extra.get(key, 0), unit)
    doc["layer_metrics"] = metrics
    doc["coverage"] = folded["coverage"]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans.write_spans(str(trace_dir / "spans.jsonl"), result.spans)
        (trace_dir / "layers.json").write_text(
            json.dumps(folded, indent=2, sort_keys=True) + "\n")
    return doc


class _SetupDone(Exception):
    def __init__(self, result: Result):
        super().__init__(result.metrics["setup_s"])
        self.result = result


def _stop_after_setup(result: Result) -> None:
    raise _SetupDone(result)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload and write its result (and trace) as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int, default=None)
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = WORKLOADS[args.workload](
            args.seed, args.seconds, workdir=args.workdir,
            recorder=Recorder() if args.trace_dir is not None else None,
            ready=_stop_after_setup if args.setup_only else _noop_ready,
            max_ops=args.max_ops)
    except _SetupDone as done:
        result = done.result
    doc = result_doc(result, args.trace_dir)
    args.result.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
