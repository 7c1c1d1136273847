"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Sub-commands mirror the library's layers:

* ``repro list`` -- the registered paper experiments.
* ``repro experiment fig7 --scale quick`` -- regenerate one table/figure.
* ``repro reliability --schemes xed chipkill --systems 200000`` --
  ad-hoc Monte-Carlo comparisons.
* ``repro sweep --schemes xed chipkill --fit-scales 1 2 4 8`` --
  instant analytical parameter sweeps (closed-form Markov solver,
  milliseconds per cell; see docs/theory.md).
* ``repro perf --workloads libquantum mcf --schemes ecc_dimm chipkill``
  -- ad-hoc performance/power grids.
* ``repro collision --bits 32`` -- catch-word collision analytics.
* ``repro campaign --kind xed --trials 40 --chips 1`` -- behavioural
  fault-injection campaigns.
* ``repro coordinate --schemes xed --bind 127.0.0.1:7653`` /
  ``repro work --coordinator HOST:7653`` -- distribute one reliability
  run across machines via shard-range leases; the merged result is
  bit-identical to the single-machine run (see docs/robustness.md).

* ``repro serve --bind 127.0.0.1:7654 --data-dir state`` -- run the
  campaign service: an async HTTP job API with single-flight
  submission and a fingerprint-keyed, digest-verified result cache
  (see docs/serving.md).
* ``repro obs summarize|inspect|diff`` -- post-run analysis of exported
  traces, metrics and checkpoints (see docs/observability.md).

Every sub-command additionally accepts the observability flags
``--log-level LEVEL``, ``--metrics-out PATH`` (JSON metrics dump),
``--trace-out PATH`` (JSON-lines event trace), ``--timeseries-out
PATH`` (periodic counter/rate/quantile samples) and ``--trace-perfetto
PATH`` (Chrome trace-event export of the span tree, loadable in
``ui.perfetto.dev``); see :mod:`repro.obs`.  All exports are written
atomically (temp file + rename).
The ``reliability`` and ``campaign`` sub-commands take ``--workers N``
and ``--shard-size N`` for sharded parallel execution (results are
bit-identical for any worker count; see docs/performance.md).  Long
``reliability``/``campaign``/``perf`` runs show a live progress line on
stderr when it is a terminal.

The long-running sub-commands (``experiment``, ``export``,
``reliability``, ``perf``, ``all``, ``campaign``) take the
fault-tolerance flags ``--checkpoint DIR``, ``--resume DIR``,
``--max-retries N``, ``--keep-going`` and the developer flag ``--chaos
SPEC``.  ``reliability``, ``perf`` and ``campaign`` also take
``--shard-timeout S``, a deadline on pool workers (``--workers`` > 1);
the others run every shard in process and reject it.  ``coordinate``
takes only ``--checkpoint``, ``--resume``, ``--max-retries`` and
``--keep-going``: its shards run once each in ``repro work``
processes, which take their own ``--chaos``; the coordinator's
``--lease-timeout`` bounds a hung shard (see docs/robustness.md).

Exit codes (stable contract, asserted by the test suite):

* ``0``  -- success.
* ``1``  -- the command ran but the result is bad (campaign saw SDC).
* ``2``  -- usage error: bad flags, unknown experiment, resuming
  against a checkpoint of a different run, run values the shared
  :class:`~repro.runtime.spec.ExperimentSpec` rejects (e.g.
  ``--systems 0``, ``--years -1``, ``--scrub-hours 0``), and a
  ``repro work`` handshake its coordinator refused or failed.
* ``3``  -- partial completion: ``--keep-going`` quarantined shards;
  results were reported with an explicit completeness fraction.
* ``4``  -- a shard failed permanently without ``--keep-going``;
  completed shards are checkpointed and the run is resumable.
* ``130`` -- interrupted by SIGINT/SIGTERM after draining and writing
  a final checkpoint; the resume command is printed.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from typing import Callable, Optional, Sequence, Tuple

from repro.version import __version__

#: Accepted values for the global ``--log-level`` flag.
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Stable exit codes (see the module docstring / docs/robustness.md).
EXIT_OK = 0
EXIT_BAD_RESULT = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3
EXIT_SHARD_FAILURE = 4
EXIT_INTERRUPTED = 130


def _bounded(noun: str, low: int, kind: type = int) -> Callable[[str], float]:
    """argparse type for a numeric flag, named ``noun`` in its errors.

    An ``int`` (a count) must be at least ``low``; a ``float`` (a
    duration in seconds) must exceed it.  Raising ``ArgumentTypeError``
    lets argparse print a clean one-line error naming the flag and exit
    with status 2, matching its other usage errors.
    """

    def parse(value: str) -> float:
        number = kind(value)
        if kind is int and number < low:
            raise argparse.ArgumentTypeError(f"{noun} must be >= {low}")
        if kind is float and number <= low:
            raise argparse.ArgumentTypeError(f"{noun} must be > {low} seconds")
        return number

    # A value ``kind`` cannot parse fails as ``invalid <__name__> value``.
    parse.__name__ = kind.__name__
    return parse


def _add_faultsim_backend_flag(parser: argparse.ArgumentParser) -> None:
    """Attach ``--faultsim-backend`` to Monte-Carlo sub-commands.

    ``vectorized`` samples the population and adjudicates whole shards
    with the batch kernels of :mod:`repro.faultsim.vectorized`,
    bit-identical to the ``scheme.evaluate`` reference (enforced by
    :mod:`repro.faultsim.differential`).  ``analytical`` solves the
    closed-form Markov chain (:mod:`repro.faultsim.markov`) instead of
    sampling: milliseconds per scheme, no sampling noise, validated
    against Monte-Carlo within Wilson intervals (docs/theory.md).
    """
    parser.add_argument(
        "--faultsim-backend",
        choices=("vectorized", "analytical"),
        default="vectorized",
        help="fault-sim backend: batch numpy Monte-Carlo (vectorized, "
             "default) or the closed-form Markov solver (analytical; "
             "noise-free, Wilson-validated)",
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the sharding/parallelism flags shared by long-running
    sub-commands (see docs/performance.md for guidance)."""
    group = parser.add_argument_group("parallelism")
    group.add_argument(
        "--workers", type=_bounded("workers", 1), default=1, metavar="N",
        help="worker processes for sharded execution (default 1; "
             "results are identical for any worker count)",
    )
    group.add_argument(
        "--shard-size", type=_bounded("shard size", 1), default=None,
        metavar="N",
        help="systems/trials per shard (default: engine-chosen; "
             "changing it changes the RNG shard plan)",
    )

def _scrub_interval(value: str) -> Optional[float]:
    """argparse type for ``sweep --scrub-hours``: float > 0 or 'none'."""
    if value.lower() in ("none", "off"):
        return None
    try:
        hours = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid scrub interval {value!r}: expected hours or 'none'"
        )
    if hours <= 0:
        raise argparse.ArgumentTypeError("scrub interval must be > 0 hours")
    return hours


def _chaos_spec(value: str):
    """argparse type for ``--chaos``: parse the injection spec."""
    from repro.runtime import ChaosSpecError, parse_chaos_spec

    try:
        return parse_chaos_spec(value)
    except ChaosSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _host_port(value: str) -> "Tuple[str, int]":
    """argparse type for ``HOST:PORT`` endpoints (``--bind``,
    ``--coordinator``).

    The port must be 0..65535; port 0 asks the kernel for an ephemeral
    port (useful for loopback tests -- the coordinator prints the bound
    address on stderr).
    """
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"invalid endpoint {value!r}: expected HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid port in {value!r}: expected an integer"
        )
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError("port must be in 0..65535")
    return host, port


def _add_recovery_flags(
    parser: argparse.ArgumentParser,
) -> argparse._ArgumentGroup:
    """Attach the fault-tolerance flags every shard-running command
    honours; returns their group (see docs/robustness.md for the full
    semantics).

    ``coordinate`` takes only these.  The commands that run their
    shards in this process or its pool also take
    :func:`_add_injection_flags`'s.
    """
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist per-shard results into this directory so an "
             "interrupted run can be resumed",
    )
    group.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume from checkpoints in this directory (fingerprint-"
             "validated; only missing shards re-run); new progress "
             "keeps checkpointing there",
    )
    group.add_argument(
        "--max-retries", type=_bounded("max retries", 0), default=None,
        metavar="N",
        help="retries per shard (with exponential backoff) before the "
             "shard counts as permanently failed (default 3)",
    )
    group.add_argument(
        "--keep-going", action="store_true", default=False,
        help="quarantine permanently-failing shards and finish with "
             "partial results (exit code 3) instead of aborting",
    )
    return group


def _add_injection_flags(
    group: argparse._ArgumentGroup, pool: bool
) -> None:
    """Attach ``--chaos`` and, when the command can run its shards on a
    pool (``pool``), ``--shard-timeout`` to a fault-tolerance group.

    Only a pool worker can be killed, so a shard run in process has no
    deadline and the commands that never start a pool reject the flag.
    A coordinated run's shards run in ``repro work``, which declares its
    own ``--chaos``."""
    if pool:
        group.add_argument(
            "--shard-timeout", type=_bounded("shard timeout", 0, float),
            default=None, metavar="S",
            help="on a pool (--workers > 1), kill and retry any shard "
                 "still running after S seconds; shards run in process "
                 "have no deadline",
        )
    group.add_argument(
        "--chaos", type=_chaos_spec, default=None, metavar="SPEC",
        help="developer flag: deterministically inject worker failures, "
             "e.g. 'crash=1;hang=2;attempts=1' (see docs/robustness.md)",
    )


def _build_runtime_policy(args: argparse.Namespace):
    """Translate parsed runtime flags into a RuntimePolicy (or None).

    Returns ``None`` when no fault-tolerance flag was used (the root
    parser defaults them for sub-commands that have none): no ambient
    policy is installed, so the engines run under ``RuntimePolicy()``
    defaults and the provenance export records no runs.
    """
    if not any(
        (args.checkpoint, args.resume, args.shard_timeout is not None,
         args.max_retries is not None, args.keep_going, args.chaos)
    ):
        return None
    from repro.runtime import RuntimePolicy

    return RuntimePolicy(
        checkpoint_dir=args.checkpoint,
        resume_dir=args.resume,
        shard_timeout_s=args.shard_timeout,
        max_retries=3 if args.max_retries is None else args.max_retries,
        keep_going=args.keep_going,
        chaos=args.chaos,
    )


def _print_resume_hint(policy, argv: Sequence[str], done: str) -> None:
    """After ``repro: <done>``, the exact command that resumes the run.

    Printed only when the run has a checkpoint directory to resume from.
    """
    if policy is None or not policy.storage_dir:
        return
    parts = list(argv)
    if "--resume" not in parts:
        parts += ["--resume", policy.storage_dir]
    print(
        f"repro: {done} resume with:\n  repro "
        + " ".join(shlex.quote(p) for p in parts),
        file=sys.stderr,
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the reliability-run values an ``ExperimentSpec`` holds.

    The defaults are the spec's own, and the values are validated by
    its constructor when the command runs (exit 2 on a rejected one).
    """
    from repro.runtime.spec import ExperimentSpec

    parser.add_argument("--systems", type=int, default=ExperimentSpec.systems)
    parser.add_argument("--years", type=float, default=ExperimentSpec.years)
    parser.add_argument(
        "--scaling-rate", type=float, default=ExperimentSpec.scaling_rate
    )
    parser.add_argument(
        "--scrub-hours", type=float, default=ExperimentSpec.scrub_hours
    )
    parser.add_argument("--seed", type=int, default=ExperimentSpec.seed)


def _run_spec(args: argparse.Namespace):
    """The ``ExperimentSpec`` of a reliability or coordinate command."""
    from repro.runtime.spec import ExperimentSpec

    return ExperimentSpec.from_dict({
        "schemes": args.schemes,
        "systems": args.systems,
        "years": args.years,
        "scaling_rate": args.scaling_rate,
        "scrub_hours": args.scrub_hours,
        "seed": args.seed,
        "shard_size": args.shard_size,
        "workers": getattr(args, "workers", 1),
    })


def _obs_parent() -> argparse.ArgumentParser:
    """The observability flags, shared by the root and every sub-command.

    Defaults are ``SUPPRESS`` so the flags may appear on either side of
    the sub-command: a sub-parser only copies attributes it actually
    parsed, instead of clobbering root-level values with ``None``.
    The actions are shared objects, so no parser may ``set_defaults``
    these names: that would rewrite the default of every copy.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level", choices=LOG_LEVELS, default=argparse.SUPPRESS,
        help="enable structured logging on stderr at this level",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH", default=argparse.SUPPRESS,
        help="write the metrics registry as JSON after the command",
    )
    group.add_argument(
        "--trace-out", metavar="PATH", default=argparse.SUPPRESS,
        help="write the structured event trace as JSON lines",
    )
    group.add_argument(
        "--timeseries-out", metavar="PATH", default=argparse.SUPPRESS,
        help="write periodic telemetry samples (counters, rates, "
             "latency quantiles, RSS) as JSON lines",
    )
    group.add_argument(
        "--trace-perfetto", metavar="PATH", default=argparse.SUPPRESS,
        help="also export the span tree in Chrome trace-event format "
             "(open in ui.perfetto.dev or chrome://tracing)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands.

    Every sub-command's parser sets ``handler``, the function that runs
    it (``repro obs`` sets it on its own sub-commands).
    """
    from repro.runtime.spec import SCHEMES

    obs_flags = _obs_parent()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XED (ISCA 2016) reproduction toolkit",
        parents=[obs_flags],
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    # What the fault-tolerance flags read where a command has none.
    parser.set_defaults(checkpoint=None, resume=None, shard_timeout=None,
                        max_retries=None, keep_going=False, chaos=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(
        name: str, handler: Callable[[argparse.Namespace], int],
        *parents: argparse.ArgumentParser, **kwargs,
    ) -> argparse.ArgumentParser:
        command = sub.add_parser(
            name, parents=[obs_flags, *parents], allow_abbrev=False, **kwargs
        )
        command.set_defaults(handler=handler)
        return command

    # The flags of every command that runs its shards here: on a pool
    # under --workers, or always in process for the reports.
    local_runs = argparse.ArgumentParser(add_help=False)
    _add_injection_flags(_add_recovery_flags(local_runs), pool=True)
    reports = argparse.ArgumentParser(add_help=False)
    _add_injection_flags(_add_recovery_flags(reports), pool=False)
    reports.add_argument("--scale", choices=("quick", "full"), default="quick")
    reports.add_argument("--seed", type=int, default=2016)
    _add_faultsim_backend_flag(reports)

    add_parser("list", _cmd_list, help="list the registered paper experiments")

    exp = add_parser(
        "experiment", _cmd_experiment, reports,
        help="regenerate one table/figure",
    )
    exp.add_argument("experiment_id", help="e.g. fig7, table2")

    rel = add_parser(
        "reliability", _cmd_reliability, local_runs,
        help="Monte-Carlo scheme comparison",
    )
    rel.add_argument(
        "--schemes", nargs="+", default=["ecc_dimm", "xed", "chipkill"],
        choices=sorted(SCHEMES),
    )
    _add_run_flags(rel)
    _add_faultsim_backend_flag(rel)
    _add_parallel_flags(rel)

    perf = add_parser(
        "perf", _cmd_perf, local_runs, help="performance/power grid"
    )
    perf.add_argument("--workloads", nargs="+", default=["libquantum", "mcf"])
    perf.add_argument(
        "--schemes", nargs="+",
        default=["ecc_dimm", "xed", "chipkill", "double_chipkill"],
    )
    perf.add_argument("--instructions", type=int, default=50_000)
    perf.add_argument("--seed", type=int, default=2016)
    perf.add_argument(
        "--metric", choices=("time", "power", "both"), default="both"
    )
    perf.add_argument(
        "--workers", type=_bounded("workers", 1), default=1, metavar="N",
        help="worker processes for the (workload x scheme) grid "
             "(default 1; one shard per workload and distinct machine, "
             "results identical for any worker count)",
    )

    col = add_parser(
        "collision", _cmd_collision, help="catch-word collision analytics"
    )
    col.add_argument("--bits", type=int, default=64)
    col.add_argument("--write-interval", type=float, default=5.53e-6,
                     help="seconds between novel writes per chip")

    all_cmd = add_parser(
        "all", _cmd_all, reports,
        help="regenerate every table/figure, optionally exporting",
    )
    all_cmd.add_argument("--out", default=None,
                         help="also export text+CSV into this directory")
    all_cmd.add_argument("--svg", action="store_true",
                         help="also render SVG charts where applicable")

    exp_out = add_parser(
        "export", _cmd_experiment, reports,
        help="regenerate an experiment and write text + CSVs",
    )
    exp_out.add_argument("experiment_id")
    exp_out.add_argument("--out", default="results")
    exp_out.add_argument("--svg", action="store_true",
                         help="also render an SVG chart where applicable")

    swp = add_parser(
        "sweep", _cmd_sweep,
        help="instant analytical parameter sweep (Markov solver)",
    )
    swp.add_argument(
        "--schemes", nargs="+", default=["ecc_dimm", "xed", "chipkill"],
        choices=sorted(SCHEMES),
    )
    swp.add_argument(
        "--fit-scales", nargs="+", type=float, default=[1.0], metavar="X",
        help="FIT-rate multipliers to sweep (e.g. 1 2 4 8)",
    )
    swp.add_argument(
        "--scrub-hours", nargs="+", type=_scrub_interval, default=[None],
        metavar="H", help="scrub intervals in hours; 'none' disables "
        "scrubbing for that cell (default: none)",
    )
    swp.add_argument("--years", type=float, default=7.0)
    swp.add_argument("--scaling-rate", type=float, default=0.0)
    swp.add_argument(
        "--mechanisms", action="store_true",
        help="also print the per-cell failure-mechanism decomposition",
    )

    camp = add_parser(
        "campaign", _cmd_campaign, local_runs,
        help="behavioural fault campaign",
    )
    camp.add_argument("--kind", choices=("xed", "chipkill"), default="xed")
    camp.add_argument("--trials", type=int, default=30)
    camp.add_argument("--chips", type=int, default=1,
                      help="simultaneously faulty chips per trial")
    camp.add_argument("--scaling-rate", type=float, default=0.0)
    camp.add_argument("--seed", type=int, default=2016)
    _add_parallel_flags(camp)

    coord = add_parser(
        "coordinate", _cmd_coordinate,
        help="serve one reliability run to distributed workers as "
             "shard-range leases (see docs/robustness.md)",
    )
    coord.add_argument(
        "--schemes", nargs=1, default=["xed"],
        choices=sorted(SCHEMES),
        help="scheme to simulate (exactly one per coordinate run)",
    )
    _add_run_flags(coord)
    coord.add_argument(
        "--shard-size", type=_bounded("shard size", 1), default=None,
        metavar="N",
        help="systems per shard / per lease unit (default: engine-"
             "chosen; must match the single-machine run you want to "
             "reproduce bit-identically)",
    )
    group = coord.add_argument_group("coordination")
    group.add_argument(
        "--bind", type=_host_port, default=("127.0.0.1", 7653),
        metavar="HOST:PORT",
        help="listen address for workers (default 127.0.0.1:7653; "
             "port 0 picks an ephemeral port, printed on stderr)",
    )
    group.add_argument(
        "--lease-shards", type=_bounded("lease shards", 1), default=None,
        metavar="N",
        help="shards granted per lease (default 4; larger leases "
             "amortise round-trips, smaller ones rebalance faster)",
    )
    group.add_argument(
        "--lease-timeout", type=_bounded("lease timeout", 0, float),
        default=None, metavar="S",
        help="seconds before an unacknowledged lease expires and its "
             "shards are requeued (default 120)",
    )
    _add_recovery_flags(coord)

    work = add_parser(
        "work", _cmd_work,
        help="serve a repro coordinate run: lease shards, simulate, "
             "stream digest-verified results back",
        description="Serve a repro coordinate run.  Each leased shard "
                    "runs once, in this process; its record (result "
                    "plus that shard's metrics and trace) streams back "
                    "as it completes, and a failed shard is reported to "
                    "the coordinator, whose --max-retries is the only "
                    "retry budget and whose --lease-timeout reclaims a "
                    "hung shard.  Run one worker per core.  "
                    "SIGINT/SIGTERM lets the running shard send its "
                    "record, asks for no further lease and exits 130.  "
                    "A failed handshake (a refused hello or job, no job "
                    "within --connect-timeout) exits 2.",
    )
    work.add_argument(
        "--coordinator", type=_host_port, required=True,
        metavar="HOST:PORT",
        help="address of the repro coordinate process to serve",
    )
    work.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="name reported to the coordinator (default worker-<pid>)",
    )
    work.add_argument(
        "--connect-timeout", type=_bounded("connect timeout", 0, float),
        default=30.0, metavar="S",
        help="seconds to keep dialling the coordinator, and to wait "
             "for its job after hello, before giving up (default 30)",
    )
    work.add_argument(
        "--chaos", type=_chaos_spec, default=None, metavar="SPEC",
        help="developer flag: deterministically inject worker and "
             "network failures, e.g. 'crash=1;partition=2;drop=3' "
             "(see docs/robustness.md)",
    )

    serve = add_parser(
        "serve", _cmd_serve,
        help="run the campaign service: async job API with a "
             "fingerprint-keyed result cache (see docs/serving.md)",
    )
    serve.add_argument(
        "--bind", type=_host_port, default=("127.0.0.1", 7654),
        metavar="HOST:PORT",
        help="listen address (default 127.0.0.1:7654; port 0 picks an "
             "ephemeral port, printed on stderr)",
    )
    serve.add_argument(
        "--data-dir", default="service-data", metavar="DIR",
        help="state directory for the result cache and per-job "
             "checkpoints (default ./service-data)",
    )

    from repro.obs.cli import add_obs_parser

    add_obs_parser(sub, obs_flags)

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis import EXPERIMENTS

    print(f"{'id':8s} {'title':45s} paper claim")
    for exp_id in sorted(EXPERIMENTS):
        meta = EXPERIMENTS[exp_id]
        print(f"{exp_id:8s} {meta.title[:45]:45s} {meta.paper_claim}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment`` prints one report; ``repro export`` writes it.

    The id is checked before running, so a ``KeyError`` raised inside a
    run is a bug that propagates rather than an "unknown experiment".
    """
    from repro.analysis import EXPERIMENTS, run_experiment

    if args.experiment_id not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment_id!r}; "
              f"known: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return EXIT_USAGE
    report = run_experiment(args.experiment_id, scale=args.scale,
                            seed=args.seed,
                            faultsim_backend=args.faultsim_backend)
    if args.command == "experiment":
        print(report.text)
        return EXIT_OK
    from repro.analysis.export import export_report

    for path in export_report(report, args.out, svg=args.svg,
                              provenance=_provenance(args)):
        print(path)
    return EXIT_OK


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro import faultsim

    spec = _run_spec(args)
    results = []
    for scheme, config in spec.build_runs():
        config.faultsim_backend = args.faultsim_backend
        results.append(
            faultsim.simulate(
                scheme, config,
                workers=spec.workers, shard_size=spec.shard_size,
            )
        )
    print(spec.table(results))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.faultsim import MonteCarloConfig
    from repro.faultsim.markov import sweep
    from repro.runtime.spec import build_scheme

    config = MonteCarloConfig(
        years=args.years,
        scaling_rate=args.scaling_rate,
        faultsim_backend="analytical",
    )
    schemes = [build_scheme(key) for key in args.schemes]
    started = perf_counter()
    cells = sweep(
        schemes,
        config,
        fit_scales=args.fit_scales,
        scrub_hours=args.scrub_hours,
    )
    elapsed_ms = (perf_counter() - started) * 1e3
    print(
        f"Analytical sweep: {len(cells)} cells in {elapsed_ms:.0f} ms "
        f"({args.years:g} years, scaling rate {args.scaling_rate:g})"
    )
    print(
        f"{'scheme':34s} {'fit x':>6s} {'scrub h':>8s} "
        f"{'P(fail)':>10s} {'DUE':>10s} {'SDC':>10s}"
    )
    for cell in cells:
        scrub = "none" if cell.scrub_hours is None else f"{cell.scrub_hours:g}"
        r = cell.result
        print(
            f"{cell.scheme_name:34s} {cell.fit_scale:6g} {scrub:>8s} "
            f"{r.probability_of_failure:10.3e} {r.due_probability:10.3e} "
            f"{r.sdc_probability:10.3e}"
        )
    if args.mechanisms:
        for cell in cells:
            scrub = (
                "none" if cell.scrub_hours is None else f"{cell.scrub_hours:g}"
            )
            print()
            print(f"[fit x{cell.fit_scale:g}, scrub {scrub}]", end=" ")
            print(cell.result.format_mechanisms())
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perfsim.runner import format_figure_table, run_suite
    from repro.perfsim.workloads import workload_by_name

    workloads = [workload_by_name(name) for name in args.workloads]
    schemes = list(args.schemes)
    if "ecc_dimm" not in schemes:
        schemes.insert(0, "ecc_dimm")
    grid = run_suite(
        schemes, workloads,
        instructions_per_core=args.instructions, seed=args.seed,
        workers=args.workers,
    )
    keys = [k for k in schemes if k != "ecc_dimm"]
    if args.metric in ("time", "both"):
        print(format_figure_table(grid, keys, metric="time",
                                  title="Normalized Execution Time"))
    if args.metric in ("power", "both"):
        print(format_figure_table(grid, keys, metric="power",
                                  title="Normalized Memory Power"))
    return 0


def _cmd_collision(args: argparse.Namespace) -> int:
    from repro.core.catch_word import CollisionModel

    model = CollisionModel(
        catch_word_bits=args.bits, write_interval_s=args.write_interval
    )
    years = model.mean_years_to_collision()
    print(f"catch-word width: {args.bits} bits")
    print(f"mean time to collision: {years:.4g} years "
          f"({years * 365.25 * 24:.4g} hours)")
    for lifetime, prob in model.probability_curve():
        print(f"  P(collision within {lifetime:>12,.4g} years) = {prob:.3e}")
    return 0


def _provenance(args: argparse.Namespace) -> dict:
    """Provenance block written next to exported artifacts.

    Records how the numbers were produced -- code version, seed, scale,
    fault-sim backend -- plus, when a fault-tolerance policy is active,
    the outcome of every underlying run (completeness, retries, resumed
    and quarantined shards), so partial ``--keep-going`` artifacts are
    self-describing.
    """
    from repro.runtime import current_policy

    policy = current_policy()
    prov: dict = {
        "code_version": __version__,
        "seed": args.seed,
        "scale": args.scale,
        "faultsim_backend": args.faultsim_backend,
        "complete": True,
        "runs": [],
    }
    if policy is not None:
        prov["complete"] = policy.quarantined_total == 0
        prov["runs"] = [outcome.to_dict() for outcome in policy.outcomes]
    return prov


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.analysis import reproduce_all
    from repro.analysis.export import export_report

    reports = reproduce_all(
        scale=args.scale, seed=args.seed,
        faultsim_backend=args.faultsim_backend,
    )
    # reproduce_all has finished every run by now, so one provenance
    # block describes them all.
    provenance = _provenance(args) if args.out else None
    for report in reports.values():
        print(report.text)
        print()
        if args.out:
            export_report(report, args.out, svg=args.svg,
                          provenance=provenance)
    if args.out:
        print(f"exported {len(reports)} experiments to {args.out}/")
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.faultsim import campaign

    if args.kind == "xed":
        result = campaign.run_xed_campaign(
            trials=args.trials,
            faulty_chips=args.chips,
            seed=args.seed,
            scaling_ber=args.scaling_rate,
            workers=args.workers,
            shard_size=args.shard_size,
        )
    else:
        result = campaign.run_chipkill_campaign(
            trials=args.trials, faulty_chips=args.chips, seed=args.seed,
            workers=args.workers, shard_size=args.shard_size,
        )
    print(result.format_summary())
    return EXIT_OK if result.sdc_count == 0 else EXIT_BAD_RESULT


def _cmd_coordinate(args: argparse.Namespace) -> int:
    from repro.runtime import current_policy
    from repro.runtime.distributed import (
        DEFAULT_LEASE_SHARDS,
        DEFAULT_LEASE_TIMEOUT_S,
        Coordinator,
    )

    spec = _run_spec(args)
    host, port = args.bind
    coordinator = Coordinator(
        spec,
        host=host,
        port=port,
        lease_shards=(
            DEFAULT_LEASE_SHARDS if args.lease_shards is None
            else args.lease_shards
        ),
        lease_timeout_s=(
            DEFAULT_LEASE_TIMEOUT_S if args.lease_timeout is None
            else args.lease_timeout
        ),
        policy=current_policy(),
    )
    bound_host, bound_port = coordinator.address
    # Stderr, so stdout stays diffable against `repro reliability`.
    print(
        f"repro: coordinating {spec.num_shards()} shard(s) of "
        f"{spec.schemes[0]} on {bound_host}:{bound_port}",
        file=sys.stderr,
    )
    print(spec.table([coordinator.run()]))
    return EXIT_OK


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.runtime.distributed import HandshakeError, run_worker

    try:
        summary = run_worker(
            *args.coordinator,
            worker_id=args.worker_id,
            chaos=args.chaos,
            connect_timeout_s=args.connect_timeout,
        )
    except HandshakeError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConnectionError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_BAD_RESULT
    print(
        f"worker {summary.worker}: {summary.shards_completed} shard(s) "
        f"over {summary.leases} lease(s), "
        f"{summary.shards_failed} failed, "
        f"{summary.reconnects} reconnect(s), "
        f"{'drained' if summary.drained else 'coordinator gone'}"
    )
    return EXIT_OK if summary.drained else EXIT_BAD_RESULT


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service until SIGTERM/SIGINT.

    SIGTERM is the orchestrator's stop signal: the server stops
    accepting requests, the executor gets a short drain window, and the
    process exits 0.  An interrupted job's fingerprint-keyed
    checkpoints survive in ``--data-dir``, so resubmitting the same
    spec after a restart resumes instead of recomputing.  Ctrl-C
    (SIGINT) exits 130, matching the rest of the CLI.
    """
    import signal

    from repro.service import CampaignService, create_server

    class _Terminated(Exception):
        """SIGTERM arrived; unwind ``serve_forever`` for a clean drain."""

    def _on_sigterm(signum: int, frame: object) -> None:
        raise _Terminated()

    service = CampaignService(args.data_dir)
    host, port = args.bind
    server = create_server(host, port, service)
    bound_host, bound_port = server.server_address[:2]
    # Stderr, so anything piped from stdout stays machine-readable.
    print(
        f"repro: serving campaigns on {bound_host}:{bound_port} "
        f"(data dir {args.data_dir})",
        file=sys.stderr,
    )
    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    code = EXIT_OK
    try:
        server.serve_forever(poll_interval=0.1)
    except _Terminated:
        print("repro: SIGTERM received, draining", file=sys.stderr)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.shutdown()
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the ``repro`` CLI; returns the process exit code.

    See the module docstring for the exit-code contract.  A run
    interrupted by SIGINT/SIGTERM drains in-flight shards, flushes a
    final checkpoint, prints the exact resume command and exits 130.
    """
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(raw_argv)
    # SUPPRESS defaults leave the attributes unset when flags are absent.
    args.log_level = getattr(args, "log_level", None)
    args.metrics_out = getattr(args, "metrics_out", None)
    args.trace_out = getattr(args, "trace_out", None)
    args.timeseries_out = getattr(args, "timeseries_out", None)
    args.trace_perfetto = getattr(args, "trace_perfetto", None)

    from repro.obs import OBS, configure, get_logger, span
    from repro.runtime import (
        CheckpointError,
        RunInterrupted,
        ShardFailure,
        SpecError,
        use_policy,
    )

    policy = _build_runtime_policy(args)
    enabled = configure(
        log_level=args.log_level,
        metrics=args.metrics_out is not None,
        trace=(
            args.trace_out is not None or args.trace_perfetto is not None
        ),
        timeseries=args.timeseries_out is not None,
        # Live progress for long runs (a \r line on a TTY, rate-limited
        # plain lines when stderr is redirected).
        progress=True,
    )
    if enabled and args.timeseries_out is not None:
        from repro.obs.timeseries import TelemetrySampler

        OBS.sampler = TelemetrySampler()
    try:
        with use_policy(policy):
            # The root of the run's trace tree: every engine span and
            # every worker's shard span is reachable from this one.
            with span(f"repro.{args.command}"):
                code = args.handler(args)
        if policy is not None and policy.quarantined_total and code == EXIT_OK:
            quarantined = policy.quarantined_total
            completeness = policy.worst_completeness
            print(
                f"repro: partial completion: {quarantined} shard(s) "
                f"quarantined by --keep-going; worst-run completeness "
                f"{completeness:.1%}",
                file=sys.stderr,
            )
            code = EXIT_PARTIAL
    except RunInterrupted as exc:
        print(f"repro: {exc}", file=sys.stderr)
        _print_resume_hint(policy, raw_argv, "progress checkpointed;")
        code = EXIT_INTERRUPTED
    except ShardFailure as exc:
        print(f"repro: {exc}", file=sys.stderr)
        cause = exc.__cause__
        if cause is not None:
            print(f"repro: cause: {type(cause).__name__}: {cause}",
                  file=sys.stderr)
        _print_resume_hint(policy, raw_argv, "completed shards are "
                           "checkpointed; after fixing the cause,")
        print(
            "repro: use --keep-going to finish with partial results "
            "instead of aborting",
            file=sys.stderr,
        )
        code = EXIT_SHARD_FAILURE
    except (CheckpointError, SpecError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    finally:
        if enabled:
            writers = [
                (args.metrics_out, OBS.registry.dump_json),
                (args.trace_out, OBS.trace.write_jsonl),
            ]
            if args.timeseries_out is not None and OBS.sampler is not None:
                # Force one final sample so even a run too short for the
                # sampling interval exports at least one data point.
                OBS.sampler.maybe_sample(force=True)
                writers.append((args.timeseries_out, OBS.sampler.write_jsonl))
            if args.trace_perfetto is not None:
                from repro.obs.exporters import write_chrome_trace

                writers.append((
                    args.trace_perfetto,
                    lambda path: write_chrome_trace(
                        path, OBS.trace.to_records()
                    ),
                ))
            for path, write in writers:
                if path:
                    try:
                        write(path)
                    except OSError as exc:
                        print(f"repro: cannot write {path}: {exc}",
                              file=sys.stderr)
                        code = 2
            if args.log_level in ("debug", "info"):
                from repro.analysis import format_metrics_table

                get_logger("cli").info(
                    "metrics summary:\n%s", format_metrics_table()
                )
        OBS.disable()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
