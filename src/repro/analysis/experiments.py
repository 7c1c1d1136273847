"""Registry of every table/figure experiment in the paper's evaluation.

Each entry knows how to regenerate one published result at two scales:

* ``quick`` -- seconds; used by integration tests and smoke runs.
* ``full`` -- the scale the benchmark harness uses; minutes total.

The Monte-Carlo populations are far below the paper's 1e9 systems (see
DESIGN.md), so experiments report binomial confidence intervals and the
assertions in ``tests/`` and ``benchmarks/`` check *bands and
orderings*, not exact figures.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.formatting import format_reliability_table, format_series
from repro.core.catch_word import CollisionModel
from repro.ecc import CRC8ATMCode, HammingSECDED, detection_table
from repro.faultsim import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    MonteCarloConfig,
    NonEccScheme,
    XedChipkillScheme,
    XedScheme,
    analytical,
    simulate,
)
from repro.faultsim.fault_models import FitTable
from repro.perfsim.runner import (
    format_figure_table,
    geometric_mean,
    normalized_metric,
    run_suite,
)
from repro.perfsim.workloads import SUITES, WORKLOADS, suite_workloads

QUICK_SYSTEMS = 150_000
FULL_SYSTEMS = 4_000_000
QUICK_SYSTEMS_TRIPLE = 400_000
FULL_SYSTEMS_TRIPLE = 16_000_000

QUICK_WORKLOADS = [
    w for w in WORKLOADS
    if w.name in ("libquantum", "mcf", "lbm", "omnetpp", "stream", "gcc")
]
QUICK_INSTRUCTIONS = 20_000
FULL_INSTRUCTIONS = 100_000


@dataclass
class ExperimentReport:
    """Printable, assertable result of one regenerated experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    lines: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def text(self) -> str:
        """Full report body: summary tables plus any notes."""
        return "\n".join(
            [f"== {self.experiment_id}: {self.title}",
             f"   paper: {self.paper_claim}", ""]
            + self.lines
        )


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: id, title, paper claim, runner."""

    experiment_id: str
    title: str
    paper_claim: str
    runner: Callable[..., ExperimentReport]


def _report(exp_id: str, **kwargs) -> ExperimentReport:
    meta = EXPERIMENTS[exp_id]
    return ExperimentReport(
        experiment_id=exp_id,
        title=meta.title,
        paper_claim=meta.paper_claim,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def _run_table1(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    fit = FitTable()
    lines = ["DRAM failures per billion hours (FIT) per chip:"]
    for mode, rate in fit.rates.items():
        lines.append(
            f"  {mode.value:14s} transient {rate.transient:5.1f}  "
            f"permanent {rate.permanent:5.1f}"
        )
    lines.append(f"  total per-chip FIT: {fit.total_fit:.1f}")
    lines.append(
        f"  beyond on-die ECC:  {fit.uncorrectable_by_on_die_fit:.1f} FIT"
    )
    return _report(
        "table1",
        lines=lines,
        data={"total_fit": fit.total_fit, "fit": fit},
    )


def _run_table2(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    samples = 20_000 if scale == "quick" else 200_000
    report = detection_table(
        {"Hamming": HammingSECDED(), "CRC8-ATM": CRC8ATMCode()},
        random_samples=samples,
        seed=seed,
    )
    contiguous = detection_table(
        {"Hamming": HammingSECDED(), "CRC8-ATM": CRC8ATMCode()},
        random_samples=samples // 10,
        burst_mode="contiguous",
        seed=seed,
    )
    lines = [report.format_table(), "",
             "(contiguous-run burst interpretation:)",
             contiguous.format_table()]
    return _report(
        "table2",
        lines=lines,
        data={"aligned": report, "contiguous": contiguous},
    )


def _run_table3(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    rows = analytical.table_iii()
    lines = ["Likelihood of multiple catch-words per access (Table III):",
             f"{'scaling rate':>14} | {'paper approx':>12} | {'exact >=2-of-8':>14} | "
             f"{'serial-mode interval':>22}"]
    for rate, vals in rows.items():
        lines.append(
            f"{rate:14.0e} | {vals['paper_approx']:12.1e} | "
            f"{vals['exact']:14.1e} | {vals['serial_mode_interval']:18.3g} acc"
        )
    return _report("table3", lines=lines, data={"rows": rows})


def _run_table4(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    table = analytical.table_iv()
    lines = [table.format_table()]
    lines.append(
        "  (analytic multi-chip estimate; the Monte-Carlo value is the "
        "XED row of fig7)"
    )
    return _report("table4", lines=lines, data={"table": table})


# ---------------------------------------------------------------------------
# Reliability figures
# ---------------------------------------------------------------------------

class _ReliabilityFigure(NamedTuple):
    """Figs 1 and 7-10: three schemes over one Monte-Carlo population,
    a P(fail) table against a baseline and failure-by-year curves."""

    schemes: Tuple[Callable, ...]
    title: str
    #: Position in ``schemes`` of the table's baseline.
    baseline: int
    #: Systems simulated at the quick and the full scale.
    population: Tuple[int, int]
    scaling_rate: float
    #: ``report.data`` ratios: (key, scheme position, over position).
    ratios: Tuple[Tuple[str, int, int], ...]


_FIG7 = _ReliabilityFigure(
    (EccDimmScheme, XedScheme, ChipkillScheme),
    "Reliability of ECC-DIMM, XED and Chipkill:",
    0, (QUICK_SYSTEMS, FULL_SYSTEMS), 0.0,
    (("xed_vs_eccdimm", 1, 0), ("chipkill_vs_eccdimm", 2, 0),
     ("xed_vs_chipkill", 1, 2)),
)
_FIG9 = _ReliabilityFigure(
    (ChipkillScheme, DoubleChipkillScheme, XedChipkillScheme),
    "Single-Chipkill vs Double-Chipkill vs XED+Single-Chipkill:",
    0, (QUICK_SYSTEMS_TRIPLE, FULL_SYSTEMS_TRIPLE), 0.0,
    (("double_vs_single", 1, 0), ("xedck_vs_double", 2, 1)),
)
_RELIABILITY_FIGURES: Dict[str, _ReliabilityFigure] = {
    "fig1": _ReliabilityFigure(
        (NonEccScheme, EccDimmScheme, ChipkillScheme),
        "Probability of system failure over 7 years "
        "(on-die ECC concealed):",
        1, (QUICK_SYSTEMS, FULL_SYSTEMS), 0.0,
        (("chipkill_vs_eccdimm", 2, 1),),
    ),
    "fig7": _FIG7,
    "fig8": _FIG7._replace(scaling_rate=1e-4),
    "fig9": _FIG9,
    "fig10": _FIG9._replace(scaling_rate=1e-4),
}


def _run_reliability_figure(
    exp_id: str,
    scale: str = "quick",
    seed: int = 2016,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    fig = _RELIABILITY_FIGURES[exp_id]
    quick, full = fig.population
    cfg = MonteCarloConfig(
        num_systems=quick if scale == "quick" else full,
        seed=seed,
        scaling_rate=fig.scaling_rate,
        faultsim_backend=faultsim_backend,
    )
    schemes = [make() for make in fig.schemes]
    results = [simulate(s, cfg) for s in schemes]
    lines = [
        format_reliability_table(
            fig.title, results, baseline_name=results[fig.baseline].scheme_name
        ),
        "",
        format_series(
            "Failure probability by year:",
            {r.scheme_name: r.curve() for r in results},
        ),
    ]
    data: Dict[str, object] = {"results": {r.scheme_name: r for r in results}}
    for key, scheme, over in fig.ratios:
        data[key] = results[scheme].improvement_over(results[over])
    return _report(exp_id, lines=lines, data=data)


def _run_fig6(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    x8 = CollisionModel(catch_word_bits=64)
    x4 = CollisionModel(catch_word_bits=32)
    series = {
        "x8 (64-bit catch-word)": x8.probability_curve(),
        "x4 (32-bit catch-word)": x4.probability_curve(
            [10.0 ** e for e in range(-4, 5)]
        ),
    }
    lines = [
        f"mean time to collision, x8: {x8.mean_years_to_collision():.3g} years "
        "(paper: 3.2 million years)",
        f"mean time to collision, x4: "
        f"{x4.mean_years_to_collision() * 365.25 * 24:.3g} hours "
        "(paper: 6.6 hours)",
        f"P(chip stores catch-word): "
        f"{x8.per_chip_stored_match_probability:.2e} (paper: 2^-37 = 7.3e-12)",
        "",
        format_series(
            "P(collision) vs lifetime (years):",
            {k: v for k, v in series.items()},
        ),
    ]
    return _report(
        "fig6",
        lines=lines,
        data={
            "x8_mean_years": x8.mean_years_to_collision(),
            "x4_mean_hours": x4.mean_years_to_collision() * 365.25 * 24,
        },
    )


# ---------------------------------------------------------------------------
# Performance / power figures
# ---------------------------------------------------------------------------

#: Performance-grid cells per (scale, seed), shared by every figure:
#: fig12 is fig11's grid, and fig13 and fig14 reuse its ECC-DIMM, XED
#: and XED+Chipkill columns.  Each entry holds the scheme keys already
#: simulated and the cells as {workload: {scheme_key: BenchmarkRun}}.
_GRID_CELLS: Dict[tuple, Tuple[set, Dict]] = {}


def _perf_grid(scale: str, seed: int, scheme_keys) -> Dict:
    """The (workload x ``scheme_keys``) grid, rows in ``scheme_keys`` order.

    Simulates only the keys no earlier figure of this scale and seed
    has; a cell quarantined under ``--keep-going`` stays a hole.
    """
    simulated, cells = _GRID_CELLS.setdefault((scale, seed), (set(), {}))
    workloads = QUICK_WORKLOADS if scale == "quick" else WORKLOADS
    instructions = (
        QUICK_INSTRUCTIONS if scale == "quick" else FULL_INSTRUCTIONS
    )
    missing = [key for key in scheme_keys if key not in simulated]
    if missing:
        grid = run_suite(
            missing,
            workloads=workloads,
            instructions_per_core=instructions,
            seed=seed,
        )
        for name, row in grid.items():
            cells.setdefault(name, {}).update(row)
        simulated.update(missing)
    return {
        w.name: {
            key: cells[w.name][key]
            for key in scheme_keys
            if key in cells.get(w.name, {})
        }
        for w in workloads
    }


_FIG11_SCHEMES = ("ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill")


#: Figs 11 and 12 read one grid as time or power:
#: metric -> (experiment id, table title, gmean label).
_PERF_FIGURES = {
    "time": ("fig11", "Normalized Execution Time (Figure 11)",
             "Gmean slowdowns"),
    "power": ("fig12", "Normalized Memory Power (Figure 12)", "Gmean power"),
}


def _run_perf_figure(
    metric: str, scale: str = "quick", seed: int = 2016
) -> ExperimentReport:
    exp_id, title, label = _PERF_FIGURES[metric]
    grid = _perf_grid(scale, seed, _FIG11_SCHEMES)
    keys = [k for k in _FIG11_SCHEMES if k != "ecc_dimm"]
    table = format_figure_table(grid, keys, metric=metric, title=title)
    gmeans = {
        key: geometric_mean(
            normalized_metric(grid, key, metric=metric).values()
        )
        for key in keys
    }
    lines = [table, "", f"{label}: "
             + ", ".join(f"{k}={v:.3f}" for k, v in gmeans.items())]
    return _report(exp_id, lines=lines, data={"grid": grid, "gmeans": gmeans})


_FIG13_SCHEMES = (
    "ecc_dimm",
    "xed",
    "extra_burst_chipkill",
    "extra_txn_chipkill",
    "xed_chipkill",
    "extra_burst_double_chipkill",
    "extra_txn_double_chipkill",
)


def _run_fig13(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    grid = _perf_grid(scale, seed, _FIG13_SCHEMES)
    keys = [k for k in _FIG13_SCHEMES if k != "ecc_dimm"]
    time_g = {
        k: geometric_mean(normalized_metric(grid, k).values()) for k in keys
    }
    power_g = {
        k: geometric_mean(normalized_metric(grid, k, metric="power").values())
        for k in keys
    }
    lines = [
        "Exposure alternatives vs XED "
        "(gmean, normalized to ECC-DIMM; Figure 13):",
        f"{'scheme':>34} | {'exec time':>9} | {'power':>6}",
    ]
    for k in keys:
        lines.append(f"{k:>34} | {time_g[k]:9.3f} | {power_g[k]:6.3f}")
    return _report(
        "fig13", lines=lines, data={"time": time_g, "power": power_g, "grid": grid}
    )


def _run_fig14(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    grid = _perf_grid(scale, seed, ("ecc_dimm", "xed", "lotecc"))
    lot = normalized_metric(grid, "lotecc")
    xed = normalized_metric(grid, "xed")
    lines = [
        "LOT-ECC vs XED, normalized execution time (Figure 14):",
        f"{'suite':>12} | {'XED':>6} | {'LOT-ECC':>8}",
    ]
    # Names present in both columns: a --keep-going hole drops a row.
    both = [name for name in xed if name in lot]
    suite_ratios = {}
    for suite in SUITES:
        names = [w.name for w in suite_workloads(suite) if w.name in both]
        if not names:
            continue
        xs = geometric_mean([xed[n] for n in names])
        ls = geometric_mean([lot[n] for n in names])
        suite_ratios[suite] = (xs, ls)
        lines.append(f"{suite:>12} | {xs:6.3f} | {ls:8.3f}")
    gx = geometric_mean([xed[n] for n in both])
    gl = geometric_mean([lot[n] for n in both])
    lines.append(f"{'GMEAN':>12} | {gx:6.3f} | {gl:8.3f}")
    lines.append(
        f"LOT-ECC slowdown over XED: {(gl / gx - 1) * 100:.1f}% "
        "(paper: 6.6%)"
    )
    return _report(
        "fig14",
        lines=lines,
        data={"gmean_xed": gx, "gmean_lotecc": gl, "suites": suite_ratios},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Experiment] = {
    e.experiment_id: e
    for e in (
        Experiment("table1", "DRAM failure rates (input data)",
                   "Table I FIT rates from Sridharan et al.", _run_table1),
        Experiment("table2", "Detection rate of random and burst errors",
                   "CRC8-ATM detects 100% of bursts; Hamming ~50%; "
                   "both ~99% on random even-weight errors", _run_table2),
        Experiment("table3", "Likelihood of multiple catch-words",
                   "2e-5 / 2e-7 / 2e-9 at scaling rates 1e-4/1e-5/1e-6",
                   _run_table3),
        Experiment("table4", "SDC and DUE rates of XED",
                   "SDC 1.4e-13, DUE 6.1e-6, multi-chip loss 5.8e-4",
                   _run_table4),
        Experiment("fig1", "Reliability with On-Die ECC concealed",
                   "ECC-DIMM adds ~nothing over Non-ECC; Chipkill ~43x better",
                   partial(_run_reliability_figure, "fig1")),
        Experiment("fig6", "Catch-word collision probability",
                   "collision every ~3.2M years (x8), 6.6 hours (x4)",
                   _run_fig6),
        Experiment("fig7", "Reliability of ECC-DIMM, XED, Chipkill",
                   "XED 172x better than ECC-DIMM, 4x better than Chipkill",
                   partial(_run_reliability_figure, "fig7")),
        Experiment("fig8", "Same, with scaling faults at 1e-4",
                   "ordering unchanged; XED still ~172x",
                   partial(_run_reliability_figure, "fig8")),
        Experiment("fig9", "Double-Chipkill vs XED+Single-Chipkill",
                   "XED+CK ~8.5x better than Double-Chipkill",
                   partial(_run_reliability_figure, "fig9")),
        Experiment("fig10", "Same, with scaling faults at 1e-4",
                   "XED+CK still ~8.5x better",
                   partial(_run_reliability_figure, "fig10")),
        Experiment("fig11", "Normalized execution time",
                   "Chipkill +21%, Double-Chipkill +82%, XED ~0%, "
                   "XED+CK +21%; libquantum +63.5%/+220%",
                   partial(_run_perf_figure, "time")),
        Experiment("fig12", "Normalized memory power",
                   "Chipkill -8%, Double-Chipkill +8.4%, XED ~1.0",
                   partial(_run_perf_figure, "power")),
        Experiment("fig13", "Exposure alternatives (burst/transaction)",
                   "both alternatives cost more time and power than XED",
                   _run_fig13),
        Experiment("fig14", "LOT-ECC comparison",
                   "LOT-ECC 6.6% slower than XED", _run_fig14),
    )
}


def run_experiment(
    experiment_id: str,
    scale: str = "quick",
    seed: int = 2016,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    """Regenerate one of the paper's tables/figures by id.

    ``faultsim_backend`` selects how the reliability figures compute
    failure probabilities: ``vectorized`` Monte-Carlo (the default) or
    the closed-form ``analytical`` solver.  Experiments without a
    reliability simulation ignore it.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    if scale not in ("quick", "full"):
        raise ValueError("scale must be 'quick' or 'full'")
    from repro.faultsim.vectorized import validate_faultsim_backend

    validate_faultsim_backend(faultsim_backend)
    runner = EXPERIMENTS[experiment_id].runner
    kwargs = {"scale": scale, "seed": seed}
    if "faultsim_backend" in inspect.signature(runner).parameters:
        kwargs["faultsim_backend"] = faultsim_backend
    return runner(**kwargs)


def reproduce_all(
    scale: str = "quick",
    seed: int = 2016,
    experiment_ids: Optional[List[str]] = None,
    faultsim_backend: str = "vectorized",
) -> Dict[str, ExperimentReport]:
    """Regenerate every table and figure (or a chosen subset), in the
    paper's order.  The whole-evaluation equivalent of the benchmark
    harness, usable from a notebook or the ``repro all`` CLI."""
    ids = EXPERIMENTS if experiment_ids is None else experiment_ids
    return {
        exp_id: run_experiment(
            exp_id, scale, seed, faultsim_backend=faultsim_backend
        )
        for exp_id in ids
    }
