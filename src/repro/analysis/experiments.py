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
from typing import Callable, Dict, List, Optional

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

def _reliability_config(
    scale: str,
    seed: int,
    scaling_rate: float = 0.0,
    triple: bool = False,
    faultsim_backend: str = "vectorized",
) -> MonteCarloConfig:
    if triple:
        n = QUICK_SYSTEMS_TRIPLE if scale == "quick" else FULL_SYSTEMS_TRIPLE
    else:
        n = QUICK_SYSTEMS if scale == "quick" else FULL_SYSTEMS
    return MonteCarloConfig(
        num_systems=n,
        seed=seed,
        scaling_rate=scaling_rate,
        faultsim_backend=faultsim_backend,
    )


def _run_fig1(
    scale: str = "quick",
    seed: int = 2016,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    cfg = _reliability_config(
        scale, seed, faultsim_backend=faultsim_backend
    )
    schemes = [NonEccScheme(), EccDimmScheme(), ChipkillScheme()]
    results = [simulate(s, cfg) for s in schemes]
    ecc, chipkill = results[1], results[2]
    series = {r.scheme_name: r.curve() for r in results}
    lines = [
        format_reliability_table(
            "Probability of system failure over 7 years "
            "(on-die ECC concealed):",
            results,
            baseline_name=ecc.scheme_name,
        ),
        "",
        format_series("Failure probability by year:", series),
    ]
    return _report(
        "fig1",
        lines=lines,
        data={
            "results": {r.scheme_name: r for r in results},
            "chipkill_vs_eccdimm": chipkill.improvement_over(ecc),
        },
    )


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


def _run_fig7(
    scale: str = "quick",
    seed: int = 2016,
    scaling_rate: float = 0.0,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    cfg = _reliability_config(
        scale, seed, scaling_rate, faultsim_backend=faultsim_backend
    )
    schemes = [EccDimmScheme(), XedScheme(), ChipkillScheme()]
    results = [simulate(s, cfg) for s in schemes]
    ecc, xed, chipkill = results
    series = {r.scheme_name: r.curve() for r in results}
    lines = [
        format_reliability_table(
            "Reliability of ECC-DIMM, XED and Chipkill:",
            results,
            baseline_name=ecc.scheme_name,
        ),
        "",
        format_series("Failure probability by year:", series),
    ]
    return _report(
        "fig7" if scaling_rate == 0.0 else "fig8",
        lines=lines,
        data={
            "results": {r.scheme_name: r for r in results},
            "xed_vs_eccdimm": xed.improvement_over(ecc),
            "chipkill_vs_eccdimm": chipkill.improvement_over(ecc),
            "xed_vs_chipkill": xed.improvement_over(chipkill),
        },
    )


def _run_fig8(
    scale: str = "quick",
    seed: int = 2016,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    return _run_fig7(
        scale, seed, scaling_rate=1e-4, faultsim_backend=faultsim_backend
    )


def _run_fig9(
    scale: str = "quick",
    seed: int = 2016,
    scaling_rate: float = 0.0,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    cfg = _reliability_config(
        scale, seed, scaling_rate, triple=True,
        faultsim_backend=faultsim_backend,
    )
    schemes = [ChipkillScheme(), DoubleChipkillScheme(), XedChipkillScheme()]
    results = [simulate(s, cfg) for s in schemes]
    single, double, xed_ck = results
    lines = [
        format_reliability_table(
            "Single-Chipkill vs Double-Chipkill vs XED+Single-Chipkill:",
            results,
            baseline_name=single.scheme_name,
        ),
        "",
        format_series(
            "Failure probability by year:",
            {r.scheme_name: r.curve() for r in results},
        ),
    ]
    return _report(
        "fig9" if scaling_rate == 0.0 else "fig10",
        lines=lines,
        data={
            "results": {r.scheme_name: r for r in results},
            "double_vs_single": double.improvement_over(single),
            "xedck_vs_double": xed_ck.improvement_over(double),
        },
    )


def _run_fig10(
    scale: str = "quick",
    seed: int = 2016,
    faultsim_backend: str = "vectorized",
) -> ExperimentReport:
    return _run_fig9(
        scale, seed, scaling_rate=1e-4, faultsim_backend=faultsim_backend
    )


# ---------------------------------------------------------------------------
# Performance / power figures
# ---------------------------------------------------------------------------

#: Memo for performance grids: fig11 and fig12 share the same runs, as
#: do fig13's time and power views.  Keyed by (scale, seed, schemes).
_GRID_CACHE: Dict[tuple, Dict] = {}


def _perf_grid(scale: str, seed: int, scheme_keys) -> Dict:
    key = (scale, seed, tuple(scheme_keys))
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    workloads = QUICK_WORKLOADS if scale == "quick" else WORKLOADS
    instructions = (
        QUICK_INSTRUCTIONS if scale == "quick" else FULL_INSTRUCTIONS
    )
    grid = run_suite(
        scheme_keys,
        workloads=workloads,
        instructions_per_core=instructions,
        seed=seed,
    )
    _GRID_CACHE[key] = grid
    return grid


_FIG11_SCHEMES = ("ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill")


def _run_fig11(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    grid = _perf_grid(scale, seed, _FIG11_SCHEMES)
    keys = [k for k in _FIG11_SCHEMES if k != "ecc_dimm"]
    table = format_figure_table(
        grid, keys, metric="time", title="Normalized Execution Time (Figure 11)"
    )
    gmeans = {
        key: geometric_mean(normalized_metric(grid, key).values()) for key in keys
    }
    lines = [table, "", "Gmean slowdowns: "
             + ", ".join(f"{k}={v:.3f}" for k, v in gmeans.items())]
    return _report("fig11", lines=lines, data={"grid": grid, "gmeans": gmeans})


def _run_fig12(scale: str = "quick", seed: int = 2016) -> ExperimentReport:
    grid = _perf_grid(scale, seed, _FIG11_SCHEMES)
    keys = [k for k in _FIG11_SCHEMES if k != "ecc_dimm"]
    table = format_figure_table(
        grid, keys, metric="power", title="Normalized Memory Power (Figure 12)"
    )
    gmeans = {
        key: geometric_mean(
            normalized_metric(grid, key, metric="power").values()
        )
        for key in keys
    }
    lines = [table, "", "Gmean power: "
             + ", ".join(f"{k}={v:.3f}" for k, v in gmeans.items())]
    return _report("fig12", lines=lines, data={"grid": grid, "gmeans": gmeans})


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
    suite_ratios = {}
    for suite in SUITES:
        names = [w.name for w in suite_workloads(suite) if w.name in lot]
        if not names:
            continue
        xs = geometric_mean([xed[n] for n in names])
        ls = geometric_mean([lot[n] for n in names])
        suite_ratios[suite] = (xs, ls)
        lines.append(f"{suite:>12} | {xs:6.3f} | {ls:8.3f}")
    gx = geometric_mean(xed.values())
    gl = geometric_mean(lot.values())
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
                   _run_fig1),
        Experiment("fig6", "Catch-word collision probability",
                   "collision every ~3.2M years (x8), 6.6 hours (x4)",
                   _run_fig6),
        Experiment("fig7", "Reliability of ECC-DIMM, XED, Chipkill",
                   "XED 172x better than ECC-DIMM, 4x better than Chipkill",
                   _run_fig7),
        Experiment("fig8", "Same, with scaling faults at 1e-4",
                   "ordering unchanged; XED still ~172x", _run_fig8),
        Experiment("fig9", "Double-Chipkill vs XED+Single-Chipkill",
                   "XED+CK ~8.5x better than Double-Chipkill", _run_fig9),
        Experiment("fig10", "Same, with scaling faults at 1e-4",
                   "XED+CK still ~8.5x better", _run_fig10),
        Experiment("fig11", "Normalized execution time",
                   "Chipkill +21%, Double-Chipkill +82%, XED ~0%, "
                   "XED+CK +21%; libquantum +63.5%/+220%", _run_fig11),
        Experiment("fig12", "Normalized memory power",
                   "Chipkill -8%, Double-Chipkill +8.4%, XED ~1.0",
                   _run_fig12),
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
    order = [
        "table1", "table2", "table3", "table4",
        "fig1", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fig12", "fig13", "fig14",
    ]
    ids = experiment_ids if experiment_ids is not None else order
    return {
        exp_id: run_experiment(
            exp_id, scale, seed, faultsim_backend=faultsim_backend
        )
        for exp_id in ids
    }
