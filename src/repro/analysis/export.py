"""Export regenerated experiment data to plain files.

Every experiment report can be dumped as a text transcript plus CSV
files of its structured payloads -- the reliability failure curves, the
performance/power grids, the detection-rate tables -- so downstream
plotting (matplotlib, gnuplot, a spreadsheet) can regenerate the
paper's figures without re-running the simulations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.experiments import ExperimentReport
from repro.ecc.detection import DetectionReport
from repro.faultsim.markov import MarkovResult
from repro.faultsim.simulator import ReliabilityResult


def export_report(
    report: ExperimentReport,
    directory: str | Path,
    svg: bool = False,
    provenance: Optional[Dict[str, object]] = None,
) -> List[Path]:
    """Write the report transcript and CSVs; returns the created paths.

    With ``svg=True``, experiments carrying reliability curves or
    performance grids additionally get a chart rendered by
    :mod:`repro.analysis.svgplot`.

    ``provenance`` (when given) is written alongside the data as
    ``{exp_id}_provenance.json`` -- how the numbers were produced:
    code version, seed, scale, and the fault-tolerance outcome of each
    underlying run (completeness, retries, quarantined shards), so a
    partial ``--keep-going`` artifact can never masquerade as a
    complete one.
    """
    outdir = Path(directory)
    outdir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    text_path = outdir / f"{report.experiment_id}.txt"
    text_path.write_text(report.text + "\n")
    written.append(text_path)

    for key, value in report.data.items():
        written.extend(_export_value(report.experiment_id, key, value, outdir))

    if svg:
        written.extend(_export_svg(report, outdir))

    if provenance is not None:
        prov_path = outdir / f"{report.experiment_id}_provenance.json"
        prov_path.write_text(
            json.dumps(provenance, indent=2, sort_keys=True) + "\n"
        )
        written.append(prov_path)
    return written


def _export_svg(report: ExperimentReport, outdir: Path) -> List[Path]:
    from repro.analysis import svgplot

    written: List[Path] = []
    if "results" in report.data:
        written.append(
            svgplot.plot_reliability_figure(
                report, outdir / f"{report.experiment_id}.svg"
            )
        )
    elif "grid" in report.data:
        metric = "power" if report.experiment_id == "fig12" else "time"
        written.append(
            svgplot.plot_performance_figure(
                report, outdir / f"{report.experiment_id}.svg", metric=metric
            )
        )
    return written


def _export_value(exp_id: str, key: str, value, outdir: Path) -> List[Path]:
    if isinstance(value, dict) and value and all(
        isinstance(v, (ReliabilityResult, MarkovResult))
        for v in value.values()
    ):
        return [_export_reliability(exp_id, key, value, outdir)]
    if isinstance(value, DetectionReport):
        return [_export_detection(exp_id, key, value, outdir)]
    if _looks_like_perf_grid(value):
        return [_export_grid(exp_id, key, value, outdir)]
    if isinstance(value, dict) and value and all(
        isinstance(v, (int, float)) for v in value.values()
    ):
        return [_export_scalars(exp_id, key, value, outdir)]
    return []


def _export_reliability(
    exp_id: str,
    key: str,
    results: "Dict[str, ReliabilityResult | MarkovResult]",
    outdir: Path,
) -> Path:
    path = outdir / f"{exp_id}_{key}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scheme", "year", "probability_of_failure", "num_systems",
             "failures", "ci_low", "ci_high"]
        )
        for name, result in results.items():
            lo, hi = result.confidence_interval()
            for year, prob in result.curve():
                writer.writerow(
                    [name, year, f"{prob:.6e}", result.num_systems,
                     result.failures, f"{lo:.6e}", f"{hi:.6e}"]
                )
    return path


def _export_detection(
    exp_id: str, key: str, report: DetectionReport, outdir: Path
) -> Path:
    path = outdir / f"{exp_id}_{key}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["code", "errors", "random_rate", "burst_rate"])
        for code, modes in report.rates.items():
            for i, errors in enumerate(report.error_counts):
                writer.writerow(
                    [code, errors,
                     f"{modes['random'][i]:.6f}", f"{modes['burst'][i]:.6f}"]
                )
    return path


def _looks_like_perf_grid(value) -> bool:
    if not isinstance(value, dict) or not value:
        return False
    first = next(iter(value.values()))
    if not isinstance(first, dict) or not first:
        return False
    run = next(iter(first.values()))
    return hasattr(run, "exec_bus_cycles") and hasattr(run, "power")


def _export_grid(exp_id: str, key: str, grid, outdir: Path) -> Path:
    path = outdir / f"{exp_id}_{key}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["workload", "scheme", "exec_bus_cycles", "power_w",
             "row_hit_rate", "mean_read_latency"]
        )
        for workload, row in grid.items():
            for scheme, run in row.items():
                stats = run.result.channel_stats
                writer.writerow(
                    [workload, scheme,
                     f"{run.exec_bus_cycles:.1f}",
                     f"{run.power.total:.3f}",
                     f"{stats.row_hit_rate:.4f}",
                     f"{stats.mean_read_latency:.2f}"]
                )
    return path


def _export_scalars(
    exp_id: str, key: str, values: Dict[str, float], outdir: Path
) -> Path:
    path = outdir / f"{exp_id}_{key}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value"])
        for name, value in values.items():
            writer.writerow([name, repr(value)])
    return path
