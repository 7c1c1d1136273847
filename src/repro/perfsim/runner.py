"""Experiment driver for the performance/power figures (11-14).

Runs (workload, scheme) grids, normalises against the ECC-DIMM
baseline, and formats the per-benchmark / geometric-mean tables the
paper's figures plot.

A grid simulates each distinct machine once.  Schemes whose configs
share a :attr:`~repro.perfsim.configs.SchemeConfig.traffic_key` (XED and
ECC-DIMM, XED+Chipkill and Chipkill) move data identically, so
:func:`run_suite` runs one simulation per (workload, traffic key) and
labels a copy of it for every scheme of the group, each with power from
its own config.  Those simulations are the shards of
:func:`repro.runtime.run_resilient`: in-process or on a process pool
(``workers > 1``), with per-shard checkpointing when a
:class:`~repro.runtime.executor.RuntimePolicy` asks for it (the CLI's
``--checkpoint``/``--resume``/``--keep-going`` flags).  Cell results are
deterministic for any worker count and either engine, so the
checkpoint fingerprint excludes both.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import OBS, span
from repro.obs.progress import progress
from repro.perfsim.configs import SCHEME_CONFIGS, SchemeConfig
from repro.perfsim.engine import (
    SimulationResult,
    simulate_system,
    validate_perfsim_backend,
)
from repro.perfsim.power import PowerBreakdown, PowerModel
from repro.perfsim.timing import SystemTiming
from repro.perfsim.workloads import WORKLOADS, Workload, workload_by_name
from repro.runtime.checkpoint import RunFingerprint, config_digest
from repro.runtime.executor import RuntimePolicy, run_resilient
from repro.version import __version__


@dataclass
class BenchmarkRun:
    """One workload under one scheme, with derived power."""

    workload: str
    scheme_key: str
    result: SimulationResult
    power: PowerBreakdown

    @property
    def exec_bus_cycles(self) -> float:
        """Simulated execution time in DRAM bus cycles."""
        return self.result.exec_bus_cycles

    def to_payload(self) -> dict:
        """JSON-serialisable checkpoint payload for one grid cell.

        Self-describing (workload and scheme ride along), so a grid
        resumed under ``--keep-going`` can be reassembled even when
        quarantined cells leave holes in the plan-order list.
        """
        return {
            "workload": self.workload,
            "scheme_key": self.scheme_key,
            "result": self.result.to_payload(),
            "power": {
                "background": float(self.power.background),
                "activate": float(self.power.activate),
                "read_write": float(self.power.read_write),
                "refresh": float(self.power.refresh),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BenchmarkRun":
        """Rebuild a grid cell from :meth:`to_payload` output."""
        power = payload["power"]
        return cls(
            workload=payload["workload"],
            scheme_key=payload["scheme_key"],
            result=SimulationResult.from_payload(payload["result"]),
            power=PowerBreakdown(
                background=float(power["background"]),
                activate=float(power["activate"]),
                read_write=float(power["read_write"]),
                refresh=float(power["refresh"]),
            ),
        )


def run_benchmark(
    workload: Workload | str,
    config: SchemeConfig | str,
    system: Optional[SystemTiming] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    backend: str = "pipeline",
) -> BenchmarkRun:
    """Simulate one (workload, scheme) pair and compute its power.

    ``backend`` picks the engine (see :func:`simulate_system`).
    """
    if isinstance(workload, str):
        workload = workload_by_name(workload)
    if isinstance(config, str):
        config = SCHEME_CONFIGS[config]
    system = system or SystemTiming()
    with span("perfsim.benchmark_s"):
        result = simulate_system(
            workload, config, system, instructions_per_core, seed,
            backend=backend,
        )
        power = PowerModel(timing=system.ddr).compute(result, config)
    return BenchmarkRun(workload.name, config.key, result, power)


def _scheme_groups(scheme_keys: Sequence[str]) -> List[Tuple[str, ...]]:
    """Scheme keys grouped by traffic key, in order of first appearance."""
    groups: Dict[tuple, List[str]] = {}
    for key in scheme_keys:
        groups.setdefault(SCHEME_CONFIGS[key].traffic_key, []).append(key)
    return [tuple(keys) for keys in groups.values()]


def _suite_shard(
    workload: Workload,
    scheme_keys: Tuple[str, ...],
    system: SystemTiming,
    instructions_per_core: int,
    seed: int,
    backend: str,
) -> List[BenchmarkRun]:
    """Simulate one machine once and return a run per scheme sharing it.

    Module-level so the spawn pool can pickle it.  The first scheme's
    config drives the engine; every other scheme in ``scheme_keys``
    has the same traffic key, so it gets a relabelled copy of that
    result, with power computed from its own config.
    """
    first = run_benchmark(
        workload,
        SCHEME_CONFIGS[scheme_keys[0]],
        system=system,
        instructions_per_core=instructions_per_core,
        seed=seed,
        backend=backend,
    )
    runs = [first]
    payload = first.result.to_payload()
    model = PowerModel(timing=system.ddr)
    for key in scheme_keys[1:]:
        result = SimulationResult.from_payload({**payload, "scheme_key": key})
        power = model.compute(result, SCHEME_CONFIGS[key])
        runs.append(BenchmarkRun(workload.name, key, result, power))
    if OBS.enabled and len(runs) > 1:
        OBS.registry.counter("perfsim.cells_shared").inc(len(runs) - 1)
    return runs


def suite_fingerprint(
    scheme_keys: Sequence[str],
    workloads: Sequence[Workload],
    instructions_per_core: int,
    seed: int,
    system: SystemTiming,
) -> RunFingerprint:
    """Run-identity fingerprint of one performance grid.

    Everything that can change a cell's contents goes into the config
    hash -- the scheme list, every workload's behaviour parameters, the
    instruction budget and the full machine timing -- and so does the
    shard plan: the schemes grouped by traffic key, one shard per
    (workload, group).  A checkpoint written under another plan, such
    as one cell per record, therefore never matches.  The engine and
    worker count are deliberately *excluded*: cells are bit-identical
    across both (enforced by :mod:`repro.perfsim.differential`), so a
    grid checkpointed under one engine resumes under the other.
    """
    groups = _scheme_groups(scheme_keys)
    description = {
        "schemes": list(scheme_keys),
        "groups": [list(group) for group in groups],
        "workloads": [
            [w.name, w.mpki, w.row_buffer_hit_rate, w.write_fraction,
             w.bank_locality, w.footprint_lines]
            for w in workloads
        ],
        "instructions_per_core": instructions_per_core,
        "system": asdict(system),
    }
    return RunFingerprint(
        kind="perfsim.grid",
        seed=seed,
        total=len(groups) * len(workloads),
        shard_size=1,
        config_hash=config_digest(description),
        code_version=__version__,
    )


def run_suite(
    scheme_keys: Sequence[str],
    workloads: Optional[Iterable[Workload]] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    system: Optional[SystemTiming] = None,
    backend: str = "pipeline",
    workers: int = 1,
    runtime: Optional[RuntimePolicy] = None,
) -> Dict[str, Dict[str, BenchmarkRun]]:
    """Run a grid: {workload: {scheme_key: BenchmarkRun}}.

    Each row lists its schemes in ``scheme_keys`` order.  The plan has
    one shard of :func:`repro.runtime.run_resilient` per workload and
    traffic key (see :func:`_suite_shard`), run on ``workers``
    processes and assembled in plan order, so the grid is identical
    for any worker count.  ``runtime`` (else the ambient policy
    installed by :func:`repro.runtime.use_policy`, else
    ``RuntimePolicy()``) sets per-shard checkpoints, resume, retry and
    quarantine; a quarantined shard leaves its cells out of their row.
    ``backend`` selects the engine (see :func:`simulate_system`;
    results are bit-identical).
    """
    validate_perfsim_backend(backend)
    workloads = list(workloads) if workloads is not None else list(WORKLOADS)
    system = system or SystemTiming()
    groups = _scheme_groups(scheme_keys)
    plan: List[Tuple[Workload, Tuple[str, ...]]] = [
        (workload, group) for workload in workloads for group in groups
    ]
    shard_args = [
        (workload, group, system, instructions_per_core, seed, backend)
        for workload, group in plan
    ]
    cells = len(workloads) * len(scheme_keys)
    reporter = progress(cells, "perf grid")

    def _shard_done(index: int) -> None:
        reporter.update(len(plan[index][1]))

    try:
        with span(
            "perfsim.suite",
            backend=backend,
            workers=workers,
            cells=cells,
            simulations=len(plan),
        ):
            shards, _outcome = run_resilient(
                _suite_shard,
                shard_args,
                workers=workers,
                fingerprint=suite_fingerprint(
                    scheme_keys, workloads, instructions_per_core,
                    seed, system,
                ),
                policy=runtime,
                encode=lambda runs: {
                    "cells": [run.to_payload() for run in runs]
                },
                decode=lambda payload: [
                    BenchmarkRun.from_payload(cell)
                    for cell in payload["cells"]
                ],
                on_shard_done=_shard_done,
            )
    finally:
        reporter.close()

    # Place each run by its own labels: under --keep-going, quarantined
    # shards leave holes, and a shard's cells are not adjacent in a row.
    found = {
        (run.workload, run.scheme_key): run
        for runs in shards
        for run in runs
    }
    grid: Dict[str, Dict[str, BenchmarkRun]] = {}
    for workload in workloads:
        row = grid.setdefault(workload.name, {})
        for key in scheme_keys:
            run = found.get((workload.name, key))
            if run is not None:
                row[key] = run
    return grid


def normalized_metric(
    grid: Dict[str, Dict[str, BenchmarkRun]],
    scheme_key: str,
    metric: str = "time",
) -> Dict[str, float]:
    """Per-workload metric normalised to the ECC-DIMM baseline.

    ``metric`` is ``"time"`` (Figure 11/13/14) or ``"power"``
    (Figure 12/13).  A workload whose row lacks the scheme's cell or
    the baseline's (a hole left by ``--keep-going``) is left out.
    """
    if metric not in ("time", "power"):
        raise ValueError(f"unknown metric {metric!r}")
    out: Dict[str, float] = {}
    for name, row in grid.items():
        base = row.get("ecc_dimm")
        run = row.get(scheme_key)
        if base is None or run is None:
            continue
        if metric == "time":
            out[name] = run.exec_bus_cycles / base.exec_bus_cycles
        else:
            out[name] = run.power.total / base.power.total
    return out


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's cross-workload summary statistic."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of nothing")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_figure_table(
    grid: Dict[str, Dict[str, BenchmarkRun]],
    scheme_keys: Sequence[str],
    metric: str = "time",
    title: str = "Normalized Execution Time",
) -> str:
    """Render a Figure-11/12-style table: workloads x schemes + Gmean.

    A cell missing from a partial grid prints ``n/a``, and each Gmean
    is taken over the cells present in its column.
    """
    per_scheme: Dict[str, Dict[str, float]] = {
        key: normalized_metric(grid, key, metric=metric)
        for key in scheme_keys
    }
    names = list(grid.keys())
    header = f"{title} (baseline: {SCHEME_CONFIGS['ecc_dimm'].name})"
    col_heads = " | ".join(f"{SCHEME_CONFIGS[k].name[:26]:>26}" for k in scheme_keys)
    lines = [header, f"{'benchmark':>12} | {col_heads}"]
    for name in names:
        cells = " | ".join(
            f"{per_scheme[key][name]:26.3f}" if name in per_scheme[key]
            else f"{'n/a':>26}"
            for key in scheme_keys
        )
        lines.append(f"{name:>12} | {cells}")
    gmeans = " | ".join(
        f"{geometric_mean(per_scheme[key].values()):26.3f}" if per_scheme[key]
        else f"{'n/a':>26}"
        for key in scheme_keys
    )
    lines.append(f"{'Gmean':>12} | {gmeans}")
    return "\n".join(lines)
