"""USIMM-style DDR3 memory-system performance simulation (Section X).

The paper evaluates performance and power with USIMM, a cycle-accurate
memory simulator driven by Pinpoint traces of SPEC CPU2006 / PARSEC /
BioBench / commercial workloads on an 8-core machine (Table V).  This
package reimplements that methodology:

* :mod:`repro.perfsim.timing` -- JEDEC DDR3 timing parameters.
* :mod:`repro.perfsim.requests` -- memory request/response types.
* :mod:`repro.perfsim.dramsys` -- per-channel DRAM state machine with
  FR-FCFS scheduling, bank/rank/bus timing, write drains and refresh.
* :mod:`repro.perfsim.cpu` -- the ROB-windowed multi-core front-end.
* :mod:`repro.perfsim.engine` -- the discrete-event co-simulator.
* :mod:`repro.perfsim.trace` -- synthetic trace generation (our
  substitute for the proprietary Pinpoint slices; see DESIGN.md).
* :mod:`repro.perfsim.workloads` -- the 31-benchmark roster with
  memory-behaviour parameters.
* :mod:`repro.perfsim.power` -- Micron TN-41-01-style DDR3 power model
  with the 12.5% on-die ECC overhead.
* :mod:`repro.perfsim.configs` -- protection-scheme machine configs
  (XED, Chipkill, Double-Chipkill, extra-burst/transaction, LOT-ECC).
* :mod:`repro.perfsim.runner` -- experiment driver for Figures 11-14.
* :mod:`repro.perfsim.pipeline` -- event-driven multi-channel backend,
  bit-identical to the scalar engine and ~4-5x faster.
* :mod:`repro.perfsim.differential` -- replay harness certifying that
  identity over every Figure 11-13 cell.

Both engines sit behind ``simulate_system(..., backend=...)``; the
pipeline engine is the default everywhere, and the scalar walk stays
as the golden reference the differential harness replays against.
"""

from repro.perfsim.timing import DDR3Timing, SystemTiming
from repro.perfsim.requests import MemoryRequest, RequestType
from repro.perfsim.configs import SchemeConfig, SCHEME_CONFIGS
from repro.perfsim.workloads import Workload, WORKLOADS, workload_by_name
from repro.perfsim.trace import SyntheticTrace, TraceOp, TraceArrays, build_trace_arrays
from repro.perfsim.engine import (
    PERFSIM_BACKENDS,
    SimulationResult,
    simulate_system,
    validate_perfsim_backend,
)
from repro.perfsim.pipeline import simulate_system_pipeline
from repro.perfsim.differential import (
    FIGURE_SCHEMES,
    CellCertificate,
    PerfsimMismatch,
    diff_results,
    replay_cell,
    replay_figures,
    replay_grid,
)
from repro.perfsim.power import PowerModel, PowerBreakdown
from repro.perfsim.runner import (
    BenchmarkRun,
    run_benchmark,
    run_suite,
    normalized_metric,
    suite_fingerprint,
)

__all__ = [
    "DDR3Timing",
    "SystemTiming",
    "MemoryRequest",
    "RequestType",
    "SchemeConfig",
    "SCHEME_CONFIGS",
    "Workload",
    "WORKLOADS",
    "workload_by_name",
    "SyntheticTrace",
    "TraceOp",
    "TraceArrays",
    "build_trace_arrays",
    "PERFSIM_BACKENDS",
    "SimulationResult",
    "simulate_system",
    "validate_perfsim_backend",
    "simulate_system_pipeline",
    "FIGURE_SCHEMES",
    "CellCertificate",
    "PerfsimMismatch",
    "diff_results",
    "replay_cell",
    "replay_figures",
    "replay_grid",
    "PowerModel",
    "PowerBreakdown",
    "BenchmarkRun",
    "run_benchmark",
    "run_suite",
    "normalized_metric",
    "suite_fingerprint",
]
