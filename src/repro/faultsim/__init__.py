"""FaultSim-style Monte-Carlo fault/repair simulation (Section III).

The paper evaluates reliability with FAULTSIM [32], an industry fault
simulator: sample fault events from field-measured FIT rates (Table I),
represent each fault as an address *range* inside a chip, and ask, per
protection scheme, whether any combination of concurrently live faults
becomes uncorrectable (DUE) or silently corrupting (SDC) during a
7-year lifetime.  This package is a from-scratch implementation of that
methodology:

* :mod:`repro.faultsim.fault_models` -- Table I FIT rates and fault modes.
* :mod:`repro.faultsim.fault` -- mask/value address-range faults with
  exact intersection tests (the core FaultSim trick).
* :mod:`repro.faultsim.scaling` -- scaling (birthtime) fault modelling.
* :mod:`repro.faultsim.schemes` -- per-scheme evaluators: Non-ECC,
  ECC-DIMM SECDED, XED, Chipkill, Double-Chipkill, XED+Chipkill.
* :mod:`repro.faultsim.simulator` -- the vectorised Monte-Carlo driver.
* :mod:`repro.faultsim.vectorized` -- struct-of-arrays shards and batch
  adjudication kernels (``faultsim_backend="vectorized"``).
* :mod:`repro.faultsim.differential` -- replay harness proving the
  kernels bit-identical to the ``scheme.evaluate`` reference.
* :mod:`repro.faultsim.parallel` -- deterministic shard plans, run by
  :func:`repro.runtime.run_resilient` behind ``simulate(..., workers=N)``.
* :mod:`repro.faultsim.analytical` -- closed-form models behind Figure 6
  (collisions), Table III (multi catch-words) and Table IV (SDC/DUE).
* :mod:`repro.faultsim.markov` -- closed-form Markov lifetime solver
  (``faultsim_backend="analytical"``), cross-validated against
  Monte-Carlo within Wilson intervals; see docs/theory.md.
"""

from repro.faultsim.fault_models import (
    DRAM_FIT_RATES,
    FailureMode,
    FitTable,
    HOURS_PER_YEAR,
)
from repro.faultsim.fault import AddressRange, ChipFault, FaultSpace
from repro.faultsim.scaling import ScalingFaultModel
from repro.faultsim.schemes import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    FailureKind,
    NonEccScheme,
    ProtectionScheme,
    XedChipkillScheme,
    XedScheme,
)
from repro.faultsim.simulator import (
    DEFAULT_SHARD_SIZE,
    MonteCarloConfig,
    ReliabilityResult,
    simulate,
    simulate_many,
)
from repro.faultsim.vectorized import (
    FAULTSIM_BACKENDS,
    FaultShard,
    ShardAdjudication,
    adjudicate_shard,
    validate_faultsim_backend,
)
from repro.faultsim.markov import (
    MarkovResult,
    SweepCell,
    solve,
    solve_many,
    sweep,
)
from repro.faultsim import analytical
from repro.faultsim import campaign
from repro.faultsim import differential
from repro.faultsim import markov
from repro.faultsim import parallel
from repro.faultsim import vectorized

__all__ = [
    "DRAM_FIT_RATES",
    "FailureMode",
    "FitTable",
    "HOURS_PER_YEAR",
    "AddressRange",
    "ChipFault",
    "FaultSpace",
    "ScalingFaultModel",
    "ProtectionScheme",
    "NonEccScheme",
    "EccDimmScheme",
    "XedScheme",
    "ChipkillScheme",
    "DoubleChipkillScheme",
    "XedChipkillScheme",
    "FailureKind",
    "MonteCarloConfig",
    "ReliabilityResult",
    "DEFAULT_SHARD_SIZE",
    "FAULTSIM_BACKENDS",
    "FaultShard",
    "ShardAdjudication",
    "adjudicate_shard",
    "validate_faultsim_backend",
    "simulate",
    "simulate_many",
    "MarkovResult",
    "SweepCell",
    "solve",
    "solve_many",
    "sweep",
    "analytical",
    "campaign",
    "differential",
    "markov",
    "parallel",
    "vectorized",
]
