"""Protection-scheme machine configurations for the performance model.

Each scheme changes *how the machine moves data*, not what the workload
does.  The knobs below are the mechanisms Section XI attributes the
overheads to:

* ``lockstep_ranks`` -- ranks activated together per access.  Chipkill
  from commodity x8 parts gangs both ranks of a channel (18 chips),
  halving rank-level parallelism.
* ``lockstep_channels`` -- channels ganged per access.  Double-Chipkill
  (36 chips) pairs channels, halving channel-level parallelism too.
* ``overfetch`` -- useful cache lines fetched per access worth of bus
  time.  Ganged x8 ranks deliver two lines for every useful one (100%
  overfetch), doubling data-bus occupancy.
* ``burst_cycles`` -- data-bus cycles per burst; the extra-burst
  exposure alternative of Figure 13 stretches 8-beat bursts to 10
  (4 -> 5 bus cycles).
* ``extra_read_fraction`` / ``extra_write_fraction`` -- companion
  transactions per demand access: the extra-transaction exposure
  alternative (one ECC fetch per read) and LOT-ECC's checksum-update
  writes (Figure 14).
* ``serial_mode_rate`` -- XED's only traffic overhead: the probability
  that an access sees multiple catch-words and triggers the serialised
  re-read (Section VII-B); ~1/200K accesses even at a 1e-4 scaling
  rate, i.e. measurably negligible.
* ``dynamic_energy_scale`` -- per-access DRAM dynamic energy relative
  to the 9-chip x8 baseline.  Chipkill-class schemes use 18 x4-width
  devices (~0.55x current each), Double-Chipkill 36.

Some fields change a scheme's power or its labels but not its traffic.
:attr:`SchemeConfig.traffic_key` leaves exactly those out, so schemes
that move data identically -- XED and ECC-DIMM, XED+Chipkill and
Chipkill -- share one event-loop run in a performance grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

#: Fields neither perfsim engine reads: labels, power-model inputs and
#: the controller's correction latency.  Every other field, including
#: any added later, is part of :attr:`SchemeConfig.traffic_key`.
_TRAFFIC_EXCLUDED: Tuple[str, ...] = (
    "key",
    "name",
    "chips_per_access",
    "dynamic_energy_scale",
    "on_die_ecc",
    "correction_core_cycles",
)


@dataclass(frozen=True)
class SchemeConfig:
    """Performance/power-relevant shape of one protection scheme."""

    key: str
    name: str
    chips_per_access: int = 9
    lockstep_ranks: int = 1
    lockstep_channels: int = 1
    overfetch: int = 1
    burst_cycles: int = 4
    extra_read_fraction: float = 0.0
    extra_write_fraction: float = 0.0
    serial_mode_rate: float = 0.0
    dynamic_energy_scale: float = 1.0
    on_die_ecc: bool = True
    correction_core_cycles: int = 4

    @property
    def traffic_key(self) -> tuple:
        """All fields but the six no engine reads; equal keys run alike.

        Two configs with the same key give the same
        :class:`~repro.perfsim.engine.SimulationResult` apart from its
        ``scheme_key`` label, so a grid simulates each key once per
        workload (:func:`repro.perfsim.runner.run_suite`).
        """
        return tuple(
            getattr(self, f.name)
            for f in fields(self)
            if f.name not in _TRAFFIC_EXCLUDED
        )

    @property
    def bus_cycles_per_access(self) -> int:
        """Data-bus occupancy of one demand access."""
        return self.burst_cycles * self.overfetch


#: The baseline every figure normalises to: a SECDED ECC-DIMM.
ECC_DIMM = SchemeConfig(key="ecc_dimm", name="ECC-DIMM (SECDED)")

#: XED on the same 9-chip DIMM: timing-identical to the baseline; its
#: only overhead is the (rare) serialised re-read, disabled here and
#: enabled in the scaling-fault sensitivity runs.
XED = SchemeConfig(
    key="xed",
    name="XED (9 chips)",
    correction_core_cycles=60,  # RAID-3 erasure rebuild (Section X)
)

#: XED with a 1e-4 scaling-fault rate: multiple catch-words once per
#: ~2e-5 accesses (Table III) trigger serial-mode recovery.
XED_SCALING = replace(
    XED, key="xed_scaling", name="XED (9 chips, scaling 1e-4)",
    serial_mode_rate=2e-5,
)

#: Conventional Chipkill from x8 parts: both ranks ganged, 100%
#: overfetch (two lines per access, one useful).
CHIPKILL = SchemeConfig(
    key="chipkill",
    name="Chipkill (18 chips)",
    chips_per_access=18,
    lockstep_ranks=2,
    overfetch=2,
    dynamic_energy_scale=1.1,
)

#: XED layered on Single-Chipkill hardware (Section IX): the 18-chip
#: two-rank structure of Chipkill, with erasure decoding at the
#: controller.  Same traffic shape as Chipkill.
XED_CHIPKILL = SchemeConfig(
    key="xed_chipkill",
    name="XED + Single-Chipkill (18 chips)",
    chips_per_access=18,
    lockstep_ranks=2,
    overfetch=2,
    dynamic_energy_scale=1.1,
    correction_core_cycles=60,
)

#: Traditional Double-Chipkill: 36 chips, four ranks across a ganged
#: channel pair.
DOUBLE_CHIPKILL = SchemeConfig(
    key="double_chipkill",
    name="Double-Chipkill (36 chips)",
    chips_per_access=36,
    lockstep_ranks=2,
    lockstep_channels=2,
    overfetch=2,
    dynamic_energy_scale=2.2,
)

#: Figure 13 alternatives: exposing the on-die ECC bits by stretching
#: every burst from 8 to 10 beats (+25% bus time) ...
EXTRA_BURST_CHIPKILL = SchemeConfig(
    key="extra_burst_chipkill",
    name="Extra Burst (Chipkill-level)",
    burst_cycles=5,
    dynamic_energy_scale=1.25,
)
EXTRA_BURST_DOUBLE_CHIPKILL = SchemeConfig(
    key="extra_burst_double_chipkill",
    name="Extra Burst (Double-Chipkill-level)",
    chips_per_access=18,
    lockstep_ranks=2,
    overfetch=2,
    burst_cycles=5,
    dynamic_energy_scale=1.1 * 1.25,
)

#: ... or by issuing a second transaction per read to fetch the ECC.
EXTRA_TXN_CHIPKILL = SchemeConfig(
    key="extra_txn_chipkill",
    name="Extra Transaction (Chipkill-level)",
    extra_read_fraction=1.0,
)
EXTRA_TXN_DOUBLE_CHIPKILL = SchemeConfig(
    key="extra_txn_double_chipkill",
    name="Extra Transaction (Double-Chipkill-level)",
    chips_per_access=18,
    lockstep_ranks=2,
    overfetch=2,
    extra_read_fraction=1.0,
    dynamic_energy_scale=1.1,
)

#: LOT-ECC (Figure 14): chipkill from x8 devices via tiered checksums,
#: paying an extra checksum-update write per demand write; write
#: coalescing absorbs roughly half of them.
LOTECC = SchemeConfig(
    key="lotecc",
    name="LOT-ECC (write-coalescing)",
    extra_write_fraction=1.0,
)

SCHEME_CONFIGS: Dict[str, SchemeConfig] = {
    cfg.key: cfg
    for cfg in (
        ECC_DIMM,
        XED,
        XED_SCALING,
        CHIPKILL,
        XED_CHIPKILL,
        DOUBLE_CHIPKILL,
        EXTRA_BURST_CHIPKILL,
        EXTRA_BURST_DOUBLE_CHIPKILL,
        EXTRA_TXN_CHIPKILL,
        EXTRA_TXN_DOUBLE_CHIPKILL,
        LOTECC,
    )
}
