"""Micron TN-41-01-style DDR3 memory power model (Figure 12).

Computes memory power from the channel activity counters using the
standard Micron methodology: background power (precharge/active
standby), activate/precharge energy per ACT, read/write burst power
scaled by bus utilisation, refresh power, and I/O termination.  Current
values are for a 2Gb DDR3-1600 x8 part (TN-41-01 revision B); x4-width
devices draw ``X4_CURRENT_SCALE`` of the x8 current, which is how the
18-chip Chipkill and 36-chip Double-Chipkill configurations are
costed.

Per Section X, on-die ECC adds 12.5% more cells per die, so background,
activate and refresh currents are raised by 12.5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.perfsim.configs import SchemeConfig
from repro.perfsim.dramsys import ChannelStats
from repro.perfsim.engine import SimulationResult
from repro.perfsim.timing import DDR3Timing

#: Relative dynamic current of an x4 device versus the x8 part.
X4_CURRENT_SCALE = 0.55
#: Cell-array overhead of on-die ECC (Section X).
ON_DIE_ECC_CURRENT_SCALE = 1.125


@dataclass(frozen=True)
class MicronIDD:
    """IDD current specs (mA) for a 2Gb DDR3-1600 x8 device."""

    vdd: float = 1.5
    idd0: float = 130.0    # one-bank ACT-PRE
    idd2n: float = 70.0    # precharge standby
    idd3n: float = 90.0    # active standby
    idd4r: float = 250.0   # burst read
    idd4w: float = 255.0   # burst write
    idd5b: float = 240.0   # burst refresh


@dataclass
class PowerBreakdown:
    """Memory power in Watts, per component."""

    background: float
    activate: float
    read_write: float
    refresh: float

    @property
    def total(self) -> float:
        """Total power across all components, in milliwatts."""
        return self.background + self.activate + self.read_write + self.refresh


class PowerModel:
    """Converts simulation activity into DRAM power.

    Parameters
    ----------
    idd:
        Device current spec.
    chips_system:
        Total x8-equivalent chip population powered in the system
        (background power is paid by every rank whether or not the
        scheme activates it; all configurations here keep the same
        total DRAM capacity).
    """

    def __init__(
        self,
        idd: Optional[MicronIDD] = None,
        timing: Optional[DDR3Timing] = None,
        chips_system: int = 72,
        row_open_fraction: float = 0.5,
    ) -> None:
        self.idd = idd or MicronIDD()
        self.timing = timing or DDR3Timing()
        self.chips_system = chips_system
        self.row_open_fraction = row_open_fraction

    def _chip_background_w(self, on_die_ecc: bool) -> float:
        idd = self.idd
        i_bg = (
            self.row_open_fraction * idd.idd3n
            + (1.0 - self.row_open_fraction) * idd.idd2n
        )
        scale = ON_DIE_ECC_CURRENT_SCALE if on_die_ecc else 1.0
        return i_bg * 1e-3 * idd.vdd * scale

    def _chip_act_energy_j(self, on_die_ecc: bool) -> float:
        """Energy of one ACT/PRE pair for one chip (TN-41-01 eq. 3)."""
        idd = self.idd
        t = self.timing
        trc_s = t.tRC * t.tCK_ns * 1e-9
        tras_s = t.tRAS * t.tCK_ns * 1e-9
        i_extra = idd.idd0 - (
            idd.idd3n * tras_s + idd.idd2n * (trc_s - tras_s)
        ) / trc_s
        scale = ON_DIE_ECC_CURRENT_SCALE if on_die_ecc else 1.0
        return i_extra * 1e-3 * idd.vdd * trc_s * scale

    def _chip_refresh_w(self, on_die_ecc: bool) -> float:
        idd = self.idd
        t = self.timing
        duty = t.tRFC / t.tREFI
        scale = ON_DIE_ECC_CURRENT_SCALE if on_die_ecc else 1.0
        return (idd.idd5b - idd.idd3n) * 1e-3 * idd.vdd * duty * scale

    def compute(
        self,
        result: SimulationResult,
        config: SchemeConfig,
    ) -> PowerBreakdown:
        """Power of the whole memory system during ``result``'s run."""
        stats: ChannelStats = result.channel_stats
        seconds = result.exec_seconds
        if seconds <= 0:
            raise ValueError("simulation produced a zero-length run")
        ecc = config.on_die_ecc

        # Background and refresh: every chip in the system, always.
        background = self.chips_system * self._chip_background_w(ecc)
        refresh = self.chips_system * self._chip_refresh_w(ecc)

        # Activates: counters already include the lockstep physical
        # scale; each logical activate costs 9 x8-equivalent chips
        # (one rank of the baseline DIMM) scaled by the scheme's
        # device-width economics.
        act_energy = (
            stats.activates
            * 9
            * self._chip_act_energy_j(ecc)
            * (config.dynamic_energy_scale / max(1, config.lockstep_ranks
                                                 * config.lockstep_channels))
        )
        activate = act_energy / seconds

        # Read/write burst energy: IDD4 for one base burst (4 bus
        # cycles) per served access, scaled by the scheme's per-access
        # dynamic-energy factor.  Companion transactions (extra ECC
        # fetches, checksum writes) appear as extra served accesses, so
        # they are costed naturally.
        idd = self.idd
        burst_seconds = 4.0 * self.timing.tCK_ns * 1e-9
        rw_energy = (
            (
                (idd.idd4r - idd.idd3n) * stats.read_bursts
                + (idd.idd4w - idd.idd3n) * stats.write_bursts
            )
            * 1e-3
            * idd.vdd
            * 9
            * burst_seconds
            * config.dynamic_energy_scale
        )
        read_write = rw_energy / seconds

        return PowerBreakdown(
            background=background,
            activate=activate,
            read_write=read_write,
            refresh=refresh,
        )
