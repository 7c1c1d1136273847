"""DRAM failure modes and the field-measured FIT rates of Table I.

The rates come from Sridharan & Liberty's field study of a production
supercomputer (paper reference [7]) and are quoted in FIT -- failures
per billion device-hours -- per DRAM chip, split by granularity and by
transient/permanent behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

HOURS_PER_YEAR = 24 * 365
#: The paper evaluates a 7-year system lifetime.
LIFETIME_YEARS = 7
LIFETIME_HOURS = LIFETIME_YEARS * HOURS_PER_YEAR


class FailureMode(enum.Enum):
    """Runtime failure granularities of Table I."""

    SINGLE_BIT = "single_bit"
    SINGLE_WORD = "single_word"
    SINGLE_COLUMN = "single_column"
    SINGLE_ROW = "single_row"
    SINGLE_BANK = "single_bank"
    MULTI_BANK = "multi_bank"
    MULTI_RANK = "multi_rank"

    @property
    def on_die_correctable(self) -> bool:
        """Can an 8-bit-per-64-bit on-die SECDED absorb this mode?

        Only single-bit faults stay within the one-error-per-word reach
        of on-die ECC.  Word and larger faults corrupt multiple bits of
        at least one on-die codeword; column faults break a device-lane
        (device_width bits of a burst beat), which is also multi-bit.
        This is the paper's core observation: once chips carry on-die
        ECC, large-granularity faults dominate system failures.
        """
        return self is FailureMode.SINGLE_BIT

    @property
    def spans_ranks(self) -> bool:
        """True for modes that damage every rank sharing the chip's I/O."""
        return self is FailureMode.MULTI_RANK


@dataclass(frozen=True)
class ModeRate:
    """Transient/permanent FIT pair for one failure mode."""

    transient: float
    permanent: float

    @property
    def total(self) -> float:
        """Combined transient + permanent FIT rate of the mode."""
        return self.transient + self.permanent


#: Table I of the paper: DRAM failures per billion hours (FIT) per chip.
DRAM_FIT_RATES: Dict[FailureMode, ModeRate] = {
    FailureMode.SINGLE_BIT: ModeRate(transient=14.2, permanent=18.6),
    FailureMode.SINGLE_WORD: ModeRate(transient=1.4, permanent=0.3),
    FailureMode.SINGLE_COLUMN: ModeRate(transient=1.4, permanent=5.6),
    FailureMode.SINGLE_ROW: ModeRate(transient=0.2, permanent=8.2),
    FailureMode.SINGLE_BANK: ModeRate(transient=0.8, permanent=10.0),
    FailureMode.MULTI_BANK: ModeRate(transient=0.3, permanent=1.4),
    FailureMode.MULTI_RANK: ModeRate(transient=0.9, permanent=2.8),
}


@dataclass
class FitTable:
    """A (possibly scaled) FIT table with sampling helpers."""

    rates: Dict[FailureMode, ModeRate] = field(
        default_factory=lambda: dict(DRAM_FIT_RATES)
    )

    @property
    def total_fit(self) -> float:
        """Total per-chip FIT across all modes."""
        return sum(rate.total for rate in self.rates.values())

    @property
    def uncorrectable_by_on_die_fit(self) -> float:
        """FIT of modes beyond on-die ECC (word and larger)."""
        return sum(
            rate.total
            for mode, rate in self.rates.items()
            if not mode.on_die_correctable
        )

    def mode_weights(self) -> List[Tuple[FailureMode, bool, float]]:
        """(mode, permanent, probability) triples for categorical sampling."""
        total = self.total_fit
        weights = []
        for mode, rate in self.rates.items():
            if rate.transient > 0:
                weights.append((mode, False, rate.transient / total))
            if rate.permanent > 0:
                weights.append((mode, True, rate.permanent / total))
        return weights

    def scaled(self, factor: float) -> "FitTable":
        """Return a FIT table with every rate multiplied by ``factor``."""
        return FitTable(
            {
                mode: ModeRate(rate.transient * factor, rate.permanent * factor)
                for mode, rate in self.rates.items()
            }
        )

    def rate_of(self, mode: FailureMode, permanent: bool | None = None) -> float:
        """FIT rate of one mode (optionally one persistence class)."""
        rate = self.rates[mode]
        if permanent is None:
            return rate.total
        return rate.permanent if permanent else rate.transient


#: Scaling-fault (birthtime weak-cell) rate assumed by the paper.
DEFAULT_SCALING_FAULT_RATE = 1e-4

#: Probability that a multi-bit chip error escapes on-die SECDED
#: detection -- the paper's 0.8% figure (Section VI), consistent with
#: the ~2^-7 even-weight escape rate of an 8-check-bit code.
ON_DIE_MISS_PROBABILITY = 0.008
