"""Per-scheme reliability evaluators.

Each evaluator answers one question for a Monte-Carlo sample system:
given the runtime faults this system developed over its lifetime, when
(if ever) did the protection scheme fail, and was the failure a
Detected Uncorrectable Error or Silent Data Corruption?

All systems are assumed to carry on-die ECC (the paper's premise), so
single-bit runtime faults are invisible unless promoted by a scaling
fault; only word-and-larger ("visible") faults reach the system-level
code.  The schemes then differ in how many *colliding* visible faults
they survive within one rank:

=====================  =============================  ==================
Scheme                 Correctable combination        Fails on
=====================  =============================  ==================
Non-ECC / ECC-DIMM     nothing beyond on-die ECC      1 visible fault
XED (9 chips)          any single faulty chip         2 colliding chips
Chipkill (18 chips)    any single faulty chip         2 colliding chips
XED+Chipkill (18)      any two faulty chips           3 colliding chips
Double-Chipkill (36)   any two faulty chips           3 colliding chips
=====================  =============================  ==================

plus the small probabilistic tails of Sections VI and VIII: on-die
SECDED misses ~0.8% of multi-bit errors, and a missed *transient word*
fault defeats both diagnosis procedures, producing XED's DUE tail.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence

from repro.faultsim.fault import ChipFault, combination_failure_time, group_by_rank
from repro.faultsim.fault_models import ON_DIE_MISS_PROBABILITY, FailureMode


class FailureKind(enum.Enum):
    """How a failed system died."""

    DUE = "due"
    SDC = "sdc"


@dataclass(frozen=True)
class SystemFailure:
    """A system-level failure event."""

    time_hours: float
    kind: FailureKind


def earliest_failure(
    a: Optional[SystemFailure], b: Optional[SystemFailure]
) -> Optional[SystemFailure]:
    """Combine failure candidates, keeping the earlier one.

    Public so user-defined schemes (see ``examples/custom_scheme.py``)
    can fold failure mechanisms the same way the built-ins do.
    """
    if a is None:
        return b
    if b is None:
        return a
    return a if a.time_hours <= b.time_hours else b


#: Backwards-compatible internal alias.
_earliest = earliest_failure


class ProtectionScheme:
    """Base class: memory-system shape plus the failure-evaluation rule.

    Attributes
    ----------
    data_chips, check_chips:
        Chips participating in each access codeword (one rank).
    channels, ranks_per_channel:
        System shape (Table V: 4 channels, 2 ranks each).
    min_faults:
        Fast-path: sample systems with fewer runtime faults than this
        can never fail, so the Monte-Carlo driver skips them wholesale.
    """

    name: str = "base"
    data_chips: int = 8
    check_chips: int = 1
    channels: int = 4
    ranks_per_channel: int = 2
    min_faults: int = 1

    @property
    def chips_per_rank(self) -> int:
        """Data chips per rank for this scheme's DIMM layout."""
        return self.data_chips + self.check_chips

    @property
    def total_chips(self) -> int:
        """Chips across the whole simulated memory system."""
        return self.channels * self.ranks_per_channel * self.chips_per_rank

    def evaluate(
        self, faults: Sequence[ChipFault], rng: random.Random
    ) -> Optional[SystemFailure]:
        """Return the earliest failure, or None if the system survives.

        ``rng`` is the system's draw stream
        (:func:`repro.faultsim.vectorized.system_rng`); evaluators draw
        from it only through ``rng.random()``.
        """
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def visible(faults: Sequence[ChipFault]) -> List[ChipFault]:
        """Faults that escape on-die ECC (multi-bit or promoted)."""
        return [f for f in faults if not f.on_die_correctable]

    @staticmethod
    def colliding_pairs(faults: Sequence[ChipFault]):
        """Yield every time-and-address-colliding fault pair."""
        for a, b in combinations(faults, 2):
            if a.collides_with(b):
                yield a, b

    @staticmethod
    def colliding_triples(faults: Sequence[ChipFault]):
        """Yield every jointly-colliding fault triple."""
        for a, b, c in combinations(faults, 3):
            if len({a.chip, b.chip, c.chip}) != 3:
                continue
            if (
                a.collides_with(b)
                and a.collides_with(c)
                and b.collides_with(c)
            ):
                yield a, b, c

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(chips/rank={self.chips_per_rank}, "
            f"total={self.total_chips})"
        )


class NonEccScheme(ProtectionScheme):
    """8-chip DIMM, on-die ECC only: any visible fault is silent corruption."""

    name = "Non-ECC DIMM (On-Die ECC)"
    data_chips = 8
    check_chips = 0
    min_faults = 1

    def evaluate(self, faults, rng):
        """Any non-correctable fault is an SDC (no detection at all)."""
        failure: Optional[SystemFailure] = None
        for f in self.visible(faults):
            failure = _earliest(
                failure, SystemFailure(f.time_hours, FailureKind.SDC)
            )
        return failure


class EccDimmScheme(ProtectionScheme):
    """9-chip SECDED ECC-DIMM with on-die ECC concealed (Figure 1).

    DIMM-level SECDED corrects one bit per 72-bit beat -- but on-die ECC
    already absorbed every single-bit fault, so any *visible* fault is a
    multi-bit beat error that SECDED either flags (DUE) or miscorrects
    (SDC).  By default the DUE/SDC split is *measured* from the actual
    (72,64) Hamming decoder against chip-lane error patterns
    (:func:`repro.ecc.miscorrection.hamming_chip_error_sdc_fraction`,
    ~44% SDC); pass ``sdc_fraction`` to override.
    """

    name = "ECC-DIMM (SECDED)"
    data_chips = 8
    check_chips = 1
    min_faults = 1

    def __init__(self, sdc_fraction: Optional[float] = None) -> None:
        if sdc_fraction is None:
            from repro.ecc.miscorrection import (
                hamming_chip_error_sdc_fraction,
            )

            sdc_fraction = hamming_chip_error_sdc_fraction()
        self.sdc_fraction = sdc_fraction

    def evaluate(self, faults, rng):
        """SECDED corrects 1-bit damage; wider damage is DUE/SDC."""
        failure: Optional[SystemFailure] = None
        for f in self.visible(faults):
            kind = (
                FailureKind.SDC
                if rng.random() < self.sdc_fraction
                else FailureKind.DUE
            )
            failure = _earliest(failure, SystemFailure(f.time_hours, kind))
        return failure


class XedScheme(ProtectionScheme):
    """XED on a 9-chip ECC-DIMM (Sections V-VIII).

    Any single faulty chip -- whatever the granularity -- is rebuilt
    from RAID-3 parity, using the catch-word (or, for the ~0.8% of
    multi-bit errors on-die ECC misses, inter-/intra-line diagnosis) as
    the erasure pointer.  Failure mechanisms:

    * two visible faults in different chips of one rank colliding on a
      codeword: parity cannot rebuild two erasures -> DUE;
    * a *transient word* fault missed by on-die ECC: parity flags it
      but neither diagnosis can locate a transient single-word culprit
      -> DUE (Table IV's 6.1e-6 tail);
    * inter-line diagnosis falsely convicting a chip because scaling
      faults crossed the 10% threshold -> SDC (Table IV's 1.4e-13 tail).
    """

    name = "XED (9 chips)"
    data_chips = 8
    check_chips = 1
    min_faults = 1

    def __init__(
        self,
        on_die_miss_probability: float = ON_DIE_MISS_PROBABILITY,
        misdiagnosis_sdc_probability: float = 0.0,
    ) -> None:
        self.on_die_miss_probability = on_die_miss_probability
        self.misdiagnosis_sdc_probability = misdiagnosis_sdc_probability

    def evaluate(self, faults, rng):
        """XED: on-die detect + erasure decode; pair collisions kill."""
        visible = self.visible(faults)
        failure: Optional[SystemFailure] = None
        for group in group_by_rank(visible).values():
            for a, b in self.colliding_pairs(group):
                failure = _earliest(
                    failure,
                    SystemFailure(
                        combination_failure_time((a, b)), FailureKind.DUE
                    ),
                )
        for f in visible:
            if (
                f.mode is FailureMode.SINGLE_WORD
                and not f.permanent
                and rng.random() < self.on_die_miss_probability
            ):
                failure = _earliest(
                    failure, SystemFailure(f.time_hours, FailureKind.DUE)
                )
            elif (
                self.misdiagnosis_sdc_probability > 0.0
                and f.mode
                in (
                    FailureMode.SINGLE_ROW,
                    FailureMode.SINGLE_COLUMN,
                    FailureMode.SINGLE_BANK,
                )
                and rng.random() < self.misdiagnosis_sdc_probability
            ):
                failure = _earliest(
                    failure, SystemFailure(f.time_hours, FailureKind.SDC)
                )
        return failure


class ChipkillScheme(ProtectionScheme):
    """Conventional SSC-DSD Chipkill: 16 data + 2 check chips per access.

    Corrects one faulty symbol (chip) and detects two; two colliding
    visible faults are therefore a DUE.  Requires 18 chips per access
    (x4 devices, or two lockstepped x8 ranks) -- the overhead XED avoids.
    """

    name = "Chipkill (18 chips)"
    data_chips = 16
    check_chips = 2
    min_faults = 2

    def evaluate(self, faults, rng):
        """Chipkill corrects any single chip; colliding pairs are DUE."""
        visible = self.visible(faults)
        failure: Optional[SystemFailure] = None
        for group in group_by_rank(visible).values():
            for a, b in self.colliding_pairs(group):
                failure = _earliest(
                    failure,
                    SystemFailure(
                        combination_failure_time((a, b)), FailureKind.DUE
                    ),
                )
        return failure


class DoubleChipkillScheme(ProtectionScheme):
    """Double-Chipkill: 32 data + 4 check chips, corrects two chips."""

    name = "Double-Chipkill (36 chips)"
    data_chips = 32
    check_chips = 4
    min_faults = 3

    def evaluate(self, faults, rng):
        """Double-Chipkill survives pairs; colliding triples are DUE."""
        visible = self.visible(faults)
        failure: Optional[SystemFailure] = None
        for group in group_by_rank(visible).values():
            for triple in self.colliding_triples(group):
                failure = _earliest(
                    failure,
                    SystemFailure(
                        combination_failure_time(triple), FailureKind.DUE
                    ),
                )
        return failure


class XedChipkillScheme(ProtectionScheme):
    """XED layered on Single-Chipkill hardware (Section IX).

    The catch-word pinpoints faulty chips, so the two Chipkill check
    symbols act as pure erasure correctors: *two* faulty chips are now
    correctable with 18 chips -- Double-Chipkill reliability on
    Single-Chipkill hardware.  Failure mechanisms:

    * three colliding visible faults -> DUE;
    * a colliding pair where at least one member escaped on-die
      detection: one erasure + one unknown error needs e + 2v = 3 > 2
      check symbols -> DUE (unless the miss is a diagnosable permanent
      or large-granularity fault, which diagnosis upgrades back to an
      erasure).
    """

    name = "XED + Single-Chipkill (18 chips)"
    data_chips = 16
    check_chips = 2
    min_faults = 2

    def __init__(
        self, on_die_miss_probability: float = ON_DIE_MISS_PROBABILITY
    ) -> None:
        self.on_die_miss_probability = on_die_miss_probability

    def _undiagnosable_miss(self, fault: ChipFault, rng: random.Random) -> bool:
        """Did this fault evade both on-die ECC and the diagnosis pair?"""
        return (
            fault.mode is FailureMode.SINGLE_WORD
            and not fault.permanent
            and rng.random() < self.on_die_miss_probability
        )

    def evaluate(self, faults, rng):
        """XED+Chipkill: erasure-assisted double-chip correction."""
        visible = self.visible(faults)
        failure: Optional[SystemFailure] = None
        for group in group_by_rank(visible).values():
            for triple in self.colliding_triples(group):
                failure = _earliest(
                    failure,
                    SystemFailure(
                        combination_failure_time(triple), FailureKind.DUE
                    ),
                )
            for a, b in self.colliding_pairs(group):
                if self._undiagnosable_miss(a, rng) or self._undiagnosable_miss(
                    b, rng
                ):
                    failure = _earliest(
                        failure,
                        SystemFailure(
                            combination_failure_time((a, b)), FailureKind.DUE
                        ),
                    )
        # A lone undiagnosable transient-word miss is still corrected
        # here: with only one unknown error, 2v = 2 <= 2 check symbols,
        # so the RS code fixes it without an erasure pointer.
        return failure
