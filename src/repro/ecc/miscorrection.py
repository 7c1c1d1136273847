"""Measured miscorrection behaviour of SECDED codes on chip-level errors.

When a multi-bit chip error reaches a (72,64) SECDED decoder, three
things can happen: detection (a DUE), silent acceptance (the pattern is
a codeword -- SDC), or *miscorrection* (the syndrome aliases a
single-bit error, the decoder "fixes" the wrong bit -- also SDC).  The
split between DUE and SDC is what the reliability simulator needs to
classify ECC-DIMM failures (Figure 1's population), and it depends on
the code: this module measures it empirically from the actual decoders
against the error shape a failing chip produces -- corruption confined
to one 8-bit device lane per beat codeword.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.ecc.batched import BatchOutcome
from repro.ecc.hamming import HammingSECDED
from repro.ecc.secded import SECDEDCode


@dataclass(frozen=True)
class MiscorrectionProfile:
    """Outcome distribution of chip-lane errors through a SECDED code."""

    detected: float        # flagged uncorrectable -> DUE
    miscorrected: float    # decoder flipped the wrong bit -> SDC
    silent: float          # pattern was a valid codeword -> SDC

    @property
    def sdc_fraction(self) -> float:
        """Share of failures that are silent (SDC) rather than DUE."""
        return self.miscorrected + self.silent

    def __post_init__(self) -> None:
        total = self.detected + self.miscorrected + self.silent
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"profile does not sum to 1 (got {total})")


def measure_lane_error_profile(
    code: SECDEDCode,
    lane: int = 0,
    lane_bits: int = 8,
    samples: int = 20000,
    seed: int = 2016,
) -> MiscorrectionProfile:
    """Empirical decode outcomes for random multi-bit errors in one lane.

    The error model is the one a failed chip produces at the DIMM-level
    code: 2..8 corrupted bits confined to the chip's 8-bit share of the
    72-bit beat codeword.  The sample set is drawn from
    ``random.Random(seed)`` and classified in one call of the batched
    bit-matrix kernel, whose outcomes :mod:`repro.ecc.differential`
    proves bit-identical to the scalar decoder's.
    """
    rng = random.Random(seed)
    rng.getrandbits(code.k)  # the data word; keeps the draw stream fixed
    base = lane * lane_bits
    # Ragged rows padded with the no-op position index ``n``.
    positions = np.full((samples, lane_bits), code.n, dtype=np.int64)
    for i in range(samples):
        weight = rng.randint(2, lane_bits)
        for j, bit in enumerate(rng.sample(range(lane_bits), weight)):
            positions[i, j] = base + bit
    outcomes = code.batched().outcomes_of_error_positions(positions)
    detected = int((outcomes == BatchOutcome.DETECTED_UNCORRECTABLE).sum())
    miscorrected = int((outcomes == BatchOutcome.CORRECTED).sum())
    silent = samples - detected - miscorrected
    total = float(samples)
    return MiscorrectionProfile(
        detected / total, miscorrected / total, silent / total
    )


@lru_cache(maxsize=None)
def hamming_chip_error_sdc_fraction(samples: int = 20000) -> float:
    """SDC share of chip-lane errors through the (72,64) Hamming code.

    This feeds :class:`repro.faultsim.schemes.EccDimmScheme`'s DUE/SDC
    split, closing the loop between the Table-II code analysis and the
    Figure-1 reliability population.
    """
    return measure_lane_error_profile(
        HammingSECDED(), samples=samples
    ).sdc_fraction
