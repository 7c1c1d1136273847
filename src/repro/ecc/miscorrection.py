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
from typing import Tuple

import numpy as np

from repro.ecc.batched import BatchOutcome
from repro.ecc.hamming import HammingSECDED
from repro.ecc.secded import SECDEDCode
from repro.mtwords import pull_words


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


#: Words the lane replay pulls from its generator at a time.
_PULL_WORDS = 4096

#: Words left unread that make the replay pull again before a sample.
#: A sample draws at most 22 values and each word is accepted with
#: probability at least one half, so no sample outruns this margin
#: short of a 2**-200 event.
_SAMPLE_WORDS = 256

#: Widest lane the replay serves: ``sample`` takes its pool branch for
#: a population of up to 21 items, whatever the sample size, and the
#: replay mirrors only that branch.
_MAX_LANE_BITS = 21


def lane_error_positions(
    code: SECDEDCode,
    lane: int = 0,
    lane_bits: int = 8,
    samples: int = 20000,
    seed: int = 2016,
) -> np.ndarray:
    """The flipped codeword bits of random multi-bit errors in one lane.

    Row ``i`` holds sample ``i``'s bits in draw order, padded with the
    no-op position index ``code.n``.  The rows are those of drawing,
    after one ``getrandbits(code.k)`` from ``random.Random(seed)`` (the
    data word, which keeps the draw stream fixed),

    .. code-block:: python

        weight = rng.randint(2, lane_bits)
        bits = rng.sample(range(lane_bits), weight)

    per sample, replayed from the generator's word stream
    (:func:`repro.mtwords.pull_words`).  ``randint(2, lane_bits)`` is
    ``2 + _randbelow(lane_bits - 1)``; ``sample`` takes its pool branch
    for a population of at most 21 items (wider lanes are refused),
    drawing ``_randbelow(lane_bits - j)`` for its ``j``-th pick and
    moving the pool's last free item into the picked slot; and
    ``_randbelow(n)`` keeps the top ``n.bit_length()`` bits of one word
    at a time until they are below ``n``.  Those methods are the same
    on CPython 3.9 through 3.12.
    """
    if not 2 <= lane_bits <= _MAX_LANE_BITS:
        raise ValueError(
            f"lane_bits must be 2..{_MAX_LANE_BITS} (got {lane_bits})"
        )
    rng = random.Random(seed)
    rng.getrandbits(code.k)  # the data word; keeps the draw stream fixed
    base = lane * lane_bits
    # Ragged rows padded with the no-op position index ``n``.
    positions = np.full((samples, lane_bits), code.n, dtype=np.int64)
    cells = memoryview(positions.reshape(-1))
    lanes = list(range(base, base + lane_bits))
    # (modulus, shift) of each _randbelow: the weight's, then the
    # picks' of each weight.
    weight_n = lane_bits - 1
    weight_shift = 32 - weight_n.bit_length()
    picks = [(n, 32 - n.bit_length()) for n in range(lane_bits, 0, -1)]
    picks_of = [picks[:weight] for weight in range(lane_bits + 1)]
    words: Tuple[int, ...] = ()
    at, limit = 0, -1
    row = 0
    for _ in range(samples):
        if at > limit:
            words = words[at:] + pull_words(rng, _PULL_WORDS)
            at, limit = 0, len(words) - _SAMPLE_WORDS
        r = words[at] >> weight_shift
        at += 1
        while r >= weight_n:
            r = words[at] >> weight_shift
            at += 1
        pool = lanes[:]
        cell = row
        for n, shift in picks_of[r + 2]:
            r = words[at] >> shift
            at += 1
            while r >= n:
                r = words[at] >> shift
                at += 1
            cells[cell] = pool[r]
            pool[r] = pool[n - 1]
            cell += 1
        row += lane_bits
    return positions


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
    72-bit beat codeword.  The sample set
    (:func:`lane_error_positions`) is classified in one call of the
    batched bit-matrix kernel, whose outcomes
    :mod:`repro.ecc.differential` proves bit-identical to the scalar
    decoder's.
    """
    positions = lane_error_positions(code, lane, lane_bits, samples, seed)
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
