"""Detection-rate analysis of (72,64) codes -- regenerates Table II.

Table II of the paper compares the fraction of *invalid* (i.e. detected)
error patterns for the (72,64) Hamming code and the (72,64) CRC8-ATM
code, for 1..8 bit flips placed either randomly across the codeword or
as a burst.  An error pattern is undetected exactly when the pattern is
itself a valid codeword, so detection rate = 1 - (weight-e codewords
observed / weight-e patterns tried).

Two burst interpretations are provided:

* ``aligned``: the e flips fall within one aligned 8-bit lane -- one beat
  of the 8-burst DDR transfer, the interpretation that matches the
  paper's numbers most closely.
* ``contiguous``: the e flips are a solid run of e adjacent bits.

The qualitative result is insensitive to the choice: CRC8-ATM detects
100% of all bursts of length <= 8 (a degree-8 CRC property), while
Hamming misses a large fraction of even-length bursts.

Evaluation
----------
Every rate runs through the bit-matrix kernels of
:mod:`repro.ecc.batched`: a pattern goes undetected exactly when its
syndrome is zero, so each rate is one batched syndrome computation over
a ``(patterns, errors)`` array of flipped-bit positions.  Exhaustive
pattern spaces enumerate every position set; sampled spaces draw them
from a seeded numpy stream.  The private ``_reference_rate_*``
functions walk the same spaces one pattern at a time through the
scalar ``is_codeword`` check and are what the tests compare against:
exhaustive spaces give identical rates, sampled spaces (the reference
draws from ``random.Random``) agree in distribution.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from repro.ecc.secded import SECDEDCode


def contiguous_burst_patterns(n: int, errors: int) -> Iterator[int]:
    """All error patterns of ``errors`` consecutive flipped bits."""
    if errors < 1 or errors > n:
        raise ValueError("burst length out of range")
    run = (1 << errors) - 1
    for start in range(n - errors + 1):
        yield run << start


def aligned_burst_patterns(n: int, errors: int, lane: int = 8) -> Iterator[int]:
    """All patterns of ``errors`` flips confined to one aligned lane."""
    if errors < 1 or errors > lane:
        raise ValueError("more errors than lane bits")
    if n % lane:
        raise ValueError("codeword length must be a multiple of the lane width")
    for lane_idx in range(n // lane):
        base = lane_idx * lane
        for combo in itertools.combinations(range(lane), errors):
            pattern = 0
            for bit in combo:
                pattern |= 1 << (base + bit)
            yield pattern


def _random_patterns(
    n: int, errors: int, samples: int, rng: random.Random
) -> Iterator[int]:
    positions = list(range(n))
    for _ in range(samples):
        pattern = 0
        for bit in rng.sample(positions, errors):
            pattern |= 1 << bit
        yield pattern


def _random_position_batch(
    n: int, errors: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """``(samples, errors)`` distinct flipped-bit positions per row.

    Rejection-resamples rows containing duplicates, which conditions the
    iid uniform draws on distinctness -- each accepted row is a uniform
    random ``errors``-subset, the same distribution the reference
    sampler's ``random.sample`` produces.
    """
    positions = rng.integers(0, n, size=(samples, errors), dtype=np.int64)
    # Only the freshly drawn rows need re-checking each round.
    pending = np.arange(samples)
    while pending.size:
        ordered = np.sort(positions[pending], axis=1)
        dup = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        pending = pending[dup]
        if pending.size:
            positions[pending] = rng.integers(
                0, n, size=(pending.size, errors), dtype=np.int64
            )
    return positions


def _detection_fraction(code: SECDEDCode, patterns: Iterable[int]) -> float:
    detected = 0
    total = 0
    for pattern in patterns:
        total += 1
        if not code.is_codeword(pattern):
            detected += 1
    if total == 0:
        raise ValueError("no error patterns supplied")
    return detected / total


def _syndrome_detection_rate(code: SECDEDCode, positions: np.ndarray) -> float:
    """Share of position rows whose error pattern has a nonzero syndrome."""
    syndromes = code.batched().syndromes_of_error_positions(positions)
    return float((syndromes != 0).sum()) / len(positions)


def detection_rate_random(
    code: SECDEDCode,
    errors: int,
    samples: int = 20000,
    seed: int = 2016,
    exhaustive_limit: int = 300000,
) -> float:
    """Detection rate for ``errors`` random bit flips.

    Uses exhaustive enumeration when the pattern space is small enough
    (e.g. all C(72,2) = 2556 double errors), otherwise Monte-Carlo
    sampling of ``samples`` position sets from
    ``numpy.random.default_rng(seed)``.
    """
    n = code.n
    space = math.comb(n, errors)
    if space <= exhaustive_limit:
        positions = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations(range(n), errors)
            ),
            dtype=np.int64,
            count=space * errors,
        ).reshape(space, errors)
    else:
        positions = _random_position_batch(
            n, errors, samples, np.random.default_rng(seed)
        )
    return _syndrome_detection_rate(code, positions)


def _reference_rate_random(
    code: SECDEDCode,
    errors: int,
    samples: int = 20000,
    seed: int = 2016,
    exhaustive_limit: int = 300000,
) -> float:
    """Scalar reference for :func:`detection_rate_random` (tests only).

    Walks the same exhaustive space pattern by pattern; sampled spaces
    draw from ``random.Random(seed)`` instead of numpy, so they agree
    with the batched rate in distribution, not digit for digit.
    """
    n = code.n
    if math.comb(n, errors) <= exhaustive_limit:
        patterns: Iterable[int] = (
            _combo_to_pattern(c) for c in itertools.combinations(range(n), errors)
        )
    else:
        patterns = _random_patterns(n, errors, samples, random.Random(seed))
    return _detection_fraction(code, patterns)


def _combo_to_pattern(combo: Sequence[int]) -> int:
    pattern = 0
    for bit in combo:
        pattern |= 1 << bit
    return pattern


def detection_rate_burst(
    code: SECDEDCode, errors: int, mode: str = "aligned"
) -> float:
    """Exhaustive detection rate for burst errors of ``errors`` flips."""
    n = code.n
    if mode == "aligned":
        if errors < 1 or errors > 8:
            raise ValueError("more errors than lane bits")
        if n % 8:
            raise ValueError(
                "codeword length must be a multiple of the lane width"
            )
        combos = np.array(
            list(itertools.combinations(range(8), errors)), dtype=np.int64
        )
        bases = np.arange(0, n, 8, dtype=np.int64)
        positions = (
            bases[:, None, None] + combos[None, :, :]
        ).reshape(-1, errors)
    elif mode == "contiguous":
        if errors < 1 or errors > n:
            raise ValueError("burst length out of range")
        starts = np.arange(n - errors + 1, dtype=np.int64)
        positions = starts[:, None] + np.arange(errors, dtype=np.int64)
    else:
        raise ValueError(f"unknown burst mode {mode!r}")
    return _syndrome_detection_rate(code, positions)


def _reference_rate_burst(
    code: SECDEDCode, errors: int, mode: str = "aligned"
) -> float:
    """Scalar reference for :func:`detection_rate_burst` (tests only)."""
    if mode == "aligned":
        patterns: Iterable[int] = aligned_burst_patterns(code.n, errors)
    elif mode == "contiguous":
        patterns = contiguous_burst_patterns(code.n, errors)
    else:
        raise ValueError(f"unknown burst mode {mode!r}")
    return _detection_fraction(code, patterns)


@dataclass
class DetectionReport:
    """Detection-rate table for a set of codes (the Table II shape)."""

    error_counts: List[int]
    #: code name -> {"random": [...], "burst": [...]} aligned to error_counts
    rates: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def row(self, errors: int) -> Dict[str, Dict[str, float]]:
        """Detection/miscorrection probabilities for ``errors`` flipped bits."""
        idx = self.error_counts.index(errors)
        return {
            name: {mode: vals[idx] for mode, vals in modes.items()}
            for name, modes in self.rates.items()
        }

    def format_table(self) -> str:
        """Render the report in the layout of the paper's Table II."""
        names = list(self.rates)
        header_cells = []
        for name in names:
            header_cells.append(f"{name} Random")
            header_cells.append(f"{name} Burst")
        lines = [
            "Detection-rate of random and burst errors (Table II)",
            "Errors | " + " | ".join(f"{cell:>18}" for cell in header_cells),
        ]
        for i, e in enumerate(self.error_counts):
            cells = []
            for name in names:
                cells.append(f"{self.rates[name]['random'][i] * 100:17.2f}%")
                cells.append(f"{self.rates[name]['burst'][i] * 100:17.2f}%")
            lines.append(f"{e:6d} | " + " | ".join(cells))
        return "\n".join(lines)


def detection_table(
    codes: Dict[str, SECDEDCode],
    error_counts: Sequence[int] = tuple(range(1, 9)),
    random_samples: int = 20000,
    burst_mode: str = "aligned",
    seed: int = 2016,
) -> DetectionReport:
    """Compute the full Table-II style report for the given codes."""
    report = DetectionReport(error_counts=list(error_counts))
    for name, code in codes.items():
        random_rates = [
            detection_rate_random(
                code, e, samples=random_samples, seed=seed + e
            )
            for e in error_counts
        ]
        burst_rates = [
            detection_rate_burst(code, e, mode=burst_mode)
            for e in error_counts
        ]
        report.rates[name] = {"random": random_rates, "burst": burst_rates}
    return report
