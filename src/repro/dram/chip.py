"""Behavioural DRAM chip with on-die ECC, XED registers and fault injection.

This is Figure 3 of the paper in software.  The chip stores real 72-bit
on-die codewords, corrupts them through injected faults on the read
path, runs a real on-die ECC decode, and -- when XED-Enable is set and
the decode flags an invalid codeword -- drives the pre-agreed catch-word
through the DC-Mux instead of data.

Fault modes mirror the granularities of the paper's Table I:

* ``BIT``    -- one stuck/flipped bit in one word.
* ``WORD``   -- a multi-bit corruption of a single 64-bit word.
* ``COLUMN`` -- a broken bitline: the same bit positions fail for one
  column address across every row of a bank.
* ``ROW``    -- a broken wordline: every word of one row corrupted.
* ``BANK``   -- every word of a bank corrupted.
* ``CHIP``   -- every bank corrupted (multi-bank / chip failure).

Transient faults corrupt the bits stored at injection time -- modelled
lazily with per-word write versions, so a later write to a damaged word
clears the damage while unwritten (all-zero) words are damaged too.
Permanent faults corrupt the read path on every access.  Scaling
(birthtime) faults are weak cells sampled deterministically per word at
a configurable bit-error rate, never more than one per 64-bit word
(Section II-C's vendor guarantee).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.dram.geometry import ChipGeometry
from repro.dram.mode_registers import ModeRegisters
from repro.ecc.crc8 import CRC8ATMCode
from repro.ecc.secded import DecodeOutcome, SECDEDCode

WordKey = Tuple[int, int, int]  # (bank, row, column)


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a fast, stable 64-bit integer hash."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _word_hash(seed: int, bank: int, row: int, column: int, salt: int = 0) -> int:
    """Deterministic 64-bit hash of a word location under a seed.

    The golden-ratio offsets keep the all-zero input away from
    SplitMix64's zero fixed point.
    """
    key = (bank << 50) ^ (row << 20) ^ (column << 4) ^ salt
    return _mix64(
        (seed + 0x9E3779B97F4A7C15) ^ _mix64(key + 0x632BE59BD9B4E019)
    )


class FaultGranularity(enum.Enum):
    """Fault reach, in increasing blast radius (Table I granularities)."""

    BIT = "bit"
    WORD = "word"
    COLUMN = "column"
    ROW = "row"
    BANK = "bank"
    CHIP = "chip"


@dataclass
class InjectedFault:
    """A fault placed into a chip.

    ``permanent`` faults corrupt every read of an affected word;
    transient faults were applied to stored data at injection time and
    are recorded here only for bookkeeping.
    """

    granularity: FaultGranularity
    permanent: bool
    bank: int = 0
    row: int = 0
    column: int = 0
    bit: Optional[int] = None
    seed: int = 0
    #: For WORD faults: how many bits the corruption flips (>= 2 makes it
    #: a genuine multi-bit fault the on-die SECDED cannot correct).
    severity: int = 4
    #: Chip write-version at injection time; a transient fault only
    #: corrupts words whose last write is not newer than this.
    injected_version: int = 0

    def covers(self, bank: int, row: int, column: int) -> bool:
        """True when this fault damages the addressed word."""
        g = self.granularity
        if g is FaultGranularity.CHIP:
            return True
        if bank != self.bank:
            return False
        if g is FaultGranularity.BANK:
            return True
        if g is FaultGranularity.COLUMN:
            return column == self.column
        if g is FaultGranularity.ROW:
            return row == self.row
        # BIT and WORD pin the exact word.
        return row == self.row and column == self.column

    def corruption_mask(self, bank: int, row: int, column: int, width: int) -> int:
        """72-bit XOR mask this fault applies to an affected word."""
        if not self.covers(bank, row, column):
            return 0
        g = self.granularity
        if g is FaultGranularity.BIT:
            return 1 << (self.bit or 0)
        if g is FaultGranularity.COLUMN:
            # A broken bitline: the same bit position fails in every row.
            return 1 << ((self.bit if self.bit is not None else self.seed) % width)
        h = _word_hash(self.seed, bank, row, column)
        if g is FaultGranularity.WORD:
            # A word failure flips `severity` bits of this word -- a
            # stable, genuinely multi-bit corruption.
            mask = 0
            flips = max(2, self.severity)
            for i in range(flips):
                h = _mix64(h + i + 1)
                mask |= 1 << (h % width)
            return mask
        # ROW / BANK / CHIP: broken wordlines/decoders/dies return
        # garbage -- a dense pseudo-random corruption (~50% of bits),
        # stable per location so repeated reads see the same pattern.
        mask = (h ^ (_mix64(h) << 64)) & ((1 << width) - 1)
        if mask == 0:  # pragma: no cover - defensive
            mask = 1
        return mask


@dataclass
class ReadObservation:
    """Instrumented view of a single chip read (for tests/diagnosis)."""

    value: int
    sent_catch_word: bool
    on_die_outcome: DecodeOutcome
    raw_error_bits: int


class DCMux:
    """The Data/Catch-word multiplexer of Figure 3.

    A one-line piece of hardware, modelled explicitly because the paper
    names it: selects the catch-word whenever the on-die ECC reports an
    invalid codeword *and* XED-Enable is set.
    """

    @staticmethod
    def select(data: int, detected: bool, regs: ModeRegisters) -> int:
        """Output-select: catch-word when ``detected``, else data."""
        if detected and regs.xed_enable:
            return regs.catch_word
        return data


class DramChip:
    """A DRAM chip with on-die ECC and optional XED support.

    Parameters
    ----------
    geometry:
        Chip geometry; defaults to the paper's 2Gb x8 device.
    on_die_code:
        The on-die ECC codec; CRC8-ATM by default (the paper's
        recommendation), pass :class:`repro.ecc.hamming.HammingSECDED`
        to study the weaker alternative.
    scaling_ber:
        Scaling (birthtime) bit-error rate; 0 disables scaling faults.
    seed:
        Seed for the deterministic weak-cell sampling.
    """

    def __init__(
        self,
        geometry: ChipGeometry | None = None,
        on_die_code: SECDEDCode | None = None,
        scaling_ber: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry or ChipGeometry()
        self.code = on_die_code or CRC8ATMCode()
        self.scaling_ber = scaling_ber
        self.seed = seed
        self.regs = ModeRegisters(catch_word_bits=self.geometry.bits_per_access)
        #: word -> (codeword, write version); missing words read as the
        #: all-zero codeword with version 0.
        self._store: Dict[WordKey, Tuple[int, int]] = {}
        self._write_version = 0
        self.faults: List[InjectedFault] = []
        # Probability that a 64-bit word contains a weak cell; the vendor
        # guarantee caps it at one weak bit per word.
        k = self.code.k
        self._p_weak_word = 1.0 - (1.0 - scaling_ber) ** k if scaling_ber else 0.0
        # Statistics.
        self.stats = {
            "reads": 0,
            "writes": 0,
            "on_die_corrections": 0,
            "on_die_detections": 0,
            "catch_words_sent": 0,
        }

    # -- storage ------------------------------------------------------------

    @property
    def data_bits(self) -> int:
        """Data bits per on-die ECC codeword (64 for the paper's chip)."""
        return self.code.k

    def write(self, bank: int, row: int, column: int, data: int) -> None:
        """Store ``data`` (one per-access word) with its on-die check bits."""
        self.geometry.validate(bank, row, column)
        if not 0 <= data < (1 << self.data_bits):
            raise ValueError(f"data does not fit in {self.data_bits} bits")
        self.stats["writes"] += 1
        self._write_version += 1
        self._store[(bank, row, column)] = (
            self.code.encode(data),
            self._write_version,
        )

    def _stored(self, bank: int, row: int, column: int) -> Tuple[int, int]:
        return self._store.get((bank, row, column), (0, 0))

    # -- scaling (birthtime) faults ------------------------------------------

    def weak_bit(self, bank: int, row: int, column: int) -> Optional[int]:
        """The scaling-fault bit of this word, or None.

        Sampled deterministically from the chip seed, so the same word
        always has (or lacks) the same weak cell -- exactly how a
        manufacturing defect behaves.
        """
        if not self._p_weak_word:
            return None
        h = _word_hash(self.seed, bank, row, column, salt=0x5CA1AB1E)
        # Top 53 bits as a uniform [0, 1) draw.
        if (h >> 11) / float(1 << 53) < self._p_weak_word:
            return _mix64(h) % self.data_bits
        return None

    # -- fault injection -------------------------------------------------------

    def inject(self, fault: InjectedFault) -> InjectedFault:
        """Inject a runtime fault.

        Permanent faults corrupt every subsequent read of the words they
        cover.  Transient faults corrupt only data stored *before* the
        injection: the fault records the current write version and the
        read path skips it for words rewritten afterwards -- so a write
        (or a scrub) naturally heals transient damage, including in
        words that had never been written (which hold the all-zero
        codeword at version 0).
        """
        if not fault.permanent:
            fault = replace(fault, injected_version=self._write_version)
        self.faults.append(fault)
        return fault

    # -- the read path ---------------------------------------------------------

    def _corrupted_word(self, bank: int, row: int, column: int) -> Tuple[int, int]:
        """Stored word with all active corruption applied; returns
        (received_codeword, error_bits_mask)."""
        stored, version = self._stored(bank, row, column)
        mask = 0
        width = self.code.n
        for fault in self.faults:
            if fault.permanent or version <= fault.injected_version:
                mask |= fault.corruption_mask(bank, row, column, width)
        weak = self.weak_bit(bank, row, column)
        if weak is not None:
            mask |= 1 << weak
        return stored ^ mask, mask

    def read(self, bank: int, row: int, column: int) -> int:
        """Read one word; returns the value driven onto the data bus."""
        return self.read_observed(bank, row, column).value

    def read_observed(self, bank: int, row: int, column: int) -> ReadObservation:
        """Read with full instrumentation of the on-die ECC behaviour."""
        self.geometry.validate(bank, row, column)
        self.stats["reads"] += 1
        received, err_bits = self._corrupted_word(bank, row, column)
        result = self.code.decode(received)
        detected = result.detected
        if result.outcome is DecodeOutcome.CORRECTED:
            self.stats["on_die_corrections"] += 1
        if detected:
            self.stats["on_die_detections"] += 1
        value = DCMux.select(result.data, detected, self.regs)
        if detected and self.regs.xed_enable:
            self.stats["catch_words_sent"] += 1
        return ReadObservation(
            value=value,
            sent_catch_word=detected and self.regs.xed_enable,
            on_die_outcome=result.outcome,
            raw_error_bits=err_bits,
        )
