"""Address-range fault representation with exact intersection tests.

FaultSim's key data structure represents a fault as a (value, wildcard
mask) pair over the chip's flattened address bits: the fault covers
every address that matches ``value`` on the non-wildcard bits.  Range
intersection -- "can these two faults corrupt the same ECC codeword?" --
then reduces to one bitwise expression:

    (value_a ^ value_b) & ~wild_a & ~wild_b == 0

Because each fault either fully fixes or fully frees every address bit,
pairwise compatibility implies k-way compatibility, which the
Double-Chipkill evaluator exploits for triple-fault checks.

Address layout (31 bits for the paper's 2Gb x8 chip)::

    | bank (3) | row (15) | column (7) | beat (3) | bit-in-beat (3) |

The low six bits address a bit within the chip's 64-bit per-access
word; ``beat`` is the burst beat (byte lane) the bit travels in, which
matters because a DRAM *column* failure breaks one device-width lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.dram.geometry import ChipGeometry
from repro.faultsim.fault_models import FailureMode


@dataclass(frozen=True)
class FaultSpace:
    """Bit-field layout of a chip's flattened fault-address space."""

    bank_bits: int = 3
    row_bits: int = 15
    column_bits: int = 7
    beat_bits: int = 3
    lane_bits: int = 3  # bit within the device-width beat

    @classmethod
    def for_chip(cls, chip: ChipGeometry) -> "FaultSpace":
        """Derive the bit-field layout from a chip's geometry."""
        lane = chip.device_width.bit_length() - 1
        beat = 3  # 8 burst beats in DDR3
        return cls(
            bank_bits=(chip.banks - 1).bit_length(),
            row_bits=(chip.rows_per_bank - 1).bit_length(),
            column_bits=(chip.columns_per_row - 1).bit_length(),
            beat_bits=beat,
            lane_bits=lane,
        )

    # -- field offsets (low to high: lane, beat, column, row, bank) -------

    @property
    def beat_shift(self) -> int:
        """Bit offset of the burst-beat field."""
        return self.lane_bits

    @property
    def column_shift(self) -> int:
        """Bit offset of the column field."""
        return self.lane_bits + self.beat_bits

    @property
    def row_shift(self) -> int:
        """Bit offset of the row field."""
        return self.column_shift + self.column_bits

    @property
    def bank_shift(self) -> int:
        """Bit offset of the bank field."""
        return self.row_shift + self.row_bits

    @property
    def total_bits(self) -> int:
        """Total width of the flattened address in bits."""
        return self.bank_shift + self.bank_bits

    def field_mask(self, shift: int, bits: int) -> int:
        """Mask of ``bits`` contiguous bits starting at ``shift``."""
        return ((1 << bits) - 1) << shift

    @property
    def lane_mask(self) -> int:
        """Mask of the bit-within-beat (device lane) field."""
        return self.field_mask(0, self.lane_bits)

    @property
    def beat_mask(self) -> int:
        """Mask of the burst-beat field."""
        return self.field_mask(self.beat_shift, self.beat_bits)

    @property
    def word_mask(self) -> int:
        """All bits addressing within one 64-bit word (lane + beat)."""
        return self.lane_mask | self.beat_mask

    @property
    def column_mask(self) -> int:
        """Mask of the column field."""
        return self.field_mask(self.column_shift, self.column_bits)

    @property
    def row_mask(self) -> int:
        """Mask of the row field."""
        return self.field_mask(self.row_shift, self.row_bits)

    @property
    def full_mask(self) -> int:
        """Mask covering every address bit (whole chip)."""
        return (1 << self.total_bits) - 1

    def wildcard_for(self, mode: FailureMode) -> int:
        """The wildcard mask FaultSim assigns each failure granularity."""
        if mode is FailureMode.SINGLE_BIT:
            return 0
        if mode is FailureMode.SINGLE_WORD:
            return self.word_mask
        if mode is FailureMode.SINGLE_COLUMN:
            # A broken bitline/column-select: fixed bank, column and
            # beat; every row; all device-width bits of the lane.
            return self.row_mask | self.lane_mask
        if mode is FailureMode.SINGLE_ROW:
            return self.column_mask | self.word_mask
        if mode is FailureMode.SINGLE_BANK:
            return self.row_mask | self.column_mask | self.word_mask
        # MULTI_BANK and MULTI_RANK blanket the whole chip.
        return self.full_mask


@dataclass(frozen=True)
class AddressRange:
    """A (value, wildcard) address set within one chip."""

    value: int
    wildcard: int

    def covers(self, address: int) -> bool:
        """True when ``address`` lies inside this range."""
        return (address ^ self.value) & ~self.wildcard == 0

    def intersects(self, other: "AddressRange") -> bool:
        """True when some address lies in both ranges."""
        return (self.value ^ other.value) & ~self.wildcard & ~other.wildcard == 0


@dataclass(frozen=True)
class ChipFault:
    """One sampled runtime fault, located in space and time.

    Attributes
    ----------
    channel, rank, chip:
        Which chip of the memory system is damaged.  ``chip`` is the
        position within the rank (0..chips_per_rank-1).
    mode, permanent:
        Failure mode and persistence (from Table I sampling).
    time_hours:
        Arrival time within the simulated lifetime.
    addr:
        The fault's address range within the chip.
    on_die_correctable:
        Whether the chip's on-die ECC can transparently absorb it.  A
        single-bit fault is correctable unless it struck a word that
        already holds a scaling fault (handled by the scaling model).
    end_hours:
        Deactivation time; ``inf`` without scrubbing.
    """

    channel: int
    rank: int
    chip: int
    mode: FailureMode
    permanent: bool
    time_hours: float
    addr: AddressRange
    on_die_correctable: bool
    end_hours: float = float("inf")

    def overlaps_in_time(self, other: "ChipFault") -> bool:
        """True when both faults' active intervals intersect."""
        return (
            self.time_hours <= other.end_hours
            and other.time_hours <= self.end_hours
        )

    def same_rank(self, other: "ChipFault") -> bool:
        """True when both faults sit in the same channel and rank."""
        return self.channel == other.channel and self.rank == other.rank

    def collides_with(self, other: "ChipFault") -> bool:
        """Can this fault and ``other`` corrupt one codeword together?

        Requires: same rank (codewords span one rank), different chips
        (same-chip damage is still one symbol/erasure), overlapping
        address ranges, and temporal overlap.
        """
        return (
            self.same_rank(other)
            and self.chip != other.chip
            and self.overlaps_in_time(other)
            and self.addr.intersects(other.addr)
        )


def combination_failure_time(faults: Sequence[ChipFault]) -> float:
    """When a jointly-colliding fault set becomes fatal: the last arrival."""
    return max(f.time_hours for f in faults)


def group_by_rank(faults: Iterable[ChipFault]) -> dict:
    """Bucket faults by (channel, rank)."""
    groups: dict = {}
    for fault in faults:
        groups.setdefault((fault.channel, fault.rank), []).append(fault)
    return groups
