"""DRAM geometry and address arithmetic.

The paper's baseline (Table V) is a DDR3 system with 4 channels, 2 ranks
per channel, 8 banks per rank, 32K rows per bank and 128 cache lines per
row, built from 2Gb x8 devices.  Each x8 chip contributes 64 bits per
cache-line access (8 bursts of 8 bits); an x4 chip contributes 32 bits.

Addresses are decomposed into ``(channel, rank, bank, row, column)``
where ``column`` indexes a cache line within the open row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LineAddress:
    """The decomposed address of one cache line."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


@dataclass(frozen=True)
class ChipGeometry:
    """Geometry of a single DRAM chip.

    Attributes
    ----------
    banks, rows_per_bank, columns_per_row:
        Table-V defaults: 8 banks, 32K rows, 128 cache lines per row.
    device_width:
        Data pins (x8 or x4).  Determines the per-access beat width and
        therefore the catch-word width (64-bit for x8, 32-bit for x4).
    """

    banks: int = 8
    rows_per_bank: int = 32 * 1024
    columns_per_row: int = 128
    device_width: int = 8

    @property
    def bits_per_access(self) -> int:
        """Bits a single chip supplies per cache-line access (8 bursts)."""
        return self.device_width * 8

    @property
    def words_per_bank(self) -> int:
        """64-bit words per bank (rows x columns)."""
        return self.rows_per_bank * self.columns_per_row

    @property
    def total_words(self) -> int:
        """Total per-access words stored by the chip."""
        return self.banks * self.words_per_bank

    @property
    def capacity_bits(self) -> int:
        """User-visible capacity in bits (excludes on-die ECC bits)."""
        return self.total_words * self.bits_per_access

    def validate(self, bank: int, row: int, column: int) -> None:
        """Raise IndexError for an out-of-range bank/row/column."""
        if not 0 <= bank < self.banks:
            raise IndexError(f"bank {bank} out of range [0,{self.banks})")
        if not 0 <= row < self.rows_per_bank:
            raise IndexError(f"row {row} out of range [0,{self.rows_per_bank})")
        if not 0 <= column < self.columns_per_row:
            raise IndexError(
                f"column {column} out of range [0,{self.columns_per_row})"
            )

    def word_index(self, bank: int, row: int, column: int) -> int:
        """Flatten (bank, row, column) into a word index."""
        self.validate(bank, row, column)
        return (bank * self.rows_per_bank + row) * self.columns_per_row + column


@dataclass(frozen=True)
class DimmGeometry:
    """Geometry of a memory system built from identical chips.

    ``data_chips``/``check_chips`` describe one rank of one logical DIMM
    as seen by a single access: 8+1 for an ECC-DIMM, 16+2 for x4
    Chipkill, 32+4 for Double-Chipkill.
    """

    channels: int = 4
    ranks_per_channel: int = 2
    data_chips: int = 8
    check_chips: int = 1
    chip: ChipGeometry = ChipGeometry()

    @property
    def chips_per_rank(self) -> int:
        """Data chips per rank (no dedicated ECC chip under XED)."""
        return self.data_chips + self.check_chips

    @property
    def total_chips(self) -> int:
        """Chips across all ranks of the DIMM."""
        return self.channels * self.ranks_per_channel * self.chips_per_rank

    @property
    def line_bytes(self) -> int:
        """Cache-line size implied by the data chips (64B in the paper)."""
        return self.data_chips * self.chip.bits_per_access // 8

    @property
    def lines_per_rank(self) -> int:
        """64-byte cache lines addressable per rank."""
        return self.chip.total_words

    @property
    def data_capacity_bytes(self) -> int:
        """Usable data capacity of the DIMM in bytes."""
        return (
            self.channels
            * self.ranks_per_channel
            * self.lines_per_rank
            * self.line_bytes
        )

    def decompose(self, line_index: int) -> LineAddress:
        """Map a flat cache-line index to (channel, rank, bank, row, col).

        The interleaving is channel-first (consecutive lines alternate
        channels), then column, then bank, then row, then rank -- the
        open-page friendly layout USIMM's address mapper uses.
        """
        if line_index < 0:
            raise IndexError("negative line index")
        g = self.chip
        idx, channel = divmod(line_index, self.channels)
        idx, column = divmod(idx, g.columns_per_row)
        idx, bank = divmod(idx, g.banks)
        idx, row = divmod(idx, g.rows_per_bank)
        rank = idx
        if rank >= self.ranks_per_channel:
            raise IndexError(f"line index {line_index} beyond capacity")
        return LineAddress(channel, rank, bank, row, column)

    def compose(self, addr: LineAddress) -> int:
        """Inverse of :meth:`decompose`."""
        g = self.chip
        idx = addr.rank
        idx = idx * g.rows_per_bank + addr.row
        idx = idx * g.banks + addr.bank
        idx = idx * g.columns_per_row + addr.column
        return idx * self.channels + addr.channel

    # -- canned configurations -------------------------------------------

    @classmethod
    def ecc_dimm_x8(cls) -> "DimmGeometry":
        """The paper's baseline: 9-chip ECC-DIMM of x8 devices."""
        return cls(data_chips=8, check_chips=1, chip=ChipGeometry(device_width=8))

    @classmethod
    def non_ecc_dimm_x8(cls) -> "DimmGeometry":
        """The paper's commodity Non-ECC DIMM: 9-1 = no; x8, 8 chips."""
        return cls(data_chips=8, check_chips=0, chip=ChipGeometry(device_width=8))

    @classmethod
    def chipkill_x4(cls) -> "DimmGeometry":
        """Conventional Chipkill: 18 x4 chips per access (16 data + 2)."""
        return cls(data_chips=16, check_chips=2, chip=ChipGeometry(device_width=4))

    @classmethod
    def double_chipkill_x4(cls) -> "DimmGeometry":
        """Double-Chipkill: 36 x4 chips per access (32 data + 4)."""
        return cls(data_chips=32, check_chips=4, chip=ChipGeometry(device_width=4))
