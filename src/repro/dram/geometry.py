"""DRAM geometry and address arithmetic.

The paper's baseline (Table V) is a DDR3 system with 4 channels, 2 ranks
per channel, 8 banks per rank, 32K rows per bank and 128 cache lines per
row, built from 2Gb x8 devices.  Each x8 chip contributes 64 bits per
cache-line access (8 bursts of 8 bits); an x4 chip contributes 32 bits.

A chip addresses one access word by ``(bank, row, column)``, where
``column`` indexes a cache line within the open row.
"""

from __future__ import annotations

from dataclasses import dataclass


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
