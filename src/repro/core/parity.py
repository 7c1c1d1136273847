"""RAID-3 parity arithmetic (Equations 1-3 of the paper).

The 9th chip of an XED DIMM stores the XOR of the eight data words.  On
a read, parity XOR data words must cancel to zero (Eq. 1); a nonzero
residue means some chip is lying (Eq. 2); and given the faulty chip's
position -- from a catch-word or from diagnosis -- its word is the XOR
of everything else (Eq. 3).
"""

from __future__ import annotations

from typing import List, Sequence

# Equation 1 lives with the DIMM that stores it; re-exported here.
from repro.dram.dimm import xor_parity


def parity_residue(transfers: Sequence[int]) -> int:
    """XOR over *all* transfers (data chips + parity chip).

    Zero for a consistent line; any nonzero residue is the bitwise
    difference contributed by the faulty transfer(s).
    """
    return xor_parity(transfers)


def reconstruct_word(transfers: Sequence[int], faulty_index: int) -> int:
    """Rebuild the word of ``faulty_index`` from all other transfers.

    ``transfers`` is the full set of words on the bus (8 data + parity).
    This is Equation 3: D3 = D0 xor D1 xor D2 xor Parity xor D4 ... D7,
    generalised to any position including the parity chip itself.
    """
    if not 0 <= faulty_index < len(transfers):
        raise IndexError("faulty chip index out of range")
    acc = 0
    for i, w in enumerate(transfers):
        if i != faulty_index:
            acc ^= w
    return acc


def reconstruct_line(transfers: Sequence[int], faulty_index: int) -> List[int]:
    """Return the corrected full transfer list with ``faulty_index`` rebuilt."""
    fixed = list(transfers)
    fixed[faulty_index] = reconstruct_word(transfers, faulty_index)
    return fixed
