"""XED layered on Chipkill hardware: the Section IX controller.

A conventional Chipkill rank has 16 data chips plus two Reed-Solomon
check chips.  Without location information the two check symbols
correct one unknown-position chip; with XED's catch-words marking the
faulty chips, the same two symbols become *erasure* correctors and fix
two chips -- Double-Chipkill reliability on Single-Chipkill hardware,
with none of the 36-chip activation cost.

The controller speaks the same catch-word protocol as the 9-chip design
(:class:`repro.core.controller.CatchWordProtocol`: provisioning,
recognition, the serial-mode re-read, collision rotation and DUE
accounting); only the decode behind the catch-words differs.

With x4 devices the per-access transfer is 32 bits, so catch-words are
32-bit and collide roughly every 6.6 hours per chip; collisions are
harmless (the erasure decode reproduces the stored value) and trigger a
catch-word rotation exactly as in the 9-chip design.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.controller import CatchWordProtocol
from repro.core.types import ReadStatus, XedReadResult
from repro.dram.dimm import ChipkillRank
from repro.ecc.reed_solomon import RSDecodeFailure
from repro.obs import OBS, events


class XedChipkillController(CatchWordProtocol):
    """Drives a :class:`repro.dram.dimm.ChipkillRank` with XED erasures.

    Parameters
    ----------
    rank:
        The lockstep Chipkill rank (16+2 chips by default).
    seed:
        Catch-word generation seed.

    Examples
    --------
    >>> from repro.dram.dimm import ChipkillRank
    >>> rank = ChipkillRank(seed=3)
    >>> ctrl = XedChipkillController(rank)
    >>> ctrl.write_line(0, 0, 0, list(range(16)))
    >>> _ = rank.inject_chip_failure(chip=2)
    >>> _ = rank.inject_chip_failure(chip=9, seed=1)
    >>> ctrl.read_line(0, 0, 0).words == list(range(16))   # two chips dead
    True
    """

    def __init__(self, rank: ChipkillRank, seed: int = 2016) -> None:
        self.rank = rank
        super().__init__(rank, seed, (
            "reads", "writes", "catch_words_seen", "erasure_corrections",
            "error_corrections", "collisions", "serial_mode_entries", "dues",
        ))

    def read_line(self, bank: int, row: int, column: int) -> XedReadResult:
        """Read with catch-word-driven errors-and-erasures decoding."""
        transfers, cw_chips = self._read_transfers(bank, row, column)
        serial = len(cw_chips) > self.rank.check_chips
        if serial:
            # More erasures than check symbols: scaling faults in many
            # chips -- fall back to the serialised on-die-corrected read
            # (Section VII-B logic carried over).
            transfers = self._serial_mode_read(bank, row, column)
        erasures = [] if serial else cw_chips
        result = self._decode(bank, row, column, transfers, erasures)
        result.catch_word_chips = cw_chips
        result.serial_mode = serial
        if result.ok:
            # A data chip whose decoded word is its own catch-word stored
            # that word: a collision, so rotate it (Section V-D3).
            for chip_idx in erasures:
                catch_word = self.registers[chip_idx].value
                if (
                    chip_idx < self.rank.data_chips
                    and result.words[chip_idx] == catch_word
                ):
                    result.collision = True
                    self._rotate_catch_word(chip_idx)
        return result

    def _decode(
        self,
        bank: int,
        row: int,
        column: int,
        transfers: List[int],
        erasures: Sequence[int],
    ) -> XedReadResult:
        beats = self.rank.word_bits // 8
        out_words = [0] * self.rank.data_chips
        corrected_any = False
        for beat in range(beats):
            received = [
                (transfers[i] >> (8 * beat)) & 0xFF
                for i in range(self.rank.num_chips)
            ]
            try:
                decoded = self.rank.rs.decode(received, erasures=erasures)
            except RSDecodeFailure:
                return self._due(out_words)
            corrected_any |= decoded.detected
            for i in range(self.rank.data_chips):
                out_words[i] |= decoded.data[i] << (8 * beat)
        if erasures and corrected_any:
            self.stats["erasure_corrections"] += 1
            status = ReadStatus.CORRECTED_ERASURE
            if OBS.enabled:
                OBS.registry.counter("erasure_reconstruction").inc()
                for chip_idx in erasures:
                    OBS.trace.record(
                        events.ErasureReconstruction(
                            chip_idx, bank, row, column, method="rs_erasure"
                        )
                    )
        elif corrected_any:
            self.stats["error_corrections"] += 1
            status = ReadStatus.CORRECTED_ONDIE
            if OBS.enabled:
                OBS.registry.counter("ondie_correction").inc()
        else:
            status = ReadStatus.CLEAN
        return XedReadResult(status, out_words)
