"""The memory-controller side of XED (Sections V-VII and IX of the paper).

:class:`CatchWordProtocol` is the protocol every XED controller speaks,
whatever code sits behind the catch-words:

* catch-word provisioning: at boot it writes a unique random catch-word
  into every chip's CWR over the MRS interface and keeps copies
  (Section V-A);
* catch-word recognition on every read;
* the serial-mode re-read: XED-Enable is cleared over MRS, the line is
  re-read so each chip's on-die ECC delivers corrected data, and
  XED-Enable is restored (Section VII-B);
* collision handling: when a reconstruction equals the catch-word
  itself, the episode is logged and the chip's catch-word is rotated
  (Section V-D3);
* Detected Uncorrectable Error accounting.

:class:`XedController` runs it on the 9-chip XED DIMM and adds its
decision tree:

* RAID-3 erasure correction using the parity chip (Equation 3);
* serial-mode recovery for multi-catch-word reads, with parity
  verifying the re-read (Section VII-B);
* diagnosis escalation (inter-line with the FCT, then intra-line) when
  parity mismatches without a usable catch-word (Sections VI, VII-C);
* a DUE verdict when everything fails.

:class:`repro.core.erasure_controller.XedChipkillController` runs the
same protocol on a Chipkill rank (Section IX).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.catch_word import CatchWordRegister
from repro.core.diagnosis import (
    FaultyRowChipTracker,
    inter_line_diagnosis,
    intra_line_diagnosis,
)
from repro.core.parity import parity_residue, reconstruct_line
from repro.core.types import ReadStatus, XedReadResult
from repro.dram.dimm import XedDimm
from repro.obs import OBS, events, get_logger

log = get_logger("core.controller")


class CatchWordProtocol:
    """The catch-word protocol both XED controllers inherit.

    Provisions one catch-word per chip of ``device`` (a DIMM or rank:
    anything with ``chips`` and ``write_line``), drawn from
    ``random.Random(seed)``, and gives subclasses the protocol's steps:
    :meth:`_read_transfers`, :meth:`_serial_mode_read`,
    :meth:`_rotate_catch_word` and :meth:`_due`.  Each step keeps its
    ``stats`` entry and its telemetry.  ``stats`` starts with
    ``stats_keys`` at zero, in that order.
    """

    def __init__(self, device, seed: int, stats_keys: Sequence[str]) -> None:
        self._device = device
        self._rng = random.Random(seed)
        self.stats: Dict[str, int] = dict.fromkeys(stats_keys, 0)
        self.registers: List[CatchWordRegister] = []
        for chip in device.chips:
            reg = CatchWordRegister(width_bits=chip.regs.catch_word_bits)
            reg.generate(self._rng)
            chip.regs.set_catch_word(reg.value)
            chip.regs.set_xed_enable(True)
            self.registers.append(reg)

    @property
    def catch_words(self) -> List[int]:
        """Catch-word patterns currently programmed in the chips."""
        return [reg.value for reg in self.registers]

    def write_line(
        self, bank: int, row: int, column: int, words: Sequence[int]
    ) -> None:
        """Write one line of data words; the device fills its check chips."""
        self.stats["writes"] += 1
        if OBS.enabled:
            OBS.registry.counter("controller.writes").inc()
        self._device.write_line(bank, row, column, list(words))

    def _read_transfers(
        self, bank: int, row: int, column: int
    ) -> Tuple[List[int], List[int]]:
        """Read every chip: the transfers and the chips that sent their
        catch-word."""
        self.stats["reads"] += 1
        transfers = [
            chip.read(bank, row, column) for chip in self._device.chips
        ]
        cw_chips = [
            i for i, value in enumerate(transfers)
            if self.registers[i].matches(value)
        ]
        self.stats["catch_words_seen"] += len(cw_chips)
        if OBS.enabled:
            OBS.registry.counter("controller.reads").inc()
            if cw_chips:
                OBS.registry.counter("catch_word_detected").inc(len(cw_chips))
                for chip_idx in cw_chips:
                    OBS.trace.record(
                        events.CatchWordDetected(chip_idx, bank, row, column)
                    )
        return transfers, cw_chips

    def _serial_mode_read(self, bank: int, row: int, column: int) -> List[int]:
        """Clear XED-Enable, re-read corrected data, restore XED-Enable."""
        self.stats["serial_mode_entries"] += 1
        if OBS.enabled:
            OBS.registry.counter("serial_retry").inc()
            OBS.trace.record(events.SerialRetry(bank, row, column))
        chips = self._device.chips
        for chip in chips:
            chip.regs.set_xed_enable(False)
        corrected = [chip.read(bank, row, column) for chip in chips]
        for chip in chips:
            chip.regs.set_xed_enable(True)
        return corrected

    def _rotate_catch_word(self, chip_idx: int) -> None:
        """Log a collision episode and regenerate that chip's catch-word.

        Only an MRS write is needed -- no data scrub -- because a fresh
        random word restores the full 2^-w per-write collision odds
        regardless of what data the chip holds (Section V-D3).
        """
        self.stats["collisions"] += 1
        reg = self.registers[chip_idx]
        reg.record_collision(self._rng)
        self._device.chips[chip_idx].regs.set_catch_word(reg.value)
        if OBS.enabled:
            OBS.registry.counter("catch_word_collision").inc()
            OBS.registry.counter("catch_word_rotation").inc()
            log.debug("rotated catch-word of chip %d after collision", chip_idx)

    def _due(self, words: List[int]) -> XedReadResult:
        """Count a Detected Uncorrectable Error and return its verdict."""
        self.stats["dues"] += 1
        if OBS.enabled:
            OBS.registry.counter("due").inc()
        return XedReadResult(ReadStatus.DUE, words)


class XedController(CatchWordProtocol):
    """Drives an :class:`repro.dram.dimm.XedDimm` with the XED protocol.

    Parameters
    ----------
    dimm:
        The 9-chip DIMM (8 data + 1 parity) to manage.
    seed:
        Seed for catch-word generation; fixed for reproducibility.
    fct_capacity:
        Entries in the Faulty-row Chip Tracker (the paper uses 4-8).

    Examples
    --------
    >>> from repro.dram import XedDimm
    >>> dimm = XedDimm.build(seed=7)
    >>> ctrl = XedController(dimm)
    >>> ctrl.write_line(0, 0, 0, [0xDEAD + i for i in range(8)])
    >>> _ = dimm.inject_chip_failure(chip=3)
    >>> res = ctrl.read_line(0, 0, 0)
    >>> res.status.value, res.words[3] == 0xDEAD + 3
    ('corrected_erasure', True)
    """

    def __init__(
        self,
        dimm: XedDimm,
        seed: int = 2016,
        fct_capacity: int = 8,
    ) -> None:
        self.dimm = dimm
        self.fct = FaultyRowChipTracker(capacity=fct_capacity)
        super().__init__(dimm, seed, (
            "reads", "writes", "catch_words_seen", "erasure_corrections",
            "serial_mode_entries", "diagnoses", "collisions",
            "catch_word_updates", "dues",
        ))

    # -- writes --------------------------------------------------------------

    def write_bytes(self, bank: int, row: int, column: int, data: bytes) -> None:
        """Write a 64-byte cache line given as raw bytes."""
        nbytes = self.dimm.word_bits // 8
        expected = nbytes * XedDimm.DATA_CHIPS
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes, got {len(data)}")
        words = [
            int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little")
            for i in range(XedDimm.DATA_CHIPS)
        ]
        self.write_line(bank, row, column, words)

    # -- reads (the full Section V-VII decision tree) -------------------------

    def read_line(self, bank: int, row: int, column: int) -> XedReadResult:
        """Read a cache line, performing whatever correction is needed."""
        transfers, cw_chips = self._read_transfers(bank, row, column)
        residue = parity_residue(transfers)

        # A chip already convicted by the FCT is treated as an erasure on
        # every access (Section VI-A, the marked-dead fast path).
        known_faulty = self.fct.lookup(bank, row)
        if known_faulty is not None and not cw_chips and residue != 0:
            return self._erasure_correct(
                bank, row, column, transfers, known_faulty, method="fct"
            )

        if not cw_chips:
            if residue == 0:
                return XedReadResult(ReadStatus.CLEAN, transfers[:-1])
            # Parity mismatch with no catch-word: the on-die ECC missed a
            # multi-bit error (the 0.8% tail) -- diagnose (Section VI).
            return self._diagnose_and_correct(bank, row, column, transfers)

        if len(cw_chips) == 1:
            return self._single_catch_word(bank, row, column, transfers, cw_chips[0])

        return self._multiple_catch_words(bank, row, column, cw_chips)

    # -- single catch-word: RAID-3 erasure (Section V-C) ----------------------

    def _single_catch_word(
        self,
        bank: int,
        row: int,
        column: int,
        transfers: List[int],
        chip_idx: int,
    ) -> XedReadResult:
        fixed = reconstruct_line(transfers, chip_idx)
        self.stats["erasure_corrections"] += 1
        collision = fixed[chip_idx] == self.registers[chip_idx].value
        if OBS.enabled:
            OBS.registry.counter("erasure_reconstruction").inc()
            OBS.trace.record(
                events.ErasureReconstruction(
                    chip_idx, bank, row, column,
                    method="catch_word", collision=collision,
                )
            )
        if collision:
            # The data legitimately equals the catch-word: a collision
            # episode.  The value is still correct; rotate the word.
            self._rotate_catch_word(chip_idx)
            self.stats["catch_word_updates"] += 1
        return XedReadResult(
            ReadStatus.CORRECTED_ERASURE,
            fixed[:-1],
            catch_word_chips=[chip_idx],
            reconstructed_chip=chip_idx,
            collision=collision,
        )

    # -- multiple catch-words: serial mode (Section VII-B/C) ------------------

    def _multiple_catch_words(
        self, bank: int, row: int, column: int, cw_chips: List[int]
    ) -> XedReadResult:
        corrected = self._serial_mode_read(bank, row, column)
        if parity_residue(corrected) == 0:
            # All errors were within on-die correction reach: the
            # multi-chip scaling-fault case (Section VII-B).
            return XedReadResult(
                ReadStatus.CORRECTED_ONDIE,
                corrected[:-1],
                catch_word_chips=cw_chips,
                serial_mode=True,
            )
        # A runtime failure is hiding among the scaling faults
        # (Section VII-C): locate the failing chip and rebuild it.
        result = self._diagnose_and_correct(bank, row, column, corrected)
        result.catch_word_chips = cw_chips
        result.serial_mode = True
        return result

    # -- diagnosis escalation (Section VI) -------------------------------------

    def _diagnose_and_correct(
        self,
        bank: int,
        row: int,
        column: int,
        transfers: List[int],
    ) -> XedReadResult:
        self.stats["diagnoses"] += 1
        inter = inter_line_diagnosis(self.dimm, self.catch_words, bank, row)
        intra = intra_line_diagnosis(self.dimm, bank, row, column)

        def emit(verdict: Optional[int], method: Optional[str]) -> None:
            if OBS.enabled:
                OBS.registry.counter("diagnosis_run").inc()
                OBS.trace.record(
                    events.DiagnosisRun(
                        bank, row, column,
                        inter_chip=inter.faulty_chip,
                        intra_chip=intra.faulty_chip,
                        ambiguous=inter.ambiguous or intra.ambiguous,
                        verdict=verdict,
                        method=method,
                    )
                )
                if verdict is None:
                    log.debug(
                        "diagnosis DUE at bank=%d row=%d col=%d "
                        "(inter=%s intra=%s)",
                        bank, row, column, inter.faulty_chip, intra.faulty_chip,
                    )

        # Cross-check the two diagnoses before trusting either: two
        # suspects in one line (or disagreeing unique verdicts) mean at
        # least two failing chips, beyond single-parity reconstruction
        # -- report an honest DUE instead of rebuilding one chip from
        # another chip's garbage.
        if inter.ambiguous or intra.ambiguous:
            return self._record_due(transfers, emit)
        if (
            inter.identified
            and intra.identified
            and inter.faulty_chip != intra.faulty_chip
        ):
            return self._record_due(transfers, emit)

        # Intra-line is line-local ground truth for permanent damage, so
        # it takes precedence; inter-line covers the spatially-spread
        # (row/column/bank) and transient-large cases.
        if intra.identified:
            emit(intra.faulty_chip, "intra")
            return self._erasure_correct(
                bank, row, column, transfers, intra.faulty_chip, method="intra"
            )
        if inter.identified:
            emit(inter.faulty_chip, "inter")
            self.fct.record(bank, row, inter.faulty_chip)
            return self._erasure_correct(
                bank, row, column, transfers, inter.faulty_chip, method="inter"
            )
        return self._record_due(transfers, emit)

    def _record_due(self, transfers, emit) -> XedReadResult:
        result = self._due(transfers[:-1])
        emit(None, None)
        return result

    def _erasure_correct(
        self,
        bank: int,
        row: int,
        column: int,
        transfers: List[int],
        faulty_chip: int,
        method: str,
    ) -> XedReadResult:
        """Rebuild one chip from parity after diagnosis located it."""
        # Use on-die-corrected data from the other chips: serial-mode
        # values if we already have them, else re-read without XED so
        # scaling-corrected data (not catch-words) feeds the XOR.
        base = self._serial_mode_read(bank, row, column)
        fixed = reconstruct_line(base, faulty_chip)
        self.stats["erasure_corrections"] += 1
        if OBS.enabled:
            OBS.registry.counter("erasure_reconstruction").inc()
            OBS.trace.record(
                events.ErasureReconstruction(
                    faulty_chip, bank, row, column, method=method
                )
            )
        return XedReadResult(
            ReadStatus.CORRECTED_DIAGNOSED,
            fixed[:-1],
            reconstructed_chip=faulty_chip,
            diagnosis_used=method,
        )

    # -- maintenance -----------------------------------------------------------

    def scrub_line(self, bank: int, row: int, column: int) -> XedReadResult:
        """Read-correct-rewrite one line (clears transient damage)."""
        result = self.read_line(bank, row, column)
        if result.ok:
            self.write_line(bank, row, column, result.words)
        return result
