"""Unit tests for the XED controller: the Section V-VII decision tree."""

import pytest

from repro.core import ReadStatus, XedController
from repro.dram import XedDimm
from repro.dram.chip import FaultGranularity
from repro.dram.mode_registers import ModeRegisters

LINE = [0x1000_0000_0000_0000 + i for i in range(8)]


def system(seed=1, scaling=0.0, **kwargs):
    dimm = XedDimm.build(seed=seed, scaling_ber=scaling)
    return dimm, XedController(dimm, seed=seed + 7, **kwargs)


class TestProvisioning:
    def test_catch_words_unique_per_chip(self):
        _, ctrl = system(1)
        assert len(set(ctrl.catch_words)) == 9

    def test_xed_enable_set_on_all_chips(self):
        dimm, _ = system(2)
        assert all(chip.regs.xed_enable for chip in dimm.chips)

    def test_chips_hold_controller_copy(self):
        dimm, ctrl = system(3)
        for chip, cw in zip(dimm.chips, ctrl.catch_words):
            assert chip.regs.catch_word == cw

    def test_storage_overhead_65_bits_per_chip(self):
        dimm, _ = system(4)
        assert all(
            chip.regs.storage_overhead_bits == 65 for chip in dimm.chips
        )

    def test_mode_registers_count_mrs_writes(self):
        regs = ModeRegisters()
        regs.set_catch_word(5)
        regs.set_xed_enable(True)
        assert regs.mrs_writes == 2

    def test_mode_register_range_check(self):
        with pytest.raises(ValueError):
            ModeRegisters(catch_word_bits=32).set_catch_word(1 << 32)


class TestCleanPath:
    def test_clean_read(self):
        _, ctrl = system(5)
        ctrl.write_line(0, 0, 0, LINE)
        result = ctrl.read_line(0, 0, 0)
        assert result.status is ReadStatus.CLEAN
        assert result.words == LINE
        assert result.ok

    def test_data_bytes_little_endian(self):
        _, ctrl = system(6)
        ctrl.write_line(0, 0, 0, LINE)
        data = ctrl.read_line(0, 0, 0).data
        assert len(data) == 64
        assert int.from_bytes(data[:8], "little") == LINE[0]

    def test_write_bytes_roundtrip(self):
        _, ctrl = system(7)
        payload = bytes(range(64))
        ctrl.write_bytes(0, 1, 2, payload)
        assert ctrl.read_line(0, 1, 2).data == payload

    def test_write_bytes_length_check(self):
        _, ctrl = system(8)
        with pytest.raises(ValueError):
            ctrl.write_bytes(0, 0, 0, b"short")


class TestErasurePath:
    @pytest.mark.parametrize("granularity", [
        FaultGranularity.WORD,
        FaultGranularity.ROW,
        FaultGranularity.BANK,
        FaultGranularity.CHIP,
    ])
    def test_single_chip_fault_corrected(self, granularity):
        dimm, ctrl = system(9)
        ctrl.write_line(0, 0, 0, LINE)
        dimm.inject_chip_failure(chip=5, granularity=granularity)
        result = ctrl.read_line(0, 0, 0)
        assert result.ok and result.words == LINE
        assert result.status is ReadStatus.CORRECTED_ERASURE
        assert result.reconstructed_chip == 5

    def test_every_chip_position_recoverable(self):
        for chip in range(9):
            dimm, ctrl = system(20 + chip)
            ctrl.write_line(0, 0, 0, LINE)
            dimm.inject_chip_failure(chip=chip)
            result = ctrl.read_line(0, 0, 0)
            assert result.ok and result.words == LINE, f"chip {chip}"

    def test_stats_track_corrections(self):
        dimm, ctrl = system(10)
        ctrl.write_line(0, 0, 0, LINE)
        dimm.inject_chip_failure(chip=1)
        ctrl.read_line(0, 0, 0)
        assert ctrl.stats["catch_words_seen"] == 1
        assert ctrl.stats["erasure_corrections"] == 1


class TestCollisionPath:
    def test_collision_detected_and_rotated(self):
        dimm, ctrl = system(11)
        cw = ctrl.catch_words[2]
        line = list(LINE)
        line[2] = cw  # store the catch-word itself as data
        ctrl.write_line(0, 0, 3, line)
        result = ctrl.read_line(0, 0, 3)
        assert result.collision
        assert result.words == line  # data still correct
        assert ctrl.stats["collisions"] == 1
        assert ctrl.catch_words[2] != cw  # rotated
        assert dimm.chips[2].regs.catch_word == ctrl.catch_words[2]

    def test_read_after_rotation_is_clean(self):
        _, ctrl = system(12)
        line = list(LINE)
        line[4] = ctrl.catch_words[4]
        ctrl.write_line(0, 0, 4, line)
        ctrl.read_line(0, 0, 4)
        result = ctrl.read_line(0, 0, 4)
        assert result.status is ReadStatus.CLEAN
        assert result.words == line

    def test_rotation_is_cheap(self):
        """Section V-D3: only MRS writes, no data scrub."""
        dimm, ctrl = system(13)
        line = list(LINE)
        line[0] = ctrl.catch_words[0]
        ctrl.write_line(0, 0, 5, line)
        writes_before = dimm.chips[0].stats["writes"]
        mrs_before = dimm.chips[0].regs.mrs_writes
        ctrl.read_line(0, 0, 5)
        assert dimm.chips[0].stats["writes"] == writes_before
        assert dimm.chips[0].regs.mrs_writes == mrs_before + 1


class TestSerialModePath:
    def _multi_weak_column(self, dimm, bank=0, row=0):
        for col in range(128):
            weak = [
                i for i, chip in enumerate(dimm.chips)
                if chip.weak_bit(bank, row, col) is not None
            ]
            if len(weak) >= 2:
                return col, weak
        pytest.skip("no multi-weak column at this seed")

    def test_multi_catch_word_scaling_recovered(self):
        dimm, ctrl = system(14, scaling=8e-3)
        col, weak = self._multi_weak_column(dimm)
        ctrl.write_line(0, 0, col, LINE)
        result = ctrl.read_line(0, 0, col)
        assert result.status is ReadStatus.CORRECTED_ONDIE
        assert result.words == LINE
        assert result.serial_mode
        assert set(weak) <= set(result.catch_word_chips)
        assert ctrl.stats["serial_mode_entries"] == 1

    def test_serial_mode_restores_xed_enable(self):
        dimm, ctrl = system(15, scaling=8e-3)
        col, _ = self._multi_weak_column(dimm)
        ctrl.write_line(0, 0, col, LINE)
        ctrl.read_line(0, 0, col)
        assert all(chip.regs.xed_enable for chip in dimm.chips)

    def test_chip_failure_amid_scaling_faults(self):
        """Section VII-C: runtime chip failure + scaling catch-words."""
        dimm, ctrl = system(16, scaling=8e-3)
        col, weak = self._multi_weak_column(dimm)
        victim = next(i for i in range(9) if i not in weak)
        for c in range(128):
            ctrl.write_line(0, 0, c, LINE)
        dimm.inject_chip_failure(
            chip=victim, granularity=FaultGranularity.BANK, bank=0
        )
        result = ctrl.read_line(0, 0, col)
        assert result.ok and result.words == LINE
        assert result.status in (
            ReadStatus.CORRECTED_DIAGNOSED, ReadStatus.CORRECTED_ERASURE
        )


class TestDiagnosisPath:
    def test_fct_marks_dead_chip_and_fast_paths(self):
        dimm, ctrl = system(17, fct_capacity=4)
        for row in range(4):
            for col in range(128):
                ctrl.write_line(0, row, col, LINE)
        dimm.inject_chip_failure(
            chip=3, granularity=FaultGranularity.BANK, bank=0
        )
        # Reads across enough rows should eventually convict chip 3 in
        # the FCT via the catch-word flow (inter-line diagnosis records
        # only run on the no-catch-word path; force it by diagnosing).
        from repro.core.diagnosis import inter_line_diagnosis

        for row in range(4):
            result = inter_line_diagnosis(dimm, ctrl.catch_words, 0, row)
            assert result.faulty_chip == 3
            ctrl.fct.record(0, row, 3)
        assert ctrl.fct.dead_chip == 3

    def test_scrub_line_rewrites_corrected_data(self):
        dimm, ctrl = system(18)
        ctrl.write_line(0, 0, 9, LINE)
        dimm.chips[2].inject(
            __import__("repro.dram.chip", fromlist=["InjectedFault"]).InjectedFault(
                FaultGranularity.WORD, False, bank=0, row=0, column=9
            )
        )
        result = ctrl.scrub_line(0, 0, 9)
        assert result.ok and result.words == LINE
        # Transient damage gone after the scrub's rewrite.
        follow_up = ctrl.read_line(0, 0, 9)
        assert follow_up.status is ReadStatus.CLEAN
