"""Unit tests for the behavioural DRAM chip (on-die ECC + DC-Mux)."""

import pytest

from repro.dram.chip import (
    DCMux,
    DramChip,
    FaultGranularity,
    InjectedFault,
    _mix64,
    _word_hash,
)
from repro.dram.geometry import ChipGeometry
from repro.dram.mode_registers import ModeRegisters
from repro.ecc import HammingSECDED
from repro.ecc.secded import DecodeOutcome


class TestHashing:
    def test_mix64_is_deterministic_and_spreads(self):
        assert _mix64(1) == _mix64(1)
        values = {_mix64(i) for i in range(1000)}
        assert len(values) == 1000

    def test_word_hash_varies_by_location_and_salt(self):
        a = _word_hash(1, 0, 0, 0)
        assert a != _word_hash(1, 0, 0, 1)
        assert a != _word_hash(1, 0, 1, 0)
        assert a != _word_hash(2, 0, 0, 0)
        assert a != _word_hash(1, 0, 0, 0, salt=5)


class TestBasicStorage:
    def test_write_read_roundtrip(self):
        chip = DramChip()
        chip.write(0, 5, 7, 0xDEADBEEF)
        assert chip.read(0, 5, 7) == 0xDEADBEEF

    def test_unwritten_words_read_zero(self):
        assert DramChip().read(3, 100, 50) == 0

    def test_write_rejects_oversized(self):
        with pytest.raises(ValueError):
            DramChip().write(0, 0, 0, 1 << 64)

    def test_bounds_checked(self):
        chip = DramChip()
        with pytest.raises(IndexError):
            chip.write(8, 0, 0, 1)
        with pytest.raises(IndexError):
            chip.read(0, 0, 128)

    def test_stats_counted(self):
        chip = DramChip()
        chip.write(0, 0, 0, 1)
        chip.read(0, 0, 0)
        chip.read(0, 0, 1)
        assert chip.stats["writes"] == 1
        assert chip.stats["reads"] == 2

    def test_alternative_on_die_code(self):
        chip = DramChip(on_die_code=HammingSECDED())
        chip.write(0, 0, 0, 0x1234)
        assert chip.read(0, 0, 0) == 0x1234


class TestInjectedFaultCoverage:
    def test_bit_fault_covers_only_its_word(self):
        f = InjectedFault(FaultGranularity.BIT, True, bank=1, row=2, column=3, bit=5)
        assert f.covers(1, 2, 3)
        assert not f.covers(1, 2, 4)
        assert not f.covers(0, 2, 3)
        assert f.corruption_mask(1, 2, 3, 72) == 1 << 5

    def test_row_fault_covers_whole_row(self):
        f = InjectedFault(FaultGranularity.ROW, True, bank=1, row=2)
        assert f.covers(1, 2, 0) and f.covers(1, 2, 127)
        assert not f.covers(1, 3, 0)

    def test_column_fault_same_bit_every_row(self):
        f = InjectedFault(
            FaultGranularity.COLUMN, True, bank=0, column=9, bit=13
        )
        m1 = f.corruption_mask(0, 0, 9, 72)
        m2 = f.corruption_mask(0, 31000, 9, 72)
        assert m1 == m2 == 1 << 13  # broken bitline: stable position
        assert f.corruption_mask(0, 5, 10, 72) == 0

    def test_bank_and_chip_reach(self):
        bank = InjectedFault(FaultGranularity.BANK, True, bank=2)
        chipf = InjectedFault(FaultGranularity.CHIP, True)
        assert bank.covers(2, 9, 9) and not bank.covers(3, 9, 9)
        assert chipf.covers(7, 1, 1)

    def test_word_fault_multi_bit(self):
        f = InjectedFault(
            FaultGranularity.WORD, True, bank=0, row=0, column=0, severity=4
        )
        mask = f.corruption_mask(0, 0, 0, 72)
        assert bin(mask).count("1") >= 2  # genuinely multi-bit

    def test_corruption_mask_stable(self):
        f = InjectedFault(FaultGranularity.BANK, True, bank=0, seed=3)
        assert f.corruption_mask(0, 7, 7, 72) == f.corruption_mask(0, 7, 7, 72)


class TestRuntimeFaults:
    def test_permanent_chip_failure_detected_by_on_die(self):
        chip = DramChip()
        chip.write(0, 0, 0, 77)
        chip.inject(InjectedFault(FaultGranularity.CHIP, True))
        obs = chip.read_observed(0, 0, 0)
        assert obs.on_die_outcome is DecodeOutcome.DETECTED_UNCORRECTABLE
        assert not obs.sent_catch_word  # XED not enabled yet

    def test_permanent_single_bit_corrected_invisibly(self):
        chip = DramChip()
        chip.write(1, 2, 3, 0xABC)
        chip.inject(
            InjectedFault(FaultGranularity.BIT, True, bank=1, row=2, column=3, bit=7)
        )
        obs = chip.read_observed(1, 2, 3)
        assert obs.on_die_outcome is DecodeOutcome.CORRECTED
        assert obs.value == 0xABC  # on-die ECC hides it
        assert chip.stats["on_die_corrections"] == 1

    def test_transient_fault_cleared_by_rewrite(self):
        chip = DramChip()
        chip.write(0, 1, 2, 500)
        chip.inject(
            InjectedFault(
                FaultGranularity.WORD, False, bank=0, row=1, column=2
            )
        )
        assert chip.read_observed(0, 1, 2).on_die_outcome is not DecodeOutcome.CLEAN
        chip.write(0, 1, 2, 500)  # rewrite heals transient damage
        obs = chip.read_observed(0, 1, 2)
        assert obs.on_die_outcome is DecodeOutcome.CLEAN
        assert obs.value == 500

    def test_permanent_fault_survives_rewrite(self):
        chip = DramChip()
        chip.write(0, 1, 2, 500)
        chip.inject(
            InjectedFault(
                FaultGranularity.WORD, True, bank=0, row=1, column=2
            )
        )
        chip.write(0, 1, 2, 500)
        assert chip.read_observed(0, 1, 2).on_die_outcome is not DecodeOutcome.CLEAN

    def test_transient_row_fault_damages_written_words(self):
        chip = DramChip()
        for col in (0, 5, 9):
            chip.write(2, 40, col, col + 1)
        chip.inject(InjectedFault(FaultGranularity.ROW, False, bank=2, row=40))
        outcomes = [
            chip.read_observed(2, 40, col).on_die_outcome for col in (0, 5, 9)
        ]
        assert all(o is not DecodeOutcome.CLEAN for o in outcomes)
        # Other rows untouched.
        chip.write(2, 41, 0, 9)
        assert chip.read(2, 41, 0) == 9


class TestXedBehaviour:
    def test_catch_word_sent_on_detection(self):
        chip = DramChip()
        chip.regs.set_catch_word(0xCAFEBABE12345678)
        chip.regs.set_xed_enable(True)
        chip.write(0, 0, 0, 42)
        chip.inject(InjectedFault(FaultGranularity.CHIP, True))
        obs = chip.read_observed(0, 0, 0)
        assert obs.sent_catch_word
        assert obs.value == 0xCAFEBABE12345678
        assert chip.stats["catch_words_sent"] == 1

    def test_catch_word_sent_even_on_correction(self):
        """Figure 3: detect OR correct both divert to the catch-word."""
        chip = DramChip()
        chip.regs.set_catch_word(0x1111)
        chip.regs.set_xed_enable(True)
        chip.write(0, 0, 0, 7)
        chip.inject(
            InjectedFault(FaultGranularity.BIT, True, bank=0, row=0, column=0, bit=3)
        )
        obs = chip.read_observed(0, 0, 0)
        assert obs.on_die_outcome is DecodeOutcome.CORRECTED
        assert obs.sent_catch_word and obs.value == 0x1111

    def test_xed_disabled_returns_corrected_data(self):
        chip = DramChip()
        chip.regs.set_catch_word(0x2222)
        chip.regs.set_xed_enable(False)
        chip.write(0, 0, 0, 7)
        chip.inject(
            InjectedFault(FaultGranularity.BIT, True, bank=0, row=0, column=0, bit=3)
        )
        assert chip.read(0, 0, 0) == 7

    def test_dc_mux_truth_table(self):
        regs = ModeRegisters()
        regs.set_catch_word(99)
        regs.set_xed_enable(True)
        assert DCMux.select(5, detected=False, regs=regs) == 5
        assert DCMux.select(5, detected=True, regs=regs) == 99
        regs.set_xed_enable(False)
        assert DCMux.select(5, detected=True, regs=regs) == 5


class TestScalingFaults:
    def test_weak_bits_deterministic(self):
        chip = DramChip(scaling_ber=1e-3, seed=77)
        again = DramChip(scaling_ber=1e-3, seed=77)
        for col in range(64):
            assert chip.weak_bit(0, 0, col) == again.weak_bit(0, 0, col)

    def test_weak_bit_rate_close_to_model(self):
        chip = DramChip(scaling_ber=1e-3, seed=5)
        samples = 20000
        weak = sum(
            chip.weak_bit(b, r, c) is not None
            for b in range(2)
            for r in range(100)
            for c in range(100)
        )
        expected = (1 - (1 - 1e-3) ** 64) * samples
        assert 0.7 * expected < weak < 1.3 * expected

    def test_zero_rate_means_no_weak_bits(self):
        chip = DramChip(scaling_ber=0.0)
        assert all(chip.weak_bit(0, 0, c) is None for c in range(128))

    def test_weak_cell_corrected_by_on_die(self):
        chip = DramChip(scaling_ber=5e-3, seed=3)
        target = next(
            (b, r, c)
            for b in range(8)
            for r in range(50)
            for c in range(128)
            if chip.weak_bit(b, r, c) is not None
        )
        chip.write(*target, 0xF00D)
        obs = chip.read_observed(*target)
        assert obs.on_die_outcome is DecodeOutcome.CORRECTED
        assert obs.value == 0xF00D

    def test_x4_chip_geometry(self):
        chip = DramChip(geometry=ChipGeometry(device_width=4))
        assert chip.regs.catch_word_bits == 32
