"""Unit tests for Table-I FIT rates and fault-mode semantics."""

import pytest

from repro.faultsim.fault_models import (
    DEFAULT_SCALING_FAULT_RATE,
    DRAM_FIT_RATES,
    HOURS_PER_YEAR,
    LIFETIME_HOURS,
    ON_DIE_MISS_PROBABILITY,
    FailureMode,
    FitTable,
    ModeRate,
)


class TestTableIValues:
    def test_exact_paper_rates(self):
        assert DRAM_FIT_RATES[FailureMode.SINGLE_BIT] == ModeRate(14.2, 18.6)
        assert DRAM_FIT_RATES[FailureMode.SINGLE_WORD] == ModeRate(1.4, 0.3)
        assert DRAM_FIT_RATES[FailureMode.SINGLE_COLUMN] == ModeRate(1.4, 5.6)
        assert DRAM_FIT_RATES[FailureMode.SINGLE_ROW] == ModeRate(0.2, 8.2)
        assert DRAM_FIT_RATES[FailureMode.SINGLE_BANK] == ModeRate(0.8, 10.0)
        assert DRAM_FIT_RATES[FailureMode.MULTI_BANK] == ModeRate(0.3, 1.4)
        assert DRAM_FIT_RATES[FailureMode.MULTI_RANK] == ModeRate(0.9, 2.8)

    def test_constants(self):
        assert DEFAULT_SCALING_FAULT_RATE == 1e-4
        assert ON_DIE_MISS_PROBABILITY == 0.008
        assert LIFETIME_HOURS == 7 * HOURS_PER_YEAR

    def test_only_bit_faults_on_die_correctable(self):
        correctable = {m for m in FailureMode if m.on_die_correctable}
        assert correctable == {FailureMode.SINGLE_BIT}

    def test_multi_rank_spans_ranks(self):
        assert FailureMode.MULTI_RANK.spans_ranks
        assert not FailureMode.SINGLE_BANK.spans_ranks


class TestFitTable:
    def test_totals(self):
        fit = FitTable()
        assert fit.total_fit == pytest.approx(66.1)
        assert fit.uncorrectable_by_on_die_fit == pytest.approx(33.3)

    def test_word_fault_due_exposure_matches_paper(self):
        """The 7.7e-4 transient-word exposure behind Table IV."""
        fit = FitTable()
        rate = fit.rate_of(FailureMode.SINGLE_WORD, permanent=False)
        exposure = rate * 1e-9 * 9 * LIFETIME_HOURS
        assert exposure == pytest.approx(7.7e-4, rel=0.02)

    def test_mode_weights_sum_to_one(self):
        weights = FitTable().mode_weights()
        assert sum(w for _, _, w in weights) == pytest.approx(1.0)
        assert len(weights) == 14  # 7 modes x {transient, permanent}

    def test_scaled(self):
        doubled = FitTable().scaled(2.0)
        assert doubled.total_fit == pytest.approx(2 * 66.1)

    def test_rate_of_permanence_split(self):
        fit = FitTable()
        assert fit.rate_of(FailureMode.SINGLE_ROW, permanent=True) == 8.2
        assert fit.rate_of(FailureMode.SINGLE_ROW, permanent=False) == 0.2
