"""Cross-validation between the Monte-Carlo engine and closed forms.

The reproduction has two independent reliability paths -- the sampled
Monte-Carlo simulator and the analytical models -- plus the behavioural
stack.  These tests require them to agree, which is the strongest
internal-consistency evidence a reproduction can offer.
"""

import pytest

from repro.faultsim import (
    ChipkillScheme,
    EccDimmScheme,
    FitTable,
    MonteCarloConfig,
    XedScheme,
    analytical,
    simulate,
)
from repro.faultsim.fault_models import FailureMode


class TestEccDimmAgainstClosedForm:
    def test_single_fault_scheme_matches_poisson(self):
        """ECC-DIMM fails on the first visible fault, so P(fail) must
        equal 1 - exp(-lambda) with lambda from the FIT table."""
        import math

        cfg = MonteCarloConfig(num_systems=300_000, seed=11)
        result = simulate(EccDimmScheme(), cfg)
        fit = FitTable()
        lam = (
            fit.uncorrectable_by_on_die_fit
            * 1e-9
            * cfg.hours
            * EccDimmScheme().total_chips
        )
        expected = 1.0 - math.exp(-lam)
        assert result.probability_of_failure == pytest.approx(
            expected, rel=0.03
        )

    def test_failure_times_uniformish(self):
        """First-fault failure times follow the (near-uniform) arrival
        distribution: the year-3.5 quantile sits near half the mass."""
        cfg = MonteCarloConfig(num_systems=150_000, seed=12)
        result = simulate(EccDimmScheme(), cfg)
        half = result.probability_by_year(3.5)
        assert half == pytest.approx(
            result.probability_of_failure / 2, rel=0.08
        )


class TestPairSchemesAgainstClosedForm:
    def test_xed_matches_pair_approximation(self):
        cfg = MonteCarloConfig(num_systems=400_000, seed=13)
        mc = simulate(XedScheme(), cfg).probability_of_failure
        analytic = analytical.multi_chip_data_loss_probability(
            chips_per_rank=9, ranks=8
        )
        # The analytic form ignores the DUE tail and uses a mean
        # collision factor; agreement within 2.5x validates both.
        assert analytic / 2.5 < mc < analytic * 2.5

    def test_chipkill_vs_xed_ratio_matches_combinatorics(self):
        """The paper's 4x claim is C(18,2)/C(9,2) = 4.25 in the pair
        regime; the Monte-Carlo ratio must sit in that band."""
        cfg = MonteCarloConfig(num_systems=400_000, seed=14)
        xed = simulate(XedScheme(), cfg).probability_of_failure
        ck = simulate(ChipkillScheme(), cfg).probability_of_failure
        assert 2.5 < ck / xed < 6.5

    def test_mode_knockout_isolates_contribution(self):
        """Removing all large-granularity modes leaves only the word
        faults: the remaining XED failure probability must collapse.

        The analytical backend gives 7.30e-4 against 4.94e-5, a 14.8x
        ratio.  At 2e6 systems that is ~1,460 against ~99 expected
        failures, so a 10x bound fails for about one draw stream in
        1e5 (at 2e5 systems it failed for about one in eleven)."""
        from repro.faultsim.fault_models import ModeRate

        gutted = FitTable()
        for mode in (FailureMode.SINGLE_COLUMN, FailureMode.SINGLE_ROW,
                     FailureMode.SINGLE_BANK, FailureMode.MULTI_BANK,
                     FailureMode.MULTI_RANK):
            gutted.rates[mode] = ModeRate(0.0, 0.0)
        cfg_full = MonteCarloConfig(num_systems=2_000_000, seed=15)
        cfg_gut = MonteCarloConfig(num_systems=2_000_000, seed=15, fit=gutted)
        full = simulate(XedScheme(), cfg_full).probability_of_failure
        gut = simulate(XedScheme(), cfg_gut).probability_of_failure
        assert gut < full / 10


class TestFailureTimeShape:
    """The time-to-failure law separates the two scheme families.

    A scheme that dies on its *first* visible fault accumulates failures
    ~linearly in time (Poisson arrivals); a scheme that dies on the
    *second* colliding fault accumulates them ~quadratically (the
    minimum of two uniform arrivals).  Fitting the log-log slope of the
    Monte-Carlo failure curves is a structural check no parameter
    tuning can fake.
    """

    @staticmethod
    def _loglog_slope(result):
        import math

        points = [
            (year, result.probability_by_year(year))
            for year in (2, 3, 4, 5, 6, 7)
        ]
        points = [(x, y) for x, y in points if y > 0]
        assert len(points) >= 4, "not enough failure mass to fit"
        xs = [math.log(x) for x, _ in points]
        ys = [math.log(y) for _, y in points]
        n = len(xs)
        mean_x, mean_y = sum(xs) / n, sum(ys) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = sum((x - mean_x) ** 2 for x in xs)
        return num / den

    def test_ecc_dimm_failures_linear_in_time(self):
        result = simulate(
            EccDimmScheme(), MonteCarloConfig(num_systems=150_000, seed=18)
        )
        slope = self._loglog_slope(result)
        assert 0.8 < slope < 1.2

    def test_xed_failures_quadratic_in_time(self):
        result = simulate(
            XedScheme(), MonteCarloConfig(num_systems=600_000, seed=19)
        )
        slope = self._loglog_slope(result)
        assert 1.5 < slope < 2.6


class TestScrubbingEffect:
    def test_scrubbing_reduces_pair_failures(self):
        """Daily scrubbing bounds transient-fault lifetimes, shrinking
        the pair-overlap window for schemes that die on pairs."""
        base = simulate(
            XedScheme(), MonteCarloConfig(num_systems=400_000, seed=16)
        )
        scrubbed = simulate(
            XedScheme(),
            MonteCarloConfig(num_systems=400_000, seed=16, scrub_hours=24.0),
        )
        assert scrubbed.failures <= base.failures

    def test_scrubbing_cannot_help_single_fault_schemes(self):
        base = simulate(
            EccDimmScheme(), MonteCarloConfig(num_systems=100_000, seed=17)
        )
        scrubbed = simulate(
            EccDimmScheme(),
            MonteCarloConfig(num_systems=100_000, seed=17, scrub_hours=24.0),
        )
        # The first visible fault is fatal either way.
        assert scrubbed.probability_of_failure == pytest.approx(
            base.probability_of_failure, rel=0.05
        )
