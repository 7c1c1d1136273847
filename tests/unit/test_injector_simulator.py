"""Unit tests for the Monte-Carlo sampler and driver."""

import numpy as np
import pytest

from repro.ecc import HammingSECDED
from repro.faultsim.differential import reference_simulate
from repro.faultsim.fault_models import FailureMode, FitTable, ModeRate
from repro.faultsim.injector import FaultSampler
from repro.faultsim.schemes import EccDimmScheme, XedScheme
from repro.faultsim.simulator import (
    MonteCarloConfig,
    ReliabilityResult,
    simulate,
    simulate_many,
)
from repro.faultsim.schemes import FailureKind

HOURS = 7 * 24 * 365


def make_sampler(scheme=None, fit=None, scaling=0.0, scrub=None):
    return FaultSampler(
        scheme or XedScheme(),
        fit or FitTable(),
        HOURS,
        scaling_rate=scaling,
        scrub_hours=scrub,
    )


def draw_all_faults(sampler, num_systems=30000, seed=7):
    rng = np.random.default_rng(seed)
    counts = sampler.sample_counts(num_systems, rng)
    mask = counts >= 1
    idx = np.nonzero(mask)[0]
    faults = []
    for system in sampler.materialise(idx, counts[mask], rng):
        faults.extend(system.faults)
    return counts, faults


class TestFaultSampler:
    def test_lambda_matches_fit_table(self):
        sampler = make_sampler()
        expected = 66.1e-9 * HOURS * 72
        assert sampler.lam_per_system == pytest.approx(expected)

    def test_poisson_counts_have_right_mean(self):
        sampler = make_sampler()
        rng = np.random.default_rng(1)
        counts = sampler.sample_counts(200_000, rng)
        assert counts.mean() == pytest.approx(sampler.lam_per_system, rel=0.05)

    def test_fault_fields_in_range(self):
        sampler = make_sampler()
        _, faults = draw_all_faults(sampler)
        assert faults, "expected some faults at this population"
        for f in faults[:500]:
            assert 0 <= f.channel < 4
            assert 0 <= f.rank < 2
            assert 0 <= f.chip < 9
            assert 0.0 <= f.time_hours <= HOURS
            assert f.addr.value <= sampler.space.full_mask

    def test_mode_mix_roughly_matches_fit(self):
        sampler = make_sampler()
        _, faults = draw_all_faults(sampler, num_systems=60000)
        bit_share = sum(
            f.mode is FailureMode.SINGLE_BIT for f in faults
        ) / len(faults)
        assert bit_share == pytest.approx(32.8 / 66.1, abs=0.05)

    def test_multirank_fault_cloned_across_ranks(self):
        fit = FitTable({FailureMode.MULTI_RANK: ModeRate(0.0, 500.0)})
        sampler = make_sampler(fit=fit)
        _, faults = draw_all_faults(sampler, num_systems=5000)
        assert faults
        # Clones: every multi-rank event appears once per rank.
        ranks = {f.rank for f in faults}
        assert ranks == {0, 1}
        assert len(faults) % 2 == 0

    def test_no_promotion_without_scaling(self):
        sampler = make_sampler(scaling=0.0)
        _, faults = draw_all_faults(sampler)
        for f in faults:
            if f.mode is FailureMode.SINGLE_BIT:
                assert f.on_die_correctable

    def test_promotion_with_scaling(self):
        fit = FitTable({FailureMode.SINGLE_BIT: ModeRate(0.0, 2000.0)})
        sampler = make_sampler(fit=fit, scaling=0.05)  # huge, to observe
        _, faults = draw_all_faults(sampler, num_systems=3000)
        promoted = [f for f in faults if not f.on_die_correctable]
        assert promoted, "some bit faults must have been promoted"
        share = len(promoted) / len(faults)
        assert share == pytest.approx(
            sampler.scaling.promotion_probability, rel=0.25
        )

    def test_scrubbing_bounds_transients(self):
        sampler = make_sampler(scrub=24.0)
        _, faults = draw_all_faults(sampler)
        for f in faults:
            if f.permanent:
                assert f.end_hours == float("inf")
            else:
                assert f.end_hours == pytest.approx(f.time_hours + 24.0)


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = MonteCarloConfig(num_systems=20_000, seed=5)
        a = simulate(EccDimmScheme(), cfg)
        b = simulate(EccDimmScheme(), cfg)
        assert a.failure_times_hours == b.failure_times_hours

    def test_different_seeds_differ(self):
        a = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=20_000, seed=1))
        b = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=20_000, seed=2))
        assert a.failures != b.failures or a.failure_times_hours != b.failure_times_hours

    def test_batching_statistically_equivalent(self):
        # Batching reshapes the RNG stream, so results differ in detail
        # but must agree statistically (overlapping Wilson intervals).
        cfg = MonteCarloConfig(num_systems=30_000, seed=9)
        whole = simulate(EccDimmScheme(), cfg)
        batched = simulate(EccDimmScheme(), cfg, shard_size=7_000)
        lo_w, hi_w = whole.confidence_interval()
        lo_b, hi_b = batched.confidence_interval()
        assert lo_w <= hi_b and lo_b <= hi_w

    def test_curve_is_monotone_and_ends_at_total(self):
        cfg = MonteCarloConfig(num_systems=50_000, seed=3)
        result = simulate(EccDimmScheme(), cfg)
        curve = result.curve()
        probs = [p for _, p in curve]
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(result.probability_of_failure)

    def test_confidence_interval_brackets_estimate(self):
        result = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=30_000))
        lo, hi = result.confidence_interval()
        assert lo <= result.probability_of_failure <= hi

    def test_improvement_over(self):
        a = ReliabilityResult("a", 1000, 7, [1.0] * 10, [FailureKind.DUE] * 10)
        b = ReliabilityResult("b", 1000, 7, [1.0] * 100, [FailureKind.DUE] * 100)
        assert a.improvement_over(b) == pytest.approx(10.0)
        empty = ReliabilityResult("c", 1000, 7, [], [])
        assert empty.improvement_over(b) == float("inf")

    def test_simulate_many_keys_by_name(self):
        cfg = MonteCarloConfig(num_systems=5_000)
        out = simulate_many([EccDimmScheme(), XedScheme()], cfg)
        assert set(out) == {"ECC-DIMM (SECDED)", "XED (9 chips)"}

    def test_format_summary_mentions_counts(self):
        result = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=10_000))
        text = result.format_summary()
        assert "P(fail,7y)" in text and "DUE" in text

    def test_mttf_of_first_fault_scheme_is_midlife(self):
        # First-fault failures arrive ~uniformly over the 7 years, so
        # the conditional MTTF sits near 3.5 years.
        result = simulate(
            EccDimmScheme(), MonteCarloConfig(num_systems=60_000, seed=4)
        )
        assert result.mean_time_to_failure_years() == pytest.approx(
            3.5, rel=0.07
        )

    def test_mttf_infinite_without_failures(self):
        empty = ReliabilityResult("x", 100, 7, [], [])
        assert empty.mean_time_to_failure_years() == float("inf")

    def test_years_to_failure_probability(self):
        result = simulate(
            EccDimmScheme(), MonteCarloConfig(num_systems=60_000, seed=4)
        )
        p_total = result.probability_of_failure
        mid = result.years_to_failure_probability(p_total / 2)
        assert 3.0 < mid < 4.0  # half the mass by mid-life
        assert result.years_to_failure_probability(0.99) == float("inf")
        with pytest.raises(ValueError):
            result.years_to_failure_probability(0.0)


class TestKindCountCaching:
    def test_counts_match_kind_lists(self):
        result = ReliabilityResult(
            "x", 100, 7, [1.0, 2.0, 3.0],
            [FailureKind.DUE, FailureKind.SDC, FailureKind.DUE],
        )
        assert result.due_count == 2
        assert result.sdc_count == 1
        # Second access hits the cache and must agree.
        assert (result.due_count, result.sdc_count) == (2, 1)

    def test_counts_after_merge(self):
        a = ReliabilityResult(
            "x", 100, 7, [1.0, 2.0], [FailureKind.DUE, FailureKind.SDC]
        )
        b = ReliabilityResult(
            "x", 100, 7, [3.0], [FailureKind.DUE]
        )
        # Prime both caches before merging.
        assert (a.due_count, b.due_count) == (1, 1)
        merged = ReliabilityResult.merge([a, b])
        assert merged.due_count == 2
        assert merged.sdc_count == 1
        assert merged.failures == 3

    def test_counts_refresh_after_append(self):
        result = ReliabilityResult("x", 100, 7, [1.0], [FailureKind.DUE])
        assert result.due_count == 1
        result.failure_times_hours.append(2.0)
        result.kinds.append(FailureKind.SDC)
        assert result.due_count == 1
        assert result.sdc_count == 1

    def test_cache_does_not_affect_equality(self):
        a = ReliabilityResult("x", 100, 7, [1.0], [FailureKind.DUE])
        b = ReliabilityResult("x", 100, 7, [1.0], [FailureKind.DUE])
        assert a.due_count == 1  # prime only one cache
        assert a == b


class TestEccBackendConfig:
    """One engine per layer: batched ECC, vectorized Monte-Carlo."""

    def test_config_default_backend(self):
        config = MonteCarloConfig()
        assert config.faultsim_backend == "vectorized"
        assert not hasattr(config, "ecc_backend")

    def test_sampler_validates_backend(self):
        with pytest.raises(TypeError):
            FaultSampler(
                XedScheme(), FitTable(), HOURS, ecc_backend="turbo"
            )

    def test_sampler_lane_profile_backend_invariant(
        self, scalar_lane_profile
    ):
        batched = make_sampler(EccDimmScheme()).secded_lane_profile(
            samples=2000
        )
        assert batched == scalar_lane_profile(HammingSECDED(), samples=2000)

    def test_simulate_results_backend_invariant(self):
        config = MonteCarloConfig(num_systems=30000)
        engine = simulate(EccDimmScheme(), config)
        reference = reference_simulate(EccDimmScheme(), config)
        assert engine.failure_times_hours == reference.failure_times_hours
        assert engine.kinds == reference.kinds

    def test_simulate_rejects_unknown_backend(self):
        for backend in ("scalar", "simd"):
            with pytest.raises(ValueError, match="faultsim backend"):
                simulate(
                    EccDimmScheme(),
                    MonteCarloConfig(num_systems=100, faultsim_backend=backend),
                )
