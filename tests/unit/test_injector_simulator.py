"""Unit tests for the Monte-Carlo sampler and driver."""

import gc
import math
import pickle
import tracemalloc

import numpy as np
from numpy.testing import assert_array_equal
import pytest

from repro.ecc import HammingSECDED
from repro.ecc.miscorrection import measure_lane_error_profile
from repro.faultsim.differential import reference_simulate
from repro.faultsim.fault_models import (
    HOURS_PER_YEAR, FailureMode, FitTable, ModeRate,
)
from repro.faultsim.injector import FaultSampler
from repro.faultsim.schemes import EccDimmScheme, XedScheme
from repro.faultsim.simulator import (
    MonteCarloConfig,
    ReliabilityResult,
    _sample_shard,
    _shard_plan,
    simulate,
    simulate_many,
)
from repro.faultsim.vectorized import adjudicate_shard
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
    shard = sampler.sample_shard_arrays(
        0, num_systems, np.random.default_rng(seed)
    )
    faults = []
    for system in sampler.materialise_shard(shard):
        faults.extend(system.faults)
    return shard, faults


class TestFaultSampler:
    def test_lambda_matches_fit_table(self):
        sampler = make_sampler()
        expected = 66.1e-9 * HOURS * 72
        assert sampler.lam_per_system == pytest.approx(expected)

    def test_poisson_counts_have_right_mean(self):
        sampler = make_sampler()
        rng = np.random.default_rng(1)
        shard = sampler.sample_shard_arrays(0, 200_000, rng)
        mean = shard.counts.sum() / 200_000
        assert mean == pytest.approx(sampler.lam_per_system, rel=0.05)

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


#: Population of the split-sampler z-tests: the rarest FIT row
#: (transient row faults, 0.2 of 66.1 FIT) expects ~880 faults, the
#: min-faults-2 share ~35,000 systems.
SPLIT_SYSTEMS = 1_000_000


def per_row_reference(sampler, num_systems, rng):
    """The former sampler's counts: one Poisson draw per FIT-table row.

    Returns each row's fault total and each system's fault count.
    """
    per_system = np.zeros(num_systems, dtype=np.int64)
    row_totals = []
    for rate in sampler._mode_probs * sampler.lam_per_system:
        counts = rng.poisson(rate, num_systems)
        row_totals.append(int(counts.sum()))
        per_system += counts
    return np.array(row_totals), per_system


def split_draws(sampler, min_faults, seed, num_systems=SPLIT_SYSTEMS):
    """Each row's fault total and each system's count, from one shard."""
    shard = sampler.sample_shard_arrays(
        0, num_systems, np.random.default_rng(seed), min_faults=min_faults
    )
    per_system = np.zeros(num_systems, dtype=np.int64)
    per_system[shard.selected] = shard.counts
    row_totals = np.bincount(
        shard.mode_rows, minlength=len(sampler._mode_probs)
    )
    return row_totals, per_system


def poisson_z(a, b):
    """z statistic of two Poisson counts over equal exposure."""
    return 0.0 if a + b == 0 else (a - b) / math.sqrt(a + b)


def two_proportion_z(a, b, trials):
    """Pooled z statistic of two counts out of ``trials`` each."""
    pooled = (a + b) / (2 * trials)
    spread = math.sqrt(pooled * (1 - pooled) * 2 / trials)
    return 0.0 if spread == 0 else (a - b) / trials / spread


def mean_z(x, y):
    """Welch z statistic of the means of two samples."""
    spread = math.sqrt(x.var() / x.size + y.var() / y.size)
    return 0.0 if spread == 0 else (x.mean() - y.mean()) / spread


def split_z_scores(reference, split, per_system_ref, per_system_split):
    """Every z statistic of the split sampler against the reference."""
    scores = {
        f"row {i}": poisson_z(int(a), int(b))
        for i, (a, b) in enumerate(zip(reference, split))
    }
    for m in (1, 2):
        scores[f"selected share at min_faults {m}"] = two_proportion_z(
            int((per_system_ref >= m).sum()),
            int((per_system_split >= m).sum()),
            per_system_ref.size,
        )
    scores["mean faults per system"] = mean_z(
        per_system_ref, per_system_split
    )
    return scores


class TestSplitSampler:
    """One Poisson total per system, split by a categorical row draw.

    By Poisson superposition that is distributed as one Poisson count
    per FIT-table row, which the former sampler drew.  Every statistic
    must pass |z| < 3.29 (two-sided p = 0.001) against that per-row
    reference, and the same tests must flag a sampler that is off.
    """

    @pytest.fixture(scope="class")
    def reference(self):
        return per_row_reference(
            make_sampler(), SPLIT_SYSTEMS, np.random.default_rng(101)
        )

    def test_split_matches_per_row_reference(self, reference):
        sampler = make_sampler()
        split_rows, per_system = split_draws(sampler, 1, seed=102)
        ref_rows, ref_per_system = reference
        scores = split_z_scores(
            ref_rows, split_rows, ref_per_system, per_system
        )
        # The min_faults-2 statistics come from a shard drawn at
        # min_faults 2, which keeps each selected system's whole count.
        _, per_system_2 = split_draws(sampler, 2, seed=103)
        selected_2 = per_system_2[per_system_2 >= 2]
        ref_selected_2 = ref_per_system[ref_per_system >= 2]
        scores["selected share at min_faults 2"] = two_proportion_z(
            ref_selected_2.size, selected_2.size, SPLIT_SYSTEMS
        )
        scores["mean faults per selected system at min_faults 2"] = mean_z(
            ref_selected_2, selected_2
        )
        failed = {k: z for k, z in scores.items() if abs(z) >= 3.29}
        assert not failed, failed

    def test_z_tests_flag_a_skewed_sampler(self, reference):
        # Each shift moves its statistics' expected z to 7 or more.
        ref_rows, ref_per_system = reference
        rarest = make_sampler()._modes.index((FailureMode.SINGLE_ROW, False))
        row = FitTable().rates[FailureMode.SINGLE_ROW]
        skews = {
            "rarest row +50%": (
                FitTable({
                    **FitTable().rates,
                    FailureMode.SINGLE_ROW:
                        ModeRate(row.transient * 1.5, row.permanent),
                }),
                {f"row {rarest}"},
            ),
            "rate +3%": (
                FitTable().scaled(1.03),
                {"mean faults per system",
                 "selected share at min_faults 1",
                 "selected share at min_faults 2"},
            ),
        }
        for skew, (fit, expected) in skews.items():
            split_rows, per_system = split_draws(
                make_sampler(fit=fit), 1, seed=102
            )
            scores = split_z_scores(
                ref_rows, split_rows, ref_per_system, per_system
            )
            flagged = {k for k, z in scores.items() if abs(z) >= 3.29}
            assert expected <= flagged, (skew, scores)

    @pytest.mark.parametrize("min_faults", [1, 2])
    def test_shard_invariants(self, min_faults):
        sampler = make_sampler(
            fit=FitTable().scaled(4.0)  # multi-fault systems aplenty
        )
        shard = sampler.sample_shard_arrays(
            100, 20_000, np.random.default_rng(104), min_faults=min_faults
        )
        assert shard.num_selected > 1000
        assert shard.counts.min() >= min_faults
        total = int(shard.counts.sum())
        for column in (shard.mode_rows, shard.chips_global, shard.times,
                       shard.addr_values, shard.promote_u):
            assert len(column) == total
        assert np.all(np.diff(shard.selected) > 0)
        # Each system's faults are one contiguous run of the columns, in
        # selection order: the reference reads them that way ...
        ends = np.cumsum(shard.counts)
        systems = list(sampler.materialise_shard(shard))
        assert len(systems) == shard.num_selected
        for system, offset, end, count in zip(
            systems, shard.selected, ends, shard.counts
        ):
            assert system.index == 100 + offset
            run = shard.times[end - count:end].tolist()
            assert sorted({f.time_hours for f in system.faults}) == (
                sorted(set(run))
            )
        # ... and so do the kernels.
        assert np.all(np.diff(shard.visible().sys) >= 0)

    def test_zero_fit_table_gives_an_empty_shard(self):
        # No FIT row has a rate, so there is no row to draw a fault from.
        sampler = make_sampler(fit=FitTable().scaled(0.0))
        shard = sampler.sample_shard_arrays(
            0, 1_000, np.random.default_rng(105)
        )
        assert shard.num_selected == 0
        assert shard.mode_rows.size == shard.times.size == 0


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = MonteCarloConfig(num_systems=20_000, seed=5)
        a = simulate(EccDimmScheme(), cfg)
        b = simulate(EccDimmScheme(), cfg)
        assert_array_equal(a.failure_times_hours, b.failure_times_hours)

    def test_different_seeds_differ(self):
        a = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=20_000, seed=1))
        b = simulate(EccDimmScheme(), MonteCarloConfig(num_systems=20_000, seed=2))
        assert a.failures != b.failures or not np.array_equal(
            a.failure_times_hours, b.failure_times_hours
        )

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


class TestKindCountCaching:
    def test_counts_match_kind_lists(self):
        result = ReliabilityResult(
            "x", 100, 7, [1.0, 2.0, 3.0],
            [FailureKind.DUE, FailureKind.SDC, FailureKind.DUE],
        )
        assert result.due_count == 2
        assert result.sdc_count == 1
        # A second access must agree.
        assert (result.due_count, result.sdc_count) == (2, 1)

    def test_counts_after_merge(self):
        a = ReliabilityResult(
            "x", 100, 7, [1.0, 2.0], [FailureKind.DUE, FailureKind.SDC]
        )
        b = ReliabilityResult(
            "x", 100, 7, [3.0], [FailureKind.DUE]
        )
        assert (a.due_count, b.due_count) == (1, 1)
        merged = ReliabilityResult.merge([a, b])
        assert merged.due_count == 2
        assert merged.sdc_count == 1
        assert merged.failures == 3

    def test_cache_does_not_affect_equality(self):
        a = ReliabilityResult("x", 100, 7, [1.0], [FailureKind.DUE])
        b = ReliabilityResult("x", 100, 7, [1.0], [FailureKind.DUE])
        assert a.due_count == 1  # reading a count leaves the result equal
        assert a == b


class TestPackedRecords:
    """A result keeps one float64 time and one int8 kind per failure."""

    @pytest.fixture(scope="class")
    def result(self):
        return simulate(EccDimmScheme(), MonteCarloConfig(num_systems=50_000))

    def test_retains_at_most_12_bytes_per_failed_system(self):
        scheme = EccDimmScheme()
        simulate(scheme, MonteCarloConfig(num_systems=1_000))  # warm caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = simulate(scheme, MonteCarloConfig(num_systems=200_000))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.failures > 20_000
        assert retained / result.failures <= 12

    def test_reading_contract(self, result):
        # What the end-to-end benchmark's digest reads, without a copy.
        assert result.failure_times_hours.dtype == np.float64
        assert result.kinds.codes.dtype == np.int8
        assert np.asarray(
            result.failure_times_hours, dtype=np.float64
        ) is result.failure_times_hours
        kinds = list(result.kinds)
        assert all(isinstance(k, FailureKind) for k in kinds)
        assert [k.value for k in kinds] == result.to_payload()["kinds"]
        # Counts are Python ints: canonical JSON rejects numpy integers.
        for count in (result.failures, result.due_count, result.sdc_count):
            assert type(count) is int
        assert result.due_count + result.sdc_count == result.failures

    def test_adjudication_length_counts_failures(self, result):
        config = MonteCarloConfig(num_systems=50_000)
        (args,) = _shard_plan(EccDimmScheme(), config)[1]
        _, shard = _sample_shard(*args)
        adjudication = adjudicate_shard(EccDimmScheme(), shard, config.seed)
        assert len(adjudication.failure_times) == result.failures
        assert len(adjudication.kinds) == result.failures

    def test_kinds_sequence(self):
        due, sdc = FailureKind.DUE, FailureKind.SDC
        result = ReliabilityResult("x", 10, 7, [1.0, 2.0, 3.0], [due, sdc, due])
        kinds = result.kinds
        assert len(kinds) == 3
        assert (kinds[0], kinds[1], kinds[-1]) == (due, sdc, due)
        assert list(kinds) == [due, sdc, due]
        assert (kinds.count(due), kinds.count(sdc), kinds.count("due")) == (
            2, 1, 0
        )
        assert kinds == (due, sdc, due)
        assert kinds != [due, sdc]
        assert kinds != [due, due, due]
        assert pickle.loads(pickle.dumps(kinds)) == kinds
        with pytest.raises(IndexError):
            kinds[3]

    def test_result_equality_is_exact(self):
        def make(times, kinds):
            return ReliabilityResult("x", 10, 7, times, kinds)

        due, sdc = FailureKind.DUE, FailureKind.SDC
        base = make([1.0, 2.0], [due, sdc])
        assert base == make(np.array([1.0, 2.0]), [due, sdc])
        assert base != make([1.0, 2.0 + 1e-12], [due, sdc])
        assert base != make([1.0, 2.0], [due, due])
        assert base != make([1.0], [due])
        assert pickle.loads(pickle.dumps(base)) == base


class TestCountsAndCurveMatchLoops:
    """Counts and curve points equal their one-pass loop definitions."""

    @staticmethod
    def result():
        rng = np.random.default_rng(7)
        hours = HOURS_PER_YEAR
        # Failures anywhere in the lifetime, plus some exactly on a
        # year boundary (counted in that year: the cutoff is ``<=``)
        # and one just either side of the 3-year cutoff.
        times = (rng.random(5_000) * 7 * hours).tolist() + [
            y * hours for y in range(1, 8)
        ] + [float(np.nextafter(3 * hours, d)) for d in (0.0, np.inf)]
        kinds = [
            FailureKind.SDC if u < 0.3 else FailureKind.DUE
            for u in rng.random(len(times)).tolist()
        ]
        return ReliabilityResult("x", 40_000, 7, times, kinds)

    def test_counts(self):
        result = self.result()
        due = sum(1 for k in result.kinds if k is FailureKind.DUE)
        sdc = sum(1 for k in result.kinds if k is FailureKind.SDC)
        assert (result.due_count, result.sdc_count) == (due, sdc)
        assert due + sdc == result.failures

    def test_probability_by_year_and_curve(self):
        result = self.result()

        def loop(year):
            cutoff = year * HOURS_PER_YEAR
            return (
                sum(1 for t in result.failure_times_hours if t <= cutoff)
                / result.num_systems
            )

        years = [0, 0.5, 1, 2.5, 3, 7, 8]
        for year in years:
            assert result.probability_by_year(year) == loop(year)
        assert result.curve() == [(y, loop(y)) for y in range(1, 8)]
        assert result.curve(years) == [(y, loop(y)) for y in years]
        # A failure exactly on the 3-year boundary counts by year 3.
        on_boundary = ReliabilityResult(
            "x", 10, 7, [3 * HOURS_PER_YEAR], [FailureKind.DUE]
        )
        assert on_boundary.curve([2, 3]) == [(2, 0.0), (3, 0.1)]


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
        lane_bits = make_sampler(EccDimmScheme()).geometry.device_width
        batched = measure_lane_error_profile(
            HammingSECDED(), lane_bits=lane_bits, samples=2000
        )
        assert batched == scalar_lane_profile(
            HammingSECDED(), lane_bits=lane_bits, samples=2000
        )

    def test_simulate_results_backend_invariant(self):
        config = MonteCarloConfig(num_systems=30000)
        engine = simulate(EccDimmScheme(), config)
        reference = reference_simulate(EccDimmScheme(), config)
        assert_array_equal(
            engine.failure_times_hours, reference.failure_times_hours
        )
        assert engine.kinds == reference.kinds

    def test_simulate_rejects_unknown_backend(self):
        for backend in ("scalar", "simd"):
            with pytest.raises(ValueError, match="faultsim backend"):
                simulate(
                    EccDimmScheme(),
                    MonteCarloConfig(num_systems=100, faultsim_backend=backend),
                )
