"""Unit tests for sharded parallel execution and result merging."""

from numpy.testing import assert_array_equal
import pytest

from repro.faultsim import (
    FailureKind,
    MonteCarloConfig,
    ReliabilityResult,
    XedScheme,
    simulate,
)
from repro.faultsim.campaign import (
    CampaignResult,
    FaultGranularity,
    Outcome,
    Scenario,
    run_chipkill_campaign,
    run_xed_campaign,
)
from repro.faultsim.parallel import plan_shards, resolve_shard_size, validate_workers
from repro.obs import OBS


def _scenario(outcome, gran=FaultGranularity.BIT):
    return Scenario(
        granularities=[gran],
        chips=[0],
        permanent=False,
        outcome=outcome,
        status="ok",
    )


class TestPlanShards:
    def test_even_split(self):
        assert plan_shards(100, 25) == [(0, 25), (25, 25), (50, 25), (75, 25)]

    def test_remainder_shard(self):
        assert plan_shards(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_single_shard_when_size_exceeds_total(self):
        assert plan_shards(5, 100) == [(0, 5)]

    def test_zero_total_is_empty_plan(self):
        assert plan_shards(0, 10) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 10)

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_plan_covers_every_index_once(self):
        shards = plan_shards(1234, 100)
        seen = [i for start, count in shards for i in range(start, start + count)]
        assert seen == list(range(1234))


class TestValidation:
    def test_validate_workers_passes_positive(self):
        assert validate_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_validate_workers_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            validate_workers(bad)

    def test_resolve_shard_size_default(self):
        assert resolve_shard_size(None, 25) == 25

    def test_resolve_shard_size_explicit(self):
        assert resolve_shard_size(10, 25) == 10

    def test_resolve_shard_size_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_shard_size(0, 25)


class TestReliabilityMerge:
    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            ReliabilityResult.merge([])

    def test_singleton_merge_is_identity(self):
        r = ReliabilityResult(
            scheme_name="XED", num_systems=10, years=7.0,
            failure_times_hours=[1.0, 2.0], kinds=[FailureKind.DUE, FailureKind.SDC],
        )
        merged = ReliabilityResult.merge([r])
        assert merged.num_systems == 10
        assert_array_equal(merged.failure_times_hours, [1.0, 2.0])
        assert merged.kinds == [FailureKind.DUE, FailureKind.SDC]

    def test_uneven_shards_concatenate_in_order(self):
        a = ReliabilityResult("XED", 5, 7.0, [1.0], [FailureKind.DUE])
        b = ReliabilityResult("XED", 3, 7.0, [], [])
        c = ReliabilityResult("XED", 2, 7.0, [2.0, 3.0], [FailureKind.SDC, FailureKind.DUE])
        merged = ReliabilityResult.merge([a, b, c])
        assert merged.num_systems == 10
        assert_array_equal(merged.failure_times_hours, [1.0, 2.0, 3.0])
        assert merged.kinds == [FailureKind.DUE, FailureKind.SDC, FailureKind.DUE]
        assert merged.failures == 3 and merged.sdc_count == 1

    def test_mismatched_scheme_rejected(self):
        a = ReliabilityResult("XED", 5, 7.0, [], [])
        b = ReliabilityResult("Chipkill", 5, 7.0, [], [])
        with pytest.raises(ValueError):
            ReliabilityResult.merge([a, b])

    def test_mismatched_years_rejected(self):
        a = ReliabilityResult("XED", 5, 7.0, [], [])
        b = ReliabilityResult("XED", 5, 5.0, [], [])
        with pytest.raises(ValueError):
            ReliabilityResult.merge([a, b])


class TestCampaignMerge:
    def test_empty_merge_yields_empty_result(self):
        merged = CampaignResult.merge([])
        assert merged.total == 0
        assert merged.counts == {o: 0 for o in Outcome}

    def test_merge_sums_counts(self):
        a = CampaignResult()
        a.append(_scenario(Outcome.CLEAN))
        a.append(_scenario(Outcome.SDC))
        b = CampaignResult()
        b.append(_scenario(Outcome.CORRECTED))
        merged = CampaignResult.merge([a, b])
        assert merged.total == 3
        assert merged.counts[Outcome.CLEAN] == 1
        assert merged.counts[Outcome.CORRECTED] == 1
        assert merged.counts[Outcome.SDC] == 1

    def test_merge_after_direct_appends(self):
        # Mutating `scenarios` directly leaves the incremental tally
        # stale; merge() must recount, not trust it.
        a = CampaignResult()
        a.scenarios.append(_scenario(Outcome.DUE))
        a.scenarios.append(_scenario(Outcome.DUE))
        b = CampaignResult()
        b.append(_scenario(Outcome.CLEAN))
        b.scenarios.append(_scenario(Outcome.SDC))
        merged = CampaignResult.merge([a, b])
        assert merged.total == 4
        assert merged.counts[Outcome.DUE] == 2
        assert merged.counts[Outcome.SDC] == 1
        # appending to the merged result keeps the tally consistent
        merged.append(_scenario(Outcome.DUE))
        assert merged.counts[Outcome.DUE] == 3 and merged.total == 5

    def test_merge_preserves_granularity_breakdown(self):
        a = CampaignResult()
        a.append(_scenario(Outcome.CLEAN, FaultGranularity.BIT))
        b = CampaignResult()
        b.append(_scenario(Outcome.DUE, FaultGranularity.CHIP))
        merged = CampaignResult.merge([a, b])
        rows = merged.counts_by_granularity()
        assert rows[FaultGranularity.BIT.value][Outcome.CLEAN] == 1
        assert rows[FaultGranularity.CHIP.value][Outcome.DUE] == 1


class TestDeterminism:
    CFG = MonteCarloConfig(num_systems=30_000, seed=11)

    def test_simulate_bit_identical_across_worker_counts(self):
        base = simulate(XedScheme(), self.CFG, workers=1, shard_size=10_000)
        for workers in (2, 3):
            other = simulate(
                XedScheme(), self.CFG, workers=workers, shard_size=10_000
            )
            assert_array_equal(
                other.failure_times_hours, base.failure_times_hours
            )
            assert other.kinds == base.kinds
            assert other.num_systems == base.num_systems

    def test_simulate_identical_for_workers_gt_shards(self):
        # more workers than shards must not change the plan or result
        base = simulate(XedScheme(), self.CFG, workers=1, shard_size=30_000)
        wide = simulate(XedScheme(), self.CFG, workers=8, shard_size=30_000)
        assert_array_equal(wide.failure_times_hours, base.failure_times_hours)

    def test_xed_campaign_identical_across_worker_counts(self):
        base = run_xed_campaign(trials=8, seed=5, workers=1, shard_size=3)
        par = run_xed_campaign(trials=8, seed=5, workers=2, shard_size=3)
        assert [s.outcome for s in par.scenarios] == [
            s.outcome for s in base.scenarios
        ]
        assert par.counts == base.counts

    def test_chipkill_campaign_identical_across_worker_counts(self):
        base = run_chipkill_campaign(trials=6, seed=5, workers=1, shard_size=2)
        par = run_chipkill_campaign(trials=6, seed=5, workers=3, shard_size=2)
        assert [s.outcome for s in par.scenarios] == [
            s.outcome for s in base.scenarios
        ]


class TestObsAggregation:
    def test_worker_metrics_fold_into_parent(self):
        cfg = MonteCarloConfig(num_systems=30_000, seed=11)
        try:
            OBS.reset()
            OBS.enable()
            OBS.progress_enabled = False
            simulate(XedScheme(), cfg, workers=1, shard_size=10_000)
            seq_state = OBS.registry.state()
            seq_events = OBS.trace.counts_by_kind()

            OBS.reset()
            OBS.enable()
            OBS.progress_enabled = False
            simulate(XedScheme(), cfg, workers=2, shard_size=10_000)
            par_state = OBS.registry.state()
            par_events = OBS.trace.counts_by_kind()
        finally:
            OBS.reset()
            OBS.disable()

        assert (
            par_state["counters"]["faultsim.failures"]
            == seq_state["counters"]["faultsim.failures"]
        )
        assert (
            par_state["counters"]["faultsim.systems"]
            == seq_state["counters"]["faultsim.systems"]
        )
        assert par_events == seq_events
