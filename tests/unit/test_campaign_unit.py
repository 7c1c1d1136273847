"""Unit tests for the campaign module's bookkeeping (fast paths)."""

import pytest

from repro.faultsim.campaign import (
    CampaignResult,
    Outcome,
    Scenario,
    _classify,
    run_chipkill_campaign,
    run_xed_campaign,
)
from repro.dram.chip import FaultGranularity


class TestClassification:
    def test_clean(self):
        assert _classify(True, True, "clean") is Outcome.CLEAN

    def test_corrected(self):
        assert _classify(True, True, "corrected_erasure") is Outcome.CORRECTED

    def test_due(self):
        assert _classify(False, False, "due") is Outcome.DUE

    def test_sdc(self):
        assert _classify(True, False, "corrected_erasure") is Outcome.SDC


class TestCampaignResult:
    def make(self, outcomes):
        result = CampaignResult()
        for outcome in outcomes:
            result.scenarios.append(
                Scenario([FaultGranularity.BIT], [0], True, outcome, "x")
            )
        return result

    def test_counts(self):
        result = self.make(
            [Outcome.CLEAN, Outcome.CORRECTED, Outcome.CORRECTED, Outcome.DUE]
        )
        counts = result.counts
        assert counts[Outcome.CORRECTED] == 2
        assert result.total == 4
        assert result.sdc_count == 0
        assert counts[Outcome.CLEAN] + counts[Outcome.CORRECTED] == 3

    def test_empty(self):
        result = CampaignResult()
        assert sum(result.counts.values()) == 0
        assert result.total == 0

    def test_append_maintains_counts_incrementally(self):
        result = CampaignResult()
        for outcome in (Outcome.CLEAN, Outcome.SDC, Outcome.CLEAN):
            result.append(
                Scenario([FaultGranularity.BIT], [0], True, outcome, "x")
            )
        assert result.counts[Outcome.CLEAN] == 2
        assert result.sdc_count == 1
        assert result.total == 3

    def test_direct_scenario_append_triggers_recount(self):
        # Callers that bypass append() (like make() above) must still
        # see fresh counts: the staleness check recounts on access.
        result = self.make([Outcome.CLEAN])
        assert result.counts[Outcome.CLEAN] == 1
        result.scenarios.append(
            Scenario([FaultGranularity.BIT], [0], True, Outcome.DUE, "x")
        )
        assert result.counts[Outcome.DUE] == 1
        result.append(
            Scenario([FaultGranularity.BIT], [0], True, Outcome.DUE, "x")
        )
        assert result.counts[Outcome.DUE] == 2
        assert result.total == 3

    def test_counts_by_granularity(self):
        result = CampaignResult()
        result.append(
            Scenario([FaultGranularity.ROW], [0], True, Outcome.CLEAN, "x")
        )
        result.append(
            Scenario(
                [FaultGranularity.ROW, FaultGranularity.BIT],
                [0, 1], True, Outcome.CORRECTED, "x",
            )
        )
        # A scenario with duplicate granularities counts once per kind.
        result.append(
            Scenario(
                [FaultGranularity.BIT, FaultGranularity.BIT],
                [2, 3], True, Outcome.DUE, "x",
            )
        )
        by_gran = result.counts_by_granularity()
        assert by_gran["row"][Outcome.CLEAN] == 1
        assert by_gran["row"][Outcome.CORRECTED] == 1
        assert by_gran["bit"][Outcome.CORRECTED] == 1
        assert by_gran["bit"][Outcome.DUE] == 1
        assert by_gran["bit"][Outcome.SDC] == 0

    def test_format_summary_breakdown(self):
        result = self.make([Outcome.CLEAN, Outcome.CORRECTED])
        text = result.format_summary()
        assert "2 scenarios" in text
        assert "bit" in text and "clean," in text
        flat = result.format_summary(by_granularity=False)
        assert "bit" not in flat


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        a = run_xed_campaign(trials=4, seed=42)
        b = run_xed_campaign(trials=4, seed=42)
        assert [s.outcome for s in a.scenarios] == [
            s.outcome for s in b.scenarios
        ]

    def test_restricted_granularities(self):
        result = run_xed_campaign(
            trials=4, seed=1, granularities=(FaultGranularity.ROW,)
        )
        for scenario in result.scenarios:
            assert scenario.granularities == [FaultGranularity.ROW]


class TestCheckpointIdentity:
    """Both runners share one body; their checkpoints keep their names.

    A checkpoint's file name and header carry the run fingerprint, so a
    campaign written before the runners shared a body must still be
    found and accepted by ``--resume``.
    """

    @pytest.mark.parametrize("runner, trials, kind, config_hash", [
        (run_xed_campaign, 8, "campaign.xed",
         "2be4310ad759fe0925e439ddee06f205"
         "6467b9730b348077f9c89c354a3509d8"),
        (run_chipkill_campaign, 6, "campaign.chipkill",
         "8743edf0a993337b4b2f4b88abe24f8d"
         "b41a194bd15cb1c24d06143d500bbd6b"),
    ])
    def test_fingerprint_is_pinned(
        self, tmp_path, runner, trials, kind, config_hash
    ):
        from repro.runtime import RuntimePolicy, load_checkpoint

        result = runner(
            trials=trials, seed=5, shard_size=2,
            runtime=RuntimePolicy(checkpoint_dir=str(tmp_path)),
        )
        (path,) = tmp_path.glob("*.ckpt")
        assert path.name == f"{kind}-{config_hash[:12]}.ckpt"
        loaded = load_checkpoint(path)
        assert loaded.fingerprint["kind"] == kind
        assert loaded.fingerprint["config_hash"] == config_hash
        assert loaded.fingerprint["total"] == trials
        assert sorted(loaded.records) == list(range(trials // 2))
        assert result.total >= trials
