"""End-to-end tests of the instrumented stack.

These flip the global OBS switch, drive the behavioural controllers,
campaigns, the Monte-Carlo engine and the CLI, and assert that the
correction-event telemetry the paper's whole argument rests on actually
comes out the other side.
"""

import json

import pytest

from repro.core import PatrolScrubber, XedChipkillController, XedController
from repro.dram import XedDimm
from repro.dram.dimm import ChipkillRank
from repro.faultsim import campaign
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _obs_enabled():
    OBS.enable()


def counters():
    return OBS.registry.snapshot()["counters"]


class TestControllerTelemetry:
    def test_erasure_read_emits_detection_and_reconstruction(self):
        dimm = XedDimm.build(seed=7)
        ctrl = XedController(dimm)
        ctrl.write_line(0, 0, 0, [0xDEAD + i for i in range(8)])
        dimm.inject_chip_failure(chip=3)
        result = ctrl.read_line(0, 0, 0)
        assert result.ok

        c = counters()
        assert c["controller.reads"] == 1
        assert c["catch_word_detected"] >= 1
        assert c["erasure_reconstruction"] == 1

        kinds = OBS.trace.counts_by_kind()
        assert kinds["catch_word_detected"] >= 1
        assert kinds["erasure_reconstruction"] == 1
        recon = [
            e for e in OBS.trace if e.kind == "erasure_reconstruction"
        ][0]
        assert recon.chip == 3 and recon.method == "catch_word"

    def test_clean_read_emits_no_events(self):
        dimm = XedDimm.build(seed=9)
        ctrl = XedController(dimm)
        ctrl.write_line(0, 0, 0, list(range(8)))
        OBS.reset()
        ctrl.read_line(0, 0, 0)
        assert counters()["controller.reads"] == 1
        assert len(OBS.trace) == 0

    def test_chipkill_controller_telemetry(self):
        rank = ChipkillRank(seed=3)
        ctrl = XedChipkillController(rank)
        ctrl.write_line(0, 0, 0, list(range(16)))
        rank.inject_chip_failure(chip=2)
        rank.inject_chip_failure(chip=9, seed=1)
        assert ctrl.read_line(0, 0, 0).ok

        c = counters()
        assert c["catch_word_detected"] >= 2
        assert c["erasure_reconstruction"] == 1
        methods = {
            e.method for e in OBS.trace if e.kind == "erasure_reconstruction"
        }
        assert methods == {"rs_erasure"}

    def test_scrubber_emits_scrub_pass(self):
        dimm = XedDimm.build(seed=5)
        ctrl = XedController(dimm)
        scrubber = PatrolScrubber(ctrl, banks=1, rows=1, columns=4)
        report = scrubber.scrub_region()
        assert report.lines_scrubbed == 4

        c = counters()
        assert c["scrub.passes"] == 1
        assert c["scrub.lines"] == 4
        passes = [e for e in OBS.trace if e.kind == "scrub_pass"]
        assert passes and passes[0].lines_scrubbed == 4
        assert "scrub.region_s" in OBS.registry.snapshot()["timers"]


class TestCampaignTelemetry:
    def test_xed_campaign_events_and_counters(self):
        result = campaign.run_xed_campaign(trials=5)
        c = counters()
        assert c["campaign.trials"] == 5
        assert c["campaign.reads"] == result.total == 20
        kinds = OBS.trace.counts_by_kind()
        assert kinds["read_classified"] == 20
        assert kinds["trial_completed"] == 5
        # Outcome counters agree with the result's own tally.
        clean = c.get("campaign.outcome.clean", 0)
        corrected = c.get("campaign.outcome.corrected", 0)
        by_outcome = result.counts
        assert clean == by_outcome[campaign.Outcome.CLEAN]
        assert corrected == by_outcome[campaign.Outcome.CORRECTED]

    def test_per_granularity_counters_match_breakdown(self):
        from repro.dram.chip import FaultGranularity

        campaign.run_xed_campaign(
            trials=4, granularities=(FaultGranularity.ROW,)
        )
        c = counters()
        row_total = sum(
            v for k, v in c.items() if k.startswith("campaign.outcome.row.")
        )
        assert row_total == c["campaign.reads"]

    def test_monte_carlo_throughput_metrics(self):
        from repro.faultsim import MonteCarloConfig, XedScheme, simulate

        simulate(XedScheme(), MonteCarloConfig(num_systems=5_000, seed=11))
        c = counters()
        assert c["faultsim.systems"] == 5_000
        snap = OBS.registry.snapshot()
        assert snap["gauges"]["faultsim.systems_per_s"] > 0
        assert snap["timers"]["faultsim.simulate_s"]["count"] == 1


class TestPerfsimTelemetry:
    def test_engine_command_counts_and_timing(self):
        from repro.perfsim.runner import run_benchmark

        run = run_benchmark("gcc", "xed", instructions_per_core=2_000)
        c = counters()
        assert c["perfsim.reads"] == run.result.reads > 0
        assert c["perfsim.writes"] == run.result.writes
        snap = OBS.registry.snapshot()
        assert snap["gauges"]["perfsim.simulated_s"] == pytest.approx(
            run.result.exec_seconds
        )
        assert snap["gauges"]["perfsim.wall_per_simulated"] > 0
        assert snap["timers"]["perfsim.benchmark_s"]["count"] == 1


class TestCliObservability:
    def test_campaign_metrics_and_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        code = main([
            "campaign", "--kind", "xed", "--trials", "20",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0

        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["catch_word_detected"] > 0
        assert metrics["counters"]["erasure_reconstruction"] > 0
        assert metrics["counters"]["campaign.trials"] == 20

        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines() if line
        ]
        assert lines[0]["event"] == "trace_meta"
        kinds = {r["event"] for r in lines[1:]}
        assert "read_classified" in kinds
        assert "catch_word_detected" in kinds
        # The command leaves the global switch off for the next caller.
        assert OBS.enabled is False

    def test_flags_accepted_before_subcommand(self, tmp_path):
        from repro.cli import main

        metrics_path = tmp_path / "m.json"
        code = main([
            "--metrics-out", str(metrics_path), "campaign", "--trials", "2",
        ])
        assert code == 0
        assert metrics_path.exists()

    def test_without_flags_nothing_is_written(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["campaign", "--trials", "2"])
        assert code == 0
        assert OBS.enabled is False

    def test_summary_shows_granularity_breakdown(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "scenarios" in out
        assert "clean," in out.splitlines()[-1]
