"""Unit tests for the patrol scrubber."""

from repro.core import XedController
from repro.core.scrubber import PatrolScrubber, ScrubReport
from repro.core.types import ReadStatus
from repro.dram import XedDimm
from repro.dram.chip import FaultGranularity


def small_system(seed=1, scaling=0.0):
    dimm = XedDimm.build(seed=seed, scaling_ber=scaling)
    ctrl = XedController(dimm, seed=seed + 3)
    scrubber = PatrolScrubber(ctrl, banks=1, rows=4, columns=16)
    return dimm, ctrl, scrubber


class TestScrubReport:
    def test_record_classification(self):
        report = ScrubReport()
        report.record(ReadStatus.CLEAN)
        report.record(ReadStatus.CORRECTED_ERASURE)
        report.record(ReadStatus.DUE)
        assert report.lines_scrubbed == 3
        assert (report.clean, report.corrected, report.uncorrectable) == (1, 1, 1)
        assert report.by_status["corrected_erasure"] == 1

    def test_summary(self):
        report = ScrubReport()
        report.record(ReadStatus.CLEAN)
        assert "1 clean" in report.format_summary()


class TestPatrolScrubber:
    def test_clean_region(self):
        _, ctrl, scrubber = small_system(1)
        for col in range(16):
            ctrl.write_line(0, 0, col, [col] * 8)
        report = scrubber.scrub_region()
        assert report.lines_scrubbed == 4 * 16
        assert report.uncorrectable == 0

    def test_heals_transient_row_fault(self):
        dimm, ctrl, scrubber = small_system(2)
        for col in range(16):
            ctrl.write_line(0, 1, col, [0xAB00 + col] * 8)
        dimm.inject_chip_failure(
            chip=4, granularity=FaultGranularity.ROW, permanent=False,
            bank=0, row=1,
        )
        report = scrubber.scrub_region()
        assert report.corrected >= 16  # every line of the damaged row
        # After the scrub pass, the damage is gone.
        after = scrubber.scrub_region()
        assert after.corrected == 0
        for col in range(16):
            assert ctrl.read_line(0, 1, col).words == [0xAB00 + col] * 8

    def test_permanent_fault_keeps_correcting(self):
        dimm, ctrl, scrubber = small_system(3)
        for col in range(16):
            ctrl.write_line(0, 2, col, [col + 1] * 8)
        dimm.inject_chip_failure(
            chip=2, granularity=FaultGranularity.ROW, permanent=True,
            bank=0, row=2,
        )
        first = scrubber.scrub_region()
        second = scrubber.scrub_region()
        # Permanent damage re-corrupts after every rewrite: both passes
        # correct the same row.
        assert first.corrected >= 16
        assert second.corrected >= 16

    def test_scaling_faults_do_not_block_patrol(self):
        _, ctrl, scrubber = small_system(6, scaling=1e-3)
        for col in range(16):
            ctrl.write_line(0, 0, col, [col] * 8)
        report = scrubber.scrub_region()
        assert report.uncorrectable == 0
