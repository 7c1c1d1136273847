"""Patrol scrubbing on top of the XED controller.

Scrubbing -- periodically reading, correcting and rewriting every line
-- bounds the lifetime of transient faults, which is what shrinks the
pair-failure window the Monte-Carlo engine models with
``scrub_hours``.  This module provides the behavioural counterpart: a
patrol scrubber that walks rows through an :class:`XedController`,
heals transient damage via read-correct-rewrite, and escalates
diagnosis results it encounters (feeding the FCT as a side effect).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.core.controller import XedController
from repro.core.types import ReadStatus
from repro.obs import OBS, events, span


@dataclass
class ScrubReport:
    """Outcome counts of one patrol pass."""

    lines_scrubbed: int = 0
    clean: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    by_status: Dict[str, int] = field(default_factory=dict)

    def record(self, status: ReadStatus) -> None:
        """Count one scrubbed read by its classification."""
        self.lines_scrubbed += 1
        self.by_status[status.value] = self.by_status.get(status.value, 0) + 1
        if status is ReadStatus.CLEAN:
            self.clean += 1
        elif status is ReadStatus.DUE:
            self.uncorrectable += 1
        else:
            self.corrected += 1

    def format_summary(self) -> str:
        """One-line human-readable scrub-pass summary."""
        return (
            f"scrubbed {self.lines_scrubbed} lines: {self.clean} clean, "
            f"{self.corrected} corrected, {self.uncorrectable} uncorrectable"
        )


class PatrolScrubber:
    """Walks the DIMM address space in row order, scrubbing each line.

    Parameters
    ----------
    controller:
        The XED controller whose :meth:`scrub_line` does the
        read-correct-rewrite.
    banks, rows, columns:
        Region to patrol; defaults to the controller's chip geometry.
    """

    def __init__(
        self,
        controller: XedController,
        banks: Optional[int] = None,
        rows: Optional[int] = None,
        columns: Optional[int] = None,
    ) -> None:
        geometry = controller.dimm.geometry
        self.controller = controller
        self.banks = banks if banks is not None else geometry.banks
        self.rows = rows if rows is not None else geometry.rows_per_bank
        self.columns = (
            columns if columns is not None else geometry.columns_per_row
        )

    def scrub_region(
        self,
        banks: Iterator[int] | None = None,
        rows: Iterator[int] | None = None,
    ) -> ScrubReport:
        """Scrub a sub-region (all rows of all banks by default)."""
        report = ScrubReport()
        with span("scrub.region_s"):
            for bank in banks if banks is not None else range(self.banks):
                for row in rows if rows is not None else range(self.rows):
                    self._scrub_row(bank, row, report)
        self._emit_pass(report)
        return report

    def _scrub_row(self, bank: int, row: int, report: ScrubReport) -> None:
        for column in range(self.columns):
            result = self.controller.scrub_line(bank, row, column)
            report.record(result.status)

    def _emit_pass(self, report: ScrubReport) -> None:
        if OBS.enabled:
            OBS.registry.counter("scrub.passes").inc()
            OBS.registry.counter("scrub.lines").inc(report.lines_scrubbed)
            OBS.trace.record(
                events.ScrubPass(
                    report.lines_scrubbed,
                    report.clean,
                    report.corrected,
                    report.uncorrectable,
                )
            )
