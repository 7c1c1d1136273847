"""Behavioural fault-injection campaigns.

The Monte-Carlo engine (:mod:`repro.faultsim.simulator`) evaluates
schemes *analytically* from fault combinations; this module closes the
loop by hammering the actual behavioural stack -- real chips, real
on-die ECC decodes, real catch-words, real RAID-3/Reed-Solomon
reconstruction -- with randomized fault scenarios and classifying what
the controller actually returned.  It is the cross-validation layer
between the two halves of the reproduction, and the engine behind the
failure-injection integration tests.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.controller import XedController
from repro.core.erasure_controller import XedChipkillController
from repro.dram.chip import FaultGranularity
from repro.dram.dimm import ChipkillRank, XedDimm
from repro.faultsim.parallel import plan_shards, resolve_shard_size
from repro.obs import OBS, events, get_logger, span
from repro.obs.progress import progress
from repro.runtime.checkpoint import RunFingerprint, config_digest
from repro.runtime.executor import RuntimePolicy, run_resilient
from repro.version import __version__

log = get_logger("faultsim.campaign")

#: Default trials per shard for parallel campaigns.  Campaign trials
#: are heavyweight (each builds a DIMM and drives real decodes), so a
#: modest chunk keeps pool dispatch overhead negligible while still
#: load-balancing across workers.
DEFAULT_TRIAL_SHARD_SIZE = 10


class Outcome(enum.Enum):
    """Classification of one injected scenario."""

    #: Correct data returned without any correction machinery engaging.
    CLEAN = "clean"
    #: Correct data returned through correction (erasure/serial/diagnosis).
    CORRECTED = "corrected"
    #: The controller reported an uncorrectable error (honest failure).
    DUE = "due"
    #: The controller returned wrong data without flagging it.
    SDC = "sdc"


@dataclass
class Scenario:
    """One injected fault scenario."""

    granularities: List[FaultGranularity]
    chips: List[int]
    permanent: bool
    outcome: Outcome
    status: str

    def to_payload(self) -> Dict[str, object]:
        """Serialise for a checkpoint record (enums to their values)."""
        return {
            "granularities": [g.value for g in self.granularities],
            "chips": list(self.chips),
            "permanent": self.permanent,
            "outcome": self.outcome.value,
            "status": self.status,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from its checkpoint payload."""
        return cls(
            granularities=[
                FaultGranularity(g) for g in payload["granularities"]
            ],
            chips=[int(c) for c in payload["chips"]],
            permanent=bool(payload["permanent"]),
            outcome=Outcome(payload["outcome"]),
            status=str(payload["status"]),
        )


@dataclass
class CampaignResult:
    """Aggregated outcomes of a behavioural campaign.

    Outcome counts are maintained incrementally by :meth:`append`; the
    ``counts`` property is O(1) rather than rescanning ``scenarios`` on
    every access (``format_summary`` alone reads it four times).  Code
    that appends to ``scenarios`` directly is still correct: a cheap
    staleness check triggers one recount.
    """

    scenarios: List[Scenario] = field(default_factory=list)
    _counts: Dict[Outcome, int] = field(
        default_factory=lambda: {o: 0 for o in Outcome}, repr=False
    )
    _counted: int = field(default=0, repr=False)

    def append(self, scenario: Scenario) -> None:
        """Record one scenario, keeping the outcome tally current."""
        self._refresh()
        self.scenarios.append(scenario)
        self._counts[scenario.outcome] += 1
        self._counted += 1

    def _refresh(self) -> None:
        if self._counted != len(self.scenarios):
            self._counts = {o: 0 for o in Outcome}
            for s in self.scenarios:
                self._counts[s.outcome] += 1
            self._counted = len(self.scenarios)

    @property
    def counts(self) -> Dict[Outcome, int]:
        """Trial counts per outcome (refreshed on demand)."""
        self._refresh()
        return dict(self._counts)

    @property
    def total(self) -> int:
        """Total recorded trials."""
        return len(self.scenarios)

    @property
    def sdc_count(self) -> int:
        """Trials that ended in silent data corruption."""
        return self.counts[Outcome.SDC]

    def counts_by_granularity(self) -> Dict[str, Dict[Outcome, int]]:
        """Outcome tallies per injected fault granularity.

        A scenario with faults in several chips counts once under each
        distinct granularity it injected, so the per-granularity rows
        can sum to more than ``total``.
        """
        out: Dict[str, Dict[Outcome, int]] = {}
        for s in self.scenarios:
            for gran in {g.value for g in s.granularities}:
                row = out.setdefault(gran, {o: 0 for o in Outcome})
                row[s.outcome] += 1
        return out

    @classmethod
    def merge(cls, shards: Sequence["CampaignResult"]) -> "CampaignResult":
        """Combine per-shard campaign results into one.

        Scenarios concatenate in the order given (a deterministic shard
        plan therefore reproduces the sequential scenario list), and the
        incremental outcome tally is rebuilt from refreshed shard
        tallies -- so shards that were mutated through direct
        ``scenarios.append`` calls (the staleness-recount path) merge
        just as correctly as ones built through :meth:`append`.
        Per-granularity breakdowns are derived from ``scenarios`` and
        stay consistent automatically.

        An empty shard list is a valid merge and yields an empty result.
        """
        merged = cls()
        for shard in shards:
            shard._refresh()
            merged.scenarios.extend(shard.scenarios)
            for outcome, count in shard._counts.items():
                merged._counts[outcome] += count
            merged._counted += shard._counted
        return merged

    def to_payload(self) -> Dict[str, object]:
        """Serialise a (shard) result for a checkpoint record."""
        return {"scenarios": [s.to_payload() for s in self.scenarios]}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CampaignResult":
        """Rebuild a shard result from its checkpoint payload."""
        result = cls()
        for scenario in payload["scenarios"]:
            result.append(Scenario.from_payload(scenario))
        return result

    def format_summary(self, by_granularity: bool = True) -> str:
        """Headline counts plus (optionally) the per-granularity table."""
        counts = self.counts
        lines = [
            f"{self.total} scenarios: "
            f"{counts[Outcome.CLEAN]} clean, "
            f"{counts[Outcome.CORRECTED]} corrected, "
            f"{counts[Outcome.DUE]} DUE, "
            f"{counts[Outcome.SDC]} SDC"
        ]
        if by_granularity and self.scenarios:
            breakdown = self.counts_by_granularity()
            width = max(len(g) for g in breakdown)
            for gran in sorted(breakdown):
                row = breakdown[gran]
                lines.append(
                    f"  {gran:<{width}} : "
                    f"{row[Outcome.CLEAN]} clean, "
                    f"{row[Outcome.CORRECTED]} corrected, "
                    f"{row[Outcome.DUE]} DUE, "
                    f"{row[Outcome.SDC]} SDC"
                )
        return "\n".join(lines)


#: Fault granularities injected by default campaigns.
DEFAULT_GRANULARITIES = (
    FaultGranularity.BIT,
    FaultGranularity.WORD,
    FaultGranularity.COLUMN,
    FaultGranularity.ROW,
    FaultGranularity.BANK,
    FaultGranularity.CHIP,
)


def _xed_trial(
    result: CampaignResult,
    trial: int,
    faulty_chips: int,
    seed: int,
    scaling_ber: float,
    granularities: Sequence[FaultGranularity],
    lines_per_trial: int,
) -> None:
    """Run one XED campaign trial, appending its scenarios to ``result``.

    All randomness is keyed by the *global* trial index (the trial RNG,
    the DIMM seed and the injection seeds), so a trial's outcome is
    independent of which shard or worker executes it.
    """
    rng = random.Random((seed << 16) ^ trial)
    dimm = XedDimm.build(seed=trial, scaling_ber=scaling_ber)
    ctrl = XedController(dimm, seed=trial + 1)
    bank, row = rng.randrange(8), rng.randrange(512)
    columns = rng.sample(range(128), lines_per_trial)
    expected = {}
    for col in columns:
        line = [rng.getrandbits(64) for _ in range(8)]
        expected[col] = line
        ctrl.write_line(bank, row, col, line)

    chips = rng.sample(range(9), faulty_chips)
    grans = []
    permanent = rng.random() < 0.7
    for chip in chips:
        gran = rng.choice(list(granularities))
        grans.append(gran)
        dimm.inject_chip_failure(
            chip=chip,
            granularity=gran,
            permanent=permanent,
            bank=bank,
            row=row,
            column=columns[0],
            bit=rng.randrange(64),
            seed=trial ^ chip,
        )

    outcomes = []
    for col in columns:
        read = ctrl.read_line(bank, row, col)
        outcome = _classify(read.ok, read.words == expected[col],
                            read.status.value)
        outcomes.append(outcome)
        result.append(
            Scenario(grans, chips, permanent, outcome, read.status.value)
        )
        _observe_read(
            trial, bank, row, col, outcome, read.status.value,
            grans, chips, permanent,
        )
    _observe_trial(trial, "xed", outcomes)


def _trial_shard(
    trial_fn: Callable[..., None], start: int, count: int, *trial_args: object
) -> CampaignResult:
    """Run trials ``[start, start + count)`` of one campaign (pool worker
    entry): ``trial_fn(result, trial, *trial_args)`` for each trial."""
    result = CampaignResult()
    for trial in range(start, start + count):
        trial_fn(result, trial, *trial_args)
    return result


def _run_campaign(
    kind: str,
    trial_fn: Callable[..., None],
    trial_args: tuple,
    config: Dict[str, object],
    trials: int,
    seed: int,
    workers: int,
    shard_size: Optional[int],
    runtime: Optional[RuntimePolicy],
) -> CampaignResult:
    """The body of both campaign runners.

    Plans ``trials`` into shards, runs them as :func:`_trial_shard`
    calls through :func:`repro.runtime.run_resilient` and merges them.
    The checkpoint identity is the fingerprint of ``campaign.<kind>``,
    ``seed``, the shard plan and ``config``.  ``runtime`` (else the
    ambient policy, else ``RuntimePolicy()``) sets checkpoint/resume,
    retry and timeout behaviour.
    """
    shard_size = resolve_shard_size(shard_size, DEFAULT_TRIAL_SHARD_SIZE)
    shards = plan_shards(trials, shard_size)
    fingerprint = RunFingerprint(
        kind=f"campaign.{kind}",
        seed=seed,
        total=trials,
        shard_size=shard_size,
        config_hash=config_digest(config),
        code_version=__version__,
    )
    reporter = progress(trials, f"campaign {kind}")

    def _shard_done(i: int) -> None:
        """Progress + live telemetry after each completed shard."""
        reporter.update(shards[i][1])
        if OBS.enabled:
            OBS.registry.counter("campaign.trials_done").inc(shards[i][1])

    started = perf_counter()
    with span(f"campaign.{kind}_s"):
        try:
            shard_results, _outcome = run_resilient(
                _trial_shard,
                [(trial_fn, start, count, *trial_args)
                 for start, count in shards],
                workers=workers,
                fingerprint=fingerprint,
                policy=runtime,
                encode=lambda r: r.to_payload(),
                decode=CampaignResult.from_payload,
                on_shard_done=_shard_done,
            )
        finally:
            reporter.close()
    result = CampaignResult.merge(shard_results)
    _observe_campaign(kind, trials, result, perf_counter() - started)
    return result


def run_xed_campaign(
    trials: int = 50,
    faulty_chips: int = 1,
    seed: int = 2016,
    scaling_ber: float = 0.0,
    granularities: Sequence[FaultGranularity] = DEFAULT_GRANULARITIES,
    lines_per_trial: int = 4,
    workers: int = 1,
    shard_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
) -> CampaignResult:
    """Randomized campaign against the 9-chip XED controller.

    Each trial builds a fresh DIMM, writes known data, injects
    ``faulty_chips`` random faults (in distinct chips) and classifies
    every subsequent read.  With ``faulty_chips=1`` the paper's claim is
    that *no* scenario may be SDC or DUE except the documented
    transient-word tail.

    Trials are dispatched in shards of ``shard_size`` to ``workers``
    processes; every trial is keyed by its global index, so the merged
    result is identical for any worker count or shard size.  A
    ``runtime`` policy (or the ambient one) adds checkpoint/resume and
    retry semantics -- see :mod:`repro.runtime`.
    """
    return _run_campaign(
        "xed",
        _xed_trial,
        (faulty_chips, seed, scaling_ber, tuple(granularities),
         lines_per_trial),
        {
            "faulty_chips": faulty_chips,
            "scaling_ber": scaling_ber,
            "granularities": [g.value for g in granularities],
            "lines_per_trial": lines_per_trial,
        },
        trials, seed, workers, shard_size, runtime,
    )


def _chipkill_trial(
    result: CampaignResult,
    trial: int,
    faulty_chips: int,
    seed: int,
    granularities: Sequence[FaultGranularity],
) -> None:
    """Run one XED+Chipkill trial, appending its scenario to ``result``."""
    rng = random.Random((seed << 16) ^ trial)
    rank = ChipkillRank(seed=trial)
    ctrl = XedChipkillController(rank, seed=trial + 1)
    bank, row, col = rng.randrange(8), rng.randrange(512), rng.randrange(128)
    line = [rng.getrandbits(64) for _ in range(16)]
    ctrl.write_line(bank, row, col, line)

    chips = rng.sample(range(rank.num_chips), faulty_chips)
    grans = []
    for chip in chips:
        gran = rng.choice(list(granularities))
        grans.append(gran)
        rank.inject_chip_failure(
            chip=chip,
            granularity=gran,
            permanent=True,
            bank=bank,
            row=row,
            column=col,
            bit=rng.randrange(rank.word_bits),
            seed=trial ^ chip,
        )

    read = ctrl.read_line(bank, row, col)
    outcome = _classify(read.ok, read.words == line, read.status.value)
    result.append(
        Scenario(grans, chips, True, outcome, read.status.value)
    )
    _observe_read(
        trial, bank, row, col, outcome, read.status.value,
        grans, chips, True,
    )
    _observe_trial(trial, "chipkill", [outcome])


def run_chipkill_campaign(
    trials: int = 30,
    faulty_chips: int = 2,
    seed: int = 7,
    granularities: Sequence[FaultGranularity] = DEFAULT_GRANULARITIES,
    workers: int = 1,
    shard_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
) -> CampaignResult:
    """Campaign against the Section-IX XED+Chipkill controller.

    With ``faulty_chips=2`` the erasure decoding must recover every
    scenario -- the Double-Chipkill-level claim.  Sharding, parallelism
    and the optional ``runtime`` policy behave exactly as in
    :func:`run_xed_campaign`.
    """
    return _run_campaign(
        "chipkill",
        _chipkill_trial,
        (faulty_chips, seed, tuple(granularities)),
        {
            "faulty_chips": faulty_chips,
            "granularities": [g.value for g in granularities],
        },
        trials, seed, workers, shard_size, runtime,
    )


def _classify(ok: bool, data_correct: bool, status: str) -> Outcome:
    if not ok:
        return Outcome.DUE
    if not data_correct:
        return Outcome.SDC
    if status == "clean":
        return Outcome.CLEAN
    return Outcome.CORRECTED


#: Severity order used to pick a trial's headline outcome.
_SEVERITY = (Outcome.SDC, Outcome.DUE, Outcome.CORRECTED, Outcome.CLEAN)


def _observe_read(
    trial: int,
    bank: int,
    row: int,
    column: int,
    outcome: Outcome,
    status: str,
    grans: Sequence[FaultGranularity],
    chips: Sequence[int],
    permanent: bool,
) -> None:
    if not OBS.enabled:
        return
    OBS.registry.counter("campaign.reads").inc()
    OBS.registry.counter(f"campaign.outcome.{outcome.value}").inc()
    for gran in {g.value for g in grans}:
        OBS.registry.counter(f"campaign.outcome.{gran}.{outcome.value}").inc()
    OBS.trace.record(
        events.ReadClassified(
            trial, bank, row, column, outcome.value, status,
            granularities=[g.value for g in grans],
            chips=list(chips),
            permanent=permanent,
        )
    )


def _observe_trial(trial: int, kind: str, outcomes: Sequence[Outcome]) -> None:
    if not OBS.enabled:
        return
    OBS.registry.counter("campaign.trials").inc()
    worst = next(o for o in _SEVERITY if o in outcomes)
    detail = {o.value: outcomes.count(o) for o in Outcome if o in outcomes}
    OBS.trace.record(
        events.TrialCompleted(trial, f"campaign.{kind}", worst.value, detail)
    )
    if worst in (Outcome.SDC, Outcome.DUE):
        log.warning("trial %d (%s) ended %s", trial, kind, worst.value)


def _observe_campaign(
    kind: str, trials: int, result: CampaignResult, elapsed_s: float
) -> None:
    if not OBS.enabled:
        return
    if elapsed_s > 0:
        OBS.registry.gauge(f"campaign.{kind}.trials_per_s").set(trials / elapsed_s)
        OBS.registry.gauge(f"campaign.{kind}.reads_per_s").set(
            result.total / elapsed_s
        )
    if OBS.sampler is not None:
        # Guaranteed final data point for the time-series export.
        OBS.sampler.maybe_sample(force=True)
    log.info("campaign %s: %s", kind, result.format_summary(by_granularity=False))
