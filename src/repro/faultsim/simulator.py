"""The Monte-Carlo reliability driver (the paper's Section III loop).

``simulate(scheme, config)`` runs ``num_systems`` independent 7-year
system lifetimes and reports the probability of system failure -- the
fraction of systems that hit an uncorrectable, mis-corrected or silent
error at any point -- exactly the figure of merit of Figures 1 and
7-10.  Failure *times* are retained so the year-by-year curves the
figures plot can be regenerated.

The population is executed as deterministic *shards* (see
:mod:`repro.faultsim.parallel`): ``num_systems`` is split into
``shard_size`` ranges, each simulated under its own
``numpy.random.SeedSequence`` child by
:func:`repro.runtime.run_resilient`, and the per-shard results are
merged in shard order.  The merged result is therefore bit-identical
for a given ``(seed, num_systems, shard_size)`` whether the shards run
in-process (``workers=1``) or on a process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.fault_models import FitTable, HOURS_PER_YEAR, LIFETIME_YEARS
from repro.faultsim.injector import FaultSampler
from repro.faultsim.parallel import (
    plan_shards,
    resolve_shard_size,
    select_shard_args,
)
from repro.faultsim.schemes import FailureKind, ProtectionScheme
from repro.faultsim.vectorized import (
    SYSTEM_STREAM,
    FaultShard,
    ShardAdjudication,
    adjudicate_shard,
    has_kernel,
    system_rng,
    validate_faultsim_backend,
)
from repro.obs import OBS, get_logger, span
from repro.obs.progress import progress
from repro.runtime.checkpoint import RunFingerprint, config_digest
from repro.runtime.executor import RuntimePolicy, run_resilient
from repro.version import __version__

log = get_logger("faultsim.simulator")

#: Default systems per shard.  Small enough that the default population
#: splits into several shards (parallel speedup and fine-grained
#: progress), large enough that the per-shard numpy batches amortise
#: dispatch overhead.
DEFAULT_SHARD_SIZE = 25_000


@dataclass
class MonteCarloConfig:
    """Knobs of a reliability experiment.

    The paper simulates 1e9 systems; pure Python cannot, so
    ``num_systems`` defaults to a population that resolves the relative
    ordering and ratio bands in seconds.  All results carry binomial
    confidence intervals so undersampling is visible, not silent.
    """

    num_systems: int = 200_000
    years: float = LIFETIME_YEARS
    seed: int = 2016
    fit: FitTable = field(default_factory=FitTable)
    scaling_rate: float = 0.0
    scrub_hours: Optional[float] = None
    device_width: int = 8
    #: "vectorized" samples the population and classifies it with the
    #: batch kernels of :mod:`repro.faultsim.vectorized`, bit-identical
    #: to walking ``scheme.evaluate`` (:mod:`repro.faultsim.differential`
    #: enforces it).  "analytical" skips sampling entirely and solves
    #: the closed-form Markov chain of :mod:`repro.faultsim.markov`; it
    #: is noise-free and agrees with Monte-Carlo within Wilson score
    #: intervals, not bit-for-bit.
    faultsim_backend: str = "vectorized"

    @property
    def hours(self) -> float:
        """Simulated lifetime in hours."""
        return self.years * HOURS_PER_YEAR


@dataclass
class ReliabilityResult:
    """Outcome of one Monte-Carlo reliability experiment."""

    scheme_name: str
    num_systems: int
    years: float
    failure_times_hours: List[float]
    kinds: List[FailureKind]
    #: Cached (len(kinds), due, sdc) triple; invalidated by length, the
    #: same staleness rule CampaignResult uses, so appending kinds (as
    #: tests building results incrementally do) recounts lazily instead
    #: of walking the list on every property access.
    _kind_counts: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Normalise ``years`` to float at construction.

        ``LIFETIME_YEARS`` is the integer 7, while ``from_payload``
        coerces to float; without this, a checkpoint-resumed result
        would serialise ``"years": 7.0`` where a fresh run writes
        ``"years": 7`` -- same value, different payload bytes, breaking
        the byte-compatibility that ``--resume`` and the golden-digest
        corpus rely on.
        """
        self.years = float(self.years)

    @property
    def failures(self) -> int:
        """Number of failed systems (DUE + SDC)."""
        return len(self.failure_times_hours)

    @property
    def probability_of_failure(self) -> float:
        """Point estimate of P(system failure) over the lifetime."""
        return self.failures / self.num_systems

    def _counts(self) -> tuple:
        """(population, due, sdc) with O(1) amortised access."""
        cached = self._kind_counts
        if cached is None or cached[0] != len(self.kinds):
            due = 0
            sdc = 0
            for k in self.kinds:
                if k is FailureKind.DUE:
                    due += 1
                elif k is FailureKind.SDC:
                    sdc += 1
            cached = (len(self.kinds), due, sdc)
            self._kind_counts = cached
        return cached

    @property
    def due_count(self) -> int:
        """Failed systems classified as detected-uncorrectable."""
        return self._counts()[1]

    @property
    def sdc_count(self) -> int:
        """Failed systems classified as silent data corruption."""
        return self._counts()[2]

    def probability_by_year(self, year: float) -> float:
        """P(failed at or before ``year``) -- one point of the curves."""
        cutoff = year * HOURS_PER_YEAR
        return (
            sum(1 for t in self.failure_times_hours if t <= cutoff)
            / self.num_systems
        )

    def curve(self, years: Optional[Sequence[float]] = None) -> List[tuple]:
        """(year, P(failure by year)) series for Figures 1 and 7-10."""
        if years is None:
            years = range(1, int(self.years) + 1)
        return [(y, self.probability_by_year(y)) for y in years]

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Wilson score interval on the failure probability."""
        n = self.num_systems
        if n == 0:
            return (0.0, 1.0)
        p = self.probability_of_failure
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = (
            z
            * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
            / denom
        )
        return (max(0.0, centre - half), min(1.0, centre + half))

    def mean_time_to_failure_years(self) -> float:
        """MTTF conditioned on failing within the simulated lifetime.

        Over a population where most systems never fail, the
        unconditional MTTF is dominated by censoring; the conditional
        mean of observed failure times is the comparable quantity and
        is what reliability reports usually quote alongside P(fail).
        """
        if not self.failure_times_hours:
            return math.inf
        mean_hours = sum(self.failure_times_hours) / len(
            self.failure_times_hours
        )
        return mean_hours / HOURS_PER_YEAR

    def years_to_failure_probability(self, target: float) -> float:
        """Smallest simulated age at which P(fail) reaches ``target``.

        Returns ``inf`` when the population never accumulates that much
        failure mass within the lifetime -- the "years of service until
        x% of the fleet has failed" planning number.
        """
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        needed = target * self.num_systems
        times = sorted(self.failure_times_hours)
        if len(times) < needed:
            return math.inf
        index = max(0, math.ceil(needed) - 1)
        return times[index] / HOURS_PER_YEAR

    def improvement_over(self, other: "ReliabilityResult") -> float:
        """How many times more reliable this scheme is than ``other``.

        Defined, as in the paper, as the ratio of failure probabilities
        (other / self).  Returns ``inf`` when this scheme saw no
        failures at the simulated population size.
        """
        if self.failures == 0:
            return math.inf
        return other.probability_of_failure / self.probability_of_failure

    def format_summary(self) -> str:
        """One human-readable line: P(fail), Wilson CI and DUE/SDC split."""
        lo, hi = self.confidence_interval()
        return (
            f"{self.scheme_name:34s} P(fail,{self.years:.0f}y) = "
            f"{self.probability_of_failure:.3e} "
            f"[{lo:.2e}, {hi:.2e}] "
            f"({self.failures}/{self.num_systems}; "
            f"DUE {self.due_count}, SDC {self.sdc_count})"
        )

    def to_payload(self) -> Dict[str, object]:
        """Serialise for a checkpoint record (exact JSON round-trip).

        Failure times are floats; Python's JSON encoder emits their
        ``repr`` (shortest round-tripping form), so
        ``from_payload(to_payload())`` reproduces the result bit for
        bit -- the property resume correctness rests on.
        """
        return {
            "scheme_name": self.scheme_name,
            "num_systems": self.num_systems,
            "years": self.years,
            "failure_times_hours": list(self.failure_times_hours),
            "kinds": [k.value for k in self.kinds],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ReliabilityResult":
        """Rebuild a shard result from its checkpoint payload."""
        return cls(
            scheme_name=str(payload["scheme_name"]),
            num_systems=int(payload["num_systems"]),
            years=float(payload["years"]),
            failure_times_hours=[
                float(t) for t in payload["failure_times_hours"]
            ],
            kinds=[FailureKind(k) for k in payload["kinds"]],
        )

    @classmethod
    def merge(cls, shards: Sequence["ReliabilityResult"]) -> "ReliabilityResult":
        """Combine per-shard results into one population-level result.

        Shards must describe the same experiment (scheme and lifetime);
        populations add, failure times/kinds concatenate **in the order
        given**, so merging a deterministic shard plan reproduces the
        single-process result bit for bit.  Derived statistics
        (probability, Wilson interval, curves, MTTF) need no special
        handling -- they are all computed from the merged population.
        """
        if not shards:
            raise ValueError("merge() needs at least one shard result")
        first = shards[0]
        for shard in shards[1:]:
            if shard.scheme_name != first.scheme_name:
                raise ValueError(
                    "cannot merge results of different schemes: "
                    f"{first.scheme_name!r} vs {shard.scheme_name!r}"
                )
            if shard.years != first.years:
                raise ValueError(
                    "cannot merge results with different lifetimes: "
                    f"{first.years} vs {shard.years}"
                )
        return cls(
            scheme_name=first.scheme_name,
            num_systems=sum(s.num_systems for s in shards),
            years=first.years,
            failure_times_hours=[
                t for s in shards for t in s.failure_times_hours
            ],
            kinds=[k for s in shards for k in s.kinds],
        )


def _sample_shard(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    start_index: int,
    num_systems: int,
    seed_seq: np.random.SeedSequence,
) -> Tuple[FaultSampler, FaultShard]:
    """Draw one shard of the population from its ``SeedSequence`` child."""
    sampler = FaultSampler(
        scheme,
        config.fit,
        config.hours,
        scaling_rate=config.scaling_rate,
        scrub_hours=config.scrub_hours,
        device_width=config.device_width,
    )
    shard = sampler.sample_shard_arrays(
        start_index, num_systems, np.random.default_rng(seed_seq),
        min_faults=scheme.min_faults,
    )
    return sampler, shard


def evaluate_shard(
    scheme: ProtectionScheme,
    sampler: FaultSampler,
    shard: FaultShard,
    experiment_seed: int,
) -> ShardAdjudication:
    """Classify ``shard`` by walking ``scheme.evaluate`` system by system.

    This is the golden model the batch kernels are proven against
    (:mod:`repro.faultsim.differential`), and the path
    :func:`_simulate_shard` takes for a scheme type without a kernel,
    such as a user-defined subclass.  Systems are materialised from the
    sampled shard itself, so the draw stream is shared verbatim.
    """
    indices: List[int] = []
    times: List[float] = []
    kinds: List[FailureKind] = []
    for system in sampler.materialise_shard(shard):
        outcome = scheme.evaluate(
            system.faults, system_rng(experiment_seed, system.index)
        )
        if outcome is not None:
            indices.append(system.index)
            times.append(outcome.time_hours)
            kinds.append(outcome.kind)
    return ShardAdjudication(indices, times, kinds)


def _simulate_shard(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    start_index: int,
    num_systems: int,
    seed_seq: np.random.SeedSequence,
) -> ReliabilityResult:
    """Simulate one shard of the population (pool worker entry point).

    The shard's fault-arrival randomness comes exclusively from
    ``seed_seq`` (a ``SeedSequence.spawn`` child); the per-system draw
    stream is keyed by the *global* system index and the experiment
    seed, so a system's outcome is independent of which
    shard -- or which worker -- it landed in.
    """
    sampler, shard = _sample_shard(
        scheme, config, start_index, num_systems, seed_seq
    )
    if has_kernel(scheme):
        adjudication = adjudicate_shard(scheme, shard, config.seed)
    else:
        adjudication = evaluate_shard(scheme, sampler, shard, config.seed)
    kinds = adjudication.kinds
    if OBS.enabled and kinds:
        # Totals only: the result already records every failure's time
        # and kind, so a per-failure event would just be captured,
        # checkpointed and folded back once per failed system.
        OBS.registry.counter("faultsim.failures").inc(len(kinds))
        for kind in FailureKind:
            count = kinds.count(kind)
            if count:
                OBS.registry.counter(f"faultsim.failure.{kind.value}").inc(
                    count
                )
    return ReliabilityResult(
        scheme_name=scheme.name,
        num_systems=num_systems,
        years=config.years,
        failure_times_hours=adjudication.failure_times,
        kinds=adjudication.kinds,
    )


def _shard_plan(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_size: Optional[int] = None,
) -> Tuple[int, List[tuple]]:
    """The resolved shard size and the deterministic per-shard arguments.

    Each entry is the ``(scheme, config, start, count, seed_seq)``
    argument tuple of one shard; the seeds are the
    ``SeedSequence(config.seed).spawn`` children in plan order.
    """
    shard_size = resolve_shard_size(
        config.num_systems, shard_size, DEFAULT_SHARD_SIZE
    )
    shards = plan_shards(config.num_systems, shard_size)
    seeds = np.random.SeedSequence(config.seed).spawn(max(1, len(shards)))
    return shard_size, [
        (scheme, config, start, count, seeds[i])
        for i, (start, count) in enumerate(shards)
    ]


def _merge_shards(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_results: Sequence[ReliabilityResult],
) -> ReliabilityResult:
    """Merge plan-ordered shard results (an empty plan gives no systems)."""
    if shard_results:
        return ReliabilityResult.merge(shard_results)
    return ReliabilityResult(
        scheme_name=scheme.name,
        num_systems=0,
        years=config.years,
        failure_times_hours=[],
        kinds=[],
    )


def reliability_fingerprint(
    scheme: ProtectionScheme, config: MonteCarloConfig, shard_size: int
) -> RunFingerprint:
    """Run-identity fingerprint of one reliability simulation.

    Everything that can change a shard's contents goes into the config
    hash -- the scheme, the FIT table, scaling, scrubbing, device
    geometry and the per-system draw stream -- so a checkpoint can
    never be silently resumed into a different experiment.
    """
    description = {
        "stream": SYSTEM_STREAM,
        "scheme": scheme.name,
        "years": config.years,
        "scaling_rate": config.scaling_rate,
        "scrub_hours": config.scrub_hours,
        "device_width": config.device_width,
        "fit": [
            [mode.value, rate.transient, rate.permanent]
            for mode, rate in sorted(
                config.fit.rates.items(), key=lambda kv: kv[0].value
            )
        ],
    }
    return RunFingerprint(
        kind=f"reliability.{scheme.name}",
        seed=config.seed,
        total=config.num_systems,
        shard_size=shard_size,
        config_hash=config_digest(description),
        code_version=__version__,
    )


def simulate(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
    runtime: Optional[RuntimePolicy] = None,
) -> ReliabilityResult:
    """Monte-Carlo simulate ``scheme`` under ``config``.

    The population is split into deterministic shards of ``shard_size``
    systems, each seeded by its own ``SeedSequence`` child and run on
    ``workers`` processes (``workers=1`` runs the same shard plan
    in-process).  Within a shard the Poisson fault-arrival draws are
    batched per FIT-table row; only systems with at least
    ``scheme.min_faults`` runtime faults are adjudicated, by the
    scheme's batch kernel or, for a scheme type without one, by
    ``scheme.evaluate``.

    The shards run on :func:`repro.runtime.run_resilient` under
    ``runtime``, else the ambient policy installed by
    :func:`repro.runtime.use_policy` (e.g. by the CLI's
    ``--checkpoint``/``--resume``/``--shard-timeout`` flags), else
    ``RuntimePolicy()``: a failing shard is retried with backoff, a
    dead pool worker is charged a crash and its shards re-run, and the
    first SIGINT/SIGTERM drains the in-flight shards.

    With ``config.faultsim_backend == "analytical"`` no sampling
    happens at all: the call returns the closed-form
    :class:`repro.faultsim.markov.MarkovResult` (duck-compatible with
    :class:`ReliabilityResult`) and ``workers``/``shard_size``/
    ``runtime`` are ignored.
    """
    config = config or MonteCarloConfig()
    validate_faultsim_backend(config.faultsim_backend)
    if config.faultsim_backend == "analytical":
        # Closed-form Markov solve: no population, shards or workers —
        # the remaining arguments only shape the Monte-Carlo plan.
        from repro.faultsim.markov import solve

        return solve(scheme, config)
    shard_size, shard_args = _shard_plan(scheme, config, shard_size)

    started = perf_counter()
    reporter = progress(config.num_systems, f"reliability {scheme.name}")

    def _shard_done(i: int) -> None:
        """Progress + live telemetry after each completed shard."""
        count = shard_args[i][3]
        reporter.update(count)
        if OBS.enabled:
            OBS.registry.counter("faultsim.systems_done").inc(count)
            if OBS.sampler is not None:
                OBS.sampler.maybe_sample()

    try:
        with span(
            "faultsim.simulate",
            scheme=scheme.name,
            backend=config.faultsim_backend,
            systems=config.num_systems,
            workers=workers,
        ):
            shard_results, _outcome = run_resilient(
                _simulate_shard,
                shard_args,
                workers=workers,
                fingerprint=reliability_fingerprint(
                    scheme, config, shard_size
                ),
                policy=runtime,
                encode=lambda r: r.to_payload(),
                decode=ReliabilityResult.from_payload,
                on_shard_done=_shard_done,
            )
    finally:
        reporter.close()

    result = _merge_shards(scheme, config, shard_results)

    if OBS.enabled:
        elapsed = perf_counter() - started
        OBS.registry.counter("faultsim.systems").inc(config.num_systems)
        OBS.registry.counter("faultsim.shards").inc(len(shard_args))
        OBS.registry.counter(
            f"faultsim.backend.{config.faultsim_backend}"
        ).inc()
        if elapsed > 0:
            OBS.registry.gauge("faultsim.systems_per_s").set(
                config.num_systems / elapsed
            )
        OBS.registry.gauge("faultsim.workers").set(workers)
        OBS.registry.timer("faultsim.simulate_s").observe(elapsed)
        if OBS.sampler is not None:
            # Guaranteed final data point for the time-series export.
            OBS.sampler.maybe_sample(force=True)
        log.info(
            "%s: %d/%d systems failed in %.2fs "
            "(%d shards x %d systems, %d workers)",
            scheme.name, result.failures, config.num_systems, elapsed,
            len(shard_args), shard_size, workers,
        )

    return result


def simulate_shard_range(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    indices: Sequence[int] = (),
    shard_size: Optional[int] = None,
    workers: int = 1,
    runtime: Optional[RuntimePolicy] = None,
) -> Dict[int, ReliabilityResult]:
    """Simulate a subset of the deterministic shard plan by index.

    This is the distributed-worker entry point: it builds the *same*
    full shard plan and ``SeedSequence.spawn`` children that
    :func:`simulate` would, then executes only the leased ``indices``.
    Because seeds and start offsets come from the full plan, a merge of
    per-index results across any number of machines is bit-identical to
    the single-machine run.

    Returns ``{global_shard_index: ReliabilityResult}`` for the indices
    that completed.  Failed shards follow the retry/quarantine contract
    of the policy :func:`repro.runtime.run_resilient` resolves from
    ``runtime`` (quarantined indices are simply absent from the
    returned dict -- the coordinator decides their fate).
    """
    config = config or MonteCarloConfig()
    validate_faultsim_backend(config.faultsim_backend)
    if config.faultsim_backend == "analytical":
        raise ValueError(
            "simulate_shard_range requires a sampling backend; the "
            "analytical solver has no shards to lease"
        )
    shard_size, full_args = _shard_plan(scheme, config, shard_size)
    indices = list(indices)
    selected = select_shard_args(full_args, indices)
    results, outcome = run_resilient(
        _simulate_shard,
        selected,
        workers=workers,
        fingerprint=reliability_fingerprint(scheme, config, shard_size),
        policy=runtime,
        encode=lambda r: r.to_payload(),
        decode=ReliabilityResult.from_payload,
    )
    # The executor omits quarantined shards from its plan-ordered list,
    # so realign by the local indices that survived.
    quarantined = set(outcome.quarantined_shards)
    kept = [i for i in range(len(selected)) if i not in quarantined]
    return {indices[local]: result for local, result in zip(kept, results)}


def simulate_many(
    schemes: Sequence[ProtectionScheme],
    config: Optional[MonteCarloConfig] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
) -> Dict[str, ReliabilityResult]:
    """Run several schemes under one config (same seed, fresh streams)."""
    return {
        scheme.name: simulate(
            scheme, config, workers=workers, shard_size=shard_size
        )
        for scheme in schemes
    }
