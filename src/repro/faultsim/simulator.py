"""The Monte-Carlo reliability driver (the paper's Section III loop).

``simulate(scheme, config)`` runs ``num_systems`` independent 7-year
system lifetimes and reports the probability of system failure -- the
fraction of systems that hit an uncorrectable, mis-corrected or silent
error at any point -- exactly the figure of merit of Figures 1 and
7-10.  Failure *times* are retained so the year-by-year curves the
figures plot can be regenerated; they stay packed, one float64 time
and one int8 kind code per failed system.

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
from collections import abc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.fault_models import FitTable, HOURS_PER_YEAR, LIFETIME_YEARS
from repro.faultsim.injector import SHARD_SAMPLER, FaultSampler
from repro.faultsim.parallel import plan_shards, resolve_shard_size
from repro.faultsim.schemes import FailureKind, ProtectionScheme
from repro.faultsim.vectorized import (
    CODE_OF_KIND,
    KIND_OF_CODE,
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
from repro.runtime.spec import (
    DEFAULT_SEED,
    DEFAULT_SHARD_SIZE,
    DEFAULT_SYSTEMS,
)
from repro.version import __version__

log = get_logger("faultsim.simulator")


@dataclass
class MonteCarloConfig:
    """Knobs of a reliability experiment.

    The paper simulates 1e9 systems; pure Python cannot, so
    ``num_systems`` defaults to a population that resolves the relative
    ordering and ratio bands in seconds.  All results carry binomial
    confidence intervals so undersampling is visible, not silent.
    """

    num_systems: int = DEFAULT_SYSTEMS
    years: float = LIFETIME_YEARS
    seed: int = DEFAULT_SEED
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


def wilson_interval(
    successes: int, n: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for ``successes`` out of ``n`` trials.

    The interval of a failure probability (a result's total, or its
    DUE/SDC components in cross-validation).  Raises ``ValueError``
    when ``n`` is not positive.
    """
    if n <= 0:
        raise ValueError("Wilson interval needs a positive population")
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


#: The kind code of each ``FailureKind`` value, and back, for payloads.
_CODE_OF_VALUE = {kind.value: code for kind, code in CODE_OF_KIND.items()}
_VALUE_OF_CODE = {code: value for value, code in _CODE_OF_VALUE.items()}
#: Kind codes a ``FailureKinds`` iterator converts to Python at a time.
_ITER_CHUNK = 4096


class FailureKinds(abc.Sequence):
    """The failure kinds of a result, packed one int8 code per failure.

    A read-only sequence of :class:`FailureKind` members over the int8
    codes the batch kernels emit (see
    :data:`repro.faultsim.vectorized.KIND_OF_CODE`).  It supports
    ``len``, indexing, iteration and ``count(kind)``, and equals another
    ``FailureKinds``, list or tuple that holds the same kinds in the
    same order.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes

    @classmethod
    def pack(
        cls, kinds: "Iterable[FailureKind] | np.ndarray"
    ) -> "FailureKinds":
        """``kinds`` as a ``FailureKinds``: int8 codes are kept, and
        ``FailureKind`` members are packed into codes."""
        if isinstance(kinds, FailureKinds):
            return kinds
        if isinstance(kinds, np.ndarray):
            return cls(kinds.astype(np.int8, copy=False))
        return cls(np.fromiter(map(CODE_OF_KIND.__getitem__, kinds), np.int8))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> FailureKind:
        return KIND_OF_CODE[self.codes[index]]

    def __iter__(self) -> Iterator[FailureKind]:
        # In chunks, so iterating never holds a list as long as the codes.
        for start in range(0, len(self.codes), _ITER_CHUNK):
            yield from map(
                KIND_OF_CODE.__getitem__,
                self.codes[start:start + _ITER_CHUNK].tolist(),
            )

    def count(self, kind: object) -> int:
        """How many failures are of ``kind``."""
        code = CODE_OF_KIND.get(kind)
        if code is None:
            return 0
        return int(np.count_nonzero(self.codes == code))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FailureKinds):
            return bool(np.array_equal(self.codes, other.codes))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a is b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"FailureKinds({self.codes!r})"


@dataclass(eq=False)
class ReliabilityResult:
    """Outcome of one Monte-Carlo reliability experiment.

    ``failure_times_hours`` holds each failed system's first-failure
    time (a float64 array) and ``kinds`` its DUE/SDC kind (a
    :class:`FailureKinds`), in global-system-index order.  The
    constructor packs lists of times and of ``FailureKind`` members and
    keeps float64 time and int8 kind-code arrays as they are.  Two
    results are equal when their scheme, population, lifetime, failure
    times (exactly) and kinds are.
    """

    scheme_name: str
    num_systems: int
    years: float
    failure_times_hours: np.ndarray
    kinds: FailureKinds

    def __post_init__(self) -> None:
        """Pack the failure records and normalise ``years`` to float.

        ``LIFETIME_YEARS`` is the integer 7, while ``from_payload``
        coerces to float; without this, a checkpoint-resumed result
        would serialise ``"years": 7.0`` where a fresh run writes
        ``"years": 7`` -- same value, different payload bytes, breaking
        the byte-compatibility that ``--resume`` and the golden-digest
        corpus rely on.
        """
        self.years = float(self.years)
        self.failure_times_hours = np.asarray(
            self.failure_times_hours, dtype=np.float64
        )
        self.kinds = FailureKinds.pack(self.kinds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReliabilityResult):
            return NotImplemented
        return (
            self.scheme_name == other.scheme_name
            and self.num_systems == other.num_systems
            and self.years == other.years
            and bool(np.array_equal(
                self.failure_times_hours, other.failure_times_hours
            ))
            and self.kinds == other.kinds
        )

    @property
    def failures(self) -> int:
        """Number of failed systems (DUE + SDC)."""
        return len(self.failure_times_hours)

    @property
    def probability_of_failure(self) -> float:
        """Point estimate of P(system failure) over the lifetime."""
        return self.failures / self.num_systems

    @property
    def due_count(self) -> int:
        """Failed systems classified as detected-uncorrectable."""
        return self.kinds.count(FailureKind.DUE)

    @property
    def sdc_count(self) -> int:
        """Failed systems classified as silent data corruption."""
        return self.kinds.count(FailureKind.SDC)

    def probability_by_year(self, year: float) -> float:
        """P(failed at or before ``year``) -- one point of the curves."""
        return self.curve((year,))[0][1]

    def curve(self, years: Optional[Sequence[float]] = None) -> List[tuple]:
        """(year, P(failure by year)) series for Figures 1 and 7-10."""
        if years is None:
            years = range(1, int(self.years) + 1)
        times = self.failure_times_hours
        return [
            (y, int(np.count_nonzero(times <= y * HOURS_PER_YEAR))
             / self.num_systems)
            for y in years
        ]

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Wilson score interval on the failure probability.

        An empty result knows nothing: its interval is ``(0.0, 1.0)``.
        """
        if self.num_systems == 0:
            return (0.0, 1.0)
        return wilson_interval(self.failures, self.num_systems, z)

    def mean_time_to_failure_years(self) -> float:
        """MTTF conditioned on failing within the simulated lifetime.

        Over a population where most systems never fail, the
        unconditional MTTF is dominated by censoring; the conditional
        mean of observed failure times is the comparable quantity and
        is what reliability reports usually quote alongside P(fail).
        """
        if not self.failures:
            return math.inf
        mean_hours = sum(self.failure_times_hours.tolist()) / self.failures
        return mean_hours / HOURS_PER_YEAR

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
            "failure_times_hours": self.failure_times_hours.tolist(),
            "kinds": list(
                map(_VALUE_OF_CODE.__getitem__, self.kinds.codes.tolist())
            ),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ReliabilityResult":
        """Rebuild a shard result from its checkpoint payload.

        Each time goes through ``float`` and each kind through its
        value's code, so a malformed entry (a ``null`` time, an unknown
        kind) raises instead of being packed.
        """
        times = payload["failure_times_hours"]
        kinds = payload["kinds"]
        return cls(
            scheme_name=str(payload["scheme_name"]),
            num_systems=int(payload["num_systems"]),
            years=float(payload["years"]),
            failure_times_hours=np.fromiter(
                map(float, times), np.float64, len(times)
            ),
            kinds=np.fromiter(
                map(_CODE_OF_VALUE.__getitem__, kinds), np.int8, len(kinds)
            ),
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
            failure_times_hours=np.concatenate(
                [s.failure_times_hours for s in shards]
            ),
            kinds=np.concatenate([s.kinds.codes for s in shards]),
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
    times: List[float] = []
    kinds: List[int] = []
    for system in sampler.materialise_shard(shard):
        outcome = scheme.evaluate(
            system.faults, system_rng(experiment_seed, system.index)
        )
        if outcome is not None:
            times.append(outcome.time_hours)
            kinds.append(CODE_OF_KIND[outcome.kind])
    return ShardAdjudication(
        np.array(times, dtype=np.float64), np.array(kinds, dtype=np.int8)
    )


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
    result = ReliabilityResult(
        scheme_name=scheme.name,
        num_systems=num_systems,
        years=config.years,
        failure_times_hours=adjudication.failure_times,
        kinds=adjudication.kinds,
    )
    if OBS.enabled and result.failures:
        # Totals only: the result already records every failure's time
        # and kind, so a per-failure event would just be captured,
        # checkpointed and folded back once per failed system.
        OBS.registry.counter("faultsim.failures").inc(result.failures)
        for kind in FailureKind:
            count = result.kinds.count(kind)
            if count:
                OBS.registry.counter(f"faultsim.failure.{kind.value}").inc(
                    count
                )
    return result


def _shard_plan(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_size: Optional[int] = None,
) -> Tuple[int, List[tuple]]:
    """The resolved shard size and the deterministic per-shard arguments.

    Each entry is the ``(scheme, config, start, count, seed_seq)``
    argument tuple of one shard; the seeds are the
    ``SeedSequence(config.seed).spawn`` children in plan order.  This
    is the one plan builder: :func:`simulate` runs the whole plan and a
    distributed worker (:mod:`repro.runtime.distributed`) the leased
    indices of it, so every shard keeps its single-machine seed and
    offset.
    """
    shard_size = resolve_shard_size(shard_size, DEFAULT_SHARD_SIZE)
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
    geometry, the shard sampler's draw order and the per-system draw
    stream -- so a checkpoint can never be silently resumed into a
    different experiment.
    """
    description = {
        "sampler": SHARD_SAMPLER,
        "stream": SYSTEM_STREAM,
        "scheme": scheme.name,
        # Floats, so an integer and the float the spec, the CLI and the
        # service build (7 and 7.0, 24 and 24.0) are one run.
        "years": float(config.years),
        "scaling_rate": float(config.scaling_rate),
        "scrub_hours": (
            None if config.scrub_hours is None else float(config.scrub_hours)
        ),
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
    in-process).  Within a shard one Poisson draw gives every system's
    fault total (:meth:`FaultSampler.sample_shard_arrays`); only
    systems with at least ``scheme.min_faults`` runtime faults get
    their faults drawn and are adjudicated, by the scheme's batch
    kernel or, for a scheme type without one, by ``scheme.evaluate``.

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
