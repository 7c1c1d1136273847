"""Differential verification of the Monte-Carlo engine.

Walking each sample system's ``ChipFault`` list through
``ProtectionScheme.evaluate`` (:func:`repro.faultsim.simulator.evaluate_shard`)
is the golden model; the batch kernels of
:mod:`repro.faultsim.vectorized` are an optimisation that must never
change a result.  This module replays identical sampled shards -- or
whole sharded simulations -- through the reference and through
``simulate()``, and raises :class:`DifferentialMismatch` on any
divergence in failure counts, kinds or times, down to exact float
equality of the checkpoint payload JSON.  It mirrors
:mod:`repro.ecc.differential`, the same harness pattern for the
batched ECC kernels.

The closed-form ``analytical`` backend (:mod:`repro.faultsim.markov`)
gets a *statistical* contract instead of a bit-identical one: it
solves a model of the sampler rather than replaying its draws, so
:func:`cross_validate_analytical` asserts that its probabilities fall
inside the Monte-Carlo Wilson score interval — for the total failure
probability and for the DUE/SDC components separately — and
:func:`cross_validate_grid` sweeps that check over scheme × FIT-scale
cells.  The contract's derivation lives in docs/theory.md.

Used three ways:

* ``tests/unit/test_faultsim_differential.py`` sweeps all six schemes
  (and both worker counts) through :func:`replay_simulation`, and all
  six through :func:`cross_validate_analytical`;
* the golden corpus (``tools/gen_faultsim_golden.py``) is recorded from
  :func:`reference_simulate`, and its test replays every entry through
  both the reference and ``simulate()``;
* ad-hoc verification of a configuration before a long run (see the
  cookbook's engine-versus-reference recipe).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faultsim.markov import solve
from repro.faultsim.schemes import ProtectionScheme
from repro.faultsim.simulator import (
    MonteCarloConfig,
    ReliabilityResult,
    _merge_shards,
    _sample_shard,
    _shard_plan,
    _simulate_shard,
    evaluate_shard,
    simulate,
)
from repro.obs import OBS


class DifferentialMismatch(AssertionError):
    """The engine and the reference disagreed on a replayed result."""


class AnalyticalMismatch(DifferentialMismatch):
    """The analytical solver fell outside a Monte-Carlo Wilson interval."""


@dataclass(frozen=True)
class DifferentialReport:
    """Summary of one successful engine-versus-reference replay."""

    scheme_name: str
    num_systems: int
    failures: int
    due: int
    sdc: int
    workers: int = 1

    def __str__(self) -> str:
        return (
            f"{self.scheme_name}: {self.num_systems} systems, "
            f"{self.failures} failures (DUE {self.due}, SDC {self.sdc}) "
            f"bit-identical to the reference ({self.workers} worker(s))"
        )


def _canonical_payload(result: ReliabilityResult) -> str:
    """The result's checkpoint payload as canonical JSON text."""
    return json.dumps(result.to_payload(), sort_keys=True)


def assert_identical(
    scalar: ReliabilityResult,
    vectorized: ReliabilityResult,
    context: str,
) -> None:
    """Raise :class:`DifferentialMismatch` unless the results match.

    Checks structured equality field by field (population, failure
    count, per-failure kind and exact failure-time floats) before
    comparing the serialised checkpoint payloads, so a divergence is
    reported as the first differing field rather than a JSON diff.
    """
    if scalar.num_systems != vectorized.num_systems:
        raise DifferentialMismatch(
            f"{context}: population mismatch "
            f"{scalar.num_systems} != {vectorized.num_systems}"
        )
    if scalar.failures != vectorized.failures:
        raise DifferentialMismatch(
            f"{context}: failure count mismatch "
            f"{scalar.failures} != {vectorized.failures}"
        )
    if scalar.kinds != vectorized.kinds:
        first = next(
            i
            for i, (a, b) in enumerate(zip(scalar.kinds, vectorized.kinds))
            if a is not b
        )
        raise DifferentialMismatch(
            f"{context}: failure kind mismatch at position {first}: "
            f"{scalar.kinds[first].value} != {vectorized.kinds[first].value}"
        )
    if scalar.failure_times_hours != vectorized.failure_times_hours:
        first = next(
            i
            for i, (a, b) in enumerate(
                zip(
                    scalar.failure_times_hours,
                    vectorized.failure_times_hours,
                )
            )
            if a != b
        )
        raise DifferentialMismatch(
            f"{context}: failure time mismatch at position {first}: "
            f"{scalar.failure_times_hours[first]!r} != "
            f"{vectorized.failure_times_hours[first]!r}"
        )
    if _canonical_payload(scalar) != _canonical_payload(vectorized):
        raise DifferentialMismatch(
            f"{context}: checkpoint payload JSON differs despite "
            "field-level equality"
        )


def reference_shard(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    start_index: int,
    num_systems: int,
    seed_seq: np.random.SeedSequence,
) -> ReliabilityResult:
    """One shard sampled as ``simulate()`` samples it, then adjudicated
    system by system through ``scheme.evaluate``."""
    sampler, shard = _sample_shard(
        scheme, config, start_index, num_systems, seed_seq
    )
    adjudication = evaluate_shard(scheme, sampler, shard, config.seed)
    return ReliabilityResult(
        scheme_name=scheme.name,
        num_systems=num_systems,
        years=config.years,
        failure_times_hours=adjudication.failure_times,
        kinds=adjudication.kinds,
    )


def reference_simulate(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    shard_size: Optional[int] = None,
) -> ReliabilityResult:
    """The golden model of ``simulate()``: the same shard plan and
    seeds, every shard through :func:`reference_shard`, merged in plan
    order.  Runs in-process."""
    config = config or MonteCarloConfig()
    _, shard_args = _shard_plan(scheme, config, shard_size)
    return _merge_shards(
        scheme, config, [reference_shard(*args) for args in shard_args]
    )


def replay_shard(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    start_index: int = 0,
    num_systems: Optional[int] = None,
) -> DifferentialReport:
    """Replay one sampled shard through the reference and the engine.

    Samples the shard twice from the same ``SeedSequence`` (the
    sequence is stateless, so both sides see the identical draw
    stream) and adjudicates it with :func:`reference_shard` and with
    the engine's shard function.  Raises :class:`DifferentialMismatch`
    on any divergence.
    """
    config = config or MonteCarloConfig()
    if num_systems is None:
        num_systems = config.num_systems
    seed_seq = np.random.SeedSequence(config.seed)
    reference = reference_shard(
        scheme, config, start_index, num_systems, seed_seq
    )
    engine = _simulate_shard(
        scheme, config, start_index, num_systems, seed_seq
    )
    context = f"shard[{start_index}:{start_index + num_systems}] {scheme.name}"
    assert_identical(reference, engine, context)
    if OBS.enabled:
        OBS.registry.counter("faultsim.differential.shards").inc()
        OBS.registry.counter(
            "faultsim.differential.systems"
        ).inc(num_systems)
    return DifferentialReport(
        scheme_name=scheme.name,
        num_systems=num_systems,
        failures=reference.failures,
        due=reference.due_count,
        sdc=reference.sdc_count,
    )


def replay_simulation(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
) -> DifferentialReport:
    """Run a full sharded ``simulate()`` and compare it with the reference.

    Exercises the complete pipeline -- shard planning, seeding, the
    worker pool and result merging -- against
    :func:`reference_simulate` over the same plan, and additionally
    asserts that the merged payload survives a JSON round-trip exactly
    (the property checkpoint resume rests on).  Raises
    :class:`DifferentialMismatch` on any divergence.
    """
    config = config or MonteCarloConfig()
    reference = reference_simulate(scheme, config, shard_size=shard_size)
    engine = simulate(
        scheme, config, workers=workers, shard_size=shard_size,
    )
    context = f"simulate({scheme.name}, workers={workers})"
    assert_identical(reference, engine, context)
    # Checkpoint-resume property: the merged payload must survive a
    # JSON round-trip bit for bit (floats re-parse to the identical
    # values, and the rebuilt result re-serialises to the identical
    # canonical JSON the checkpoint digests are computed over).
    round_tripped = ReliabilityResult.from_payload(
        json.loads(json.dumps(engine.to_payload()))
    )
    assert_identical(reference, round_tripped, context + " [json round-trip]")
    if OBS.enabled:
        OBS.registry.counter("faultsim.differential.simulations").inc()
        OBS.registry.counter(
            "faultsim.differential.systems"
        ).inc(config.num_systems)
    return DifferentialReport(
        scheme_name=scheme.name,
        num_systems=config.num_systems,
        failures=reference.failures,
        due=reference.due_count,
        sdc=reference.sdc_count,
        workers=workers,
    )


def _wilson(successes: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for ``successes`` out of ``n`` trials.

    The same construction :meth:`ReliabilityResult.confidence_interval`
    uses for the total failure probability, exposed here so the
    DUE/SDC *components* get their own intervals too.
    """
    if n <= 0:
        raise ValueError("Wilson interval needs a positive population")
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class WilsonCheck:
    """One analytical-vs-Monte-Carlo Wilson-interval comparison.

    ``quantity`` names what was compared: the ``"total"`` failure
    probability or its ``"due"``/``"sdc"`` component.  ``inside`` is
    the contract: the exact analytical probability must lie within the
    Wilson score interval of the Monte-Carlo estimate.
    """

    scheme_name: str
    quantity: str
    analytical: float
    monte_carlo: float
    ci_low: float
    ci_high: float
    num_systems: int
    fit_scale: float = 1.0
    scrub_hours: Optional[float] = None

    @property
    def inside(self) -> bool:
        """Whether the analytical value falls inside the interval."""
        return self.ci_low <= self.analytical <= self.ci_high

    def __str__(self) -> str:
        verdict = "inside" if self.inside else "OUTSIDE"
        return (
            f"{self.scheme_name} [{self.quantity}, fit x{self.fit_scale:g}]"
            f": analytical {self.analytical:.3e} {verdict} "
            f"MC [{self.ci_low:.3e}, {self.ci_high:.3e}] "
            f"(mc {self.monte_carlo:.3e} @ {self.num_systems} systems)"
        )


def cross_validate_analytical(
    scheme: ProtectionScheme,
    config: Optional[MonteCarloConfig] = None,
    workers: int = 1,
    shard_size: Optional[int] = None,
    z: float = 1.96,
    fit_scale: float = 1.0,
) -> List[WilsonCheck]:
    """Check the analytical solver against Monte-Carlo Wilson intervals.

    Runs the vectorized Monte-Carlo backend under ``config``, solves
    the same configuration in closed form, and asserts the analytical
    total/DUE/SDC probabilities each lie inside the corresponding
    Wilson score interval of the sampled estimate.  Raises
    :class:`AnalyticalMismatch` listing every violated interval;
    returns the full check list on success.

    ``fit_scale`` only labels the returned checks (scale the
    ``config.fit`` table yourself, or use :func:`cross_validate_grid`).
    Population sizing matters: the interval narrows as ``sqrt(n)``
    while the solver's own model error is population-independent, so
    see docs/theory.md for the populations at which this contract is
    meaningful per scheme.
    """
    config = config or MonteCarloConfig()
    mc = simulate(
        scheme, dataclasses.replace(config, faultsim_backend="vectorized"),
        workers=workers, shard_size=shard_size,
    )
    an = solve(scheme, config)
    n = config.num_systems
    checks = []
    for quantity, count, value in (
        ("total", mc.failures, an.probability_of_failure),
        ("due", mc.due_count, an.due_probability),
        ("sdc", mc.sdc_count, an.sdc_probability),
    ):
        lo, hi = _wilson(count, n, z)
        checks.append(
            WilsonCheck(
                scheme_name=scheme.name,
                quantity=quantity,
                analytical=value,
                monte_carlo=count / n,
                ci_low=lo,
                ci_high=hi,
                num_systems=n,
                fit_scale=fit_scale,
                scrub_hours=config.scrub_hours,
            )
        )
    if OBS.enabled:
        OBS.registry.counter("faultsim.differential.wilson_checks").inc(
            len(checks)
        )
    bad = [c for c in checks if not c.inside]
    if bad:
        raise AnalyticalMismatch(
            "analytical solver outside Monte-Carlo Wilson interval(s):\n"
            + "\n".join(f"  {c}" for c in bad)
        )
    return checks


def cross_validate_grid(
    schemes: Sequence[ProtectionScheme],
    config: Optional[MonteCarloConfig] = None,
    fit_scales: Sequence[float] = (1.0,),
    workers: int = 1,
    shard_size: Optional[int] = None,
    z: float = 1.96,
) -> List[WilsonCheck]:
    """Wilson cross-validation over scheme × FIT-scale cells.

    Every cell re-runs Monte-Carlo under the scaled FIT table and
    checks the analytical answer against it.  Raises
    :class:`AnalyticalMismatch` on the first failing cell.
    """
    config = config or MonteCarloConfig()
    checks: List[WilsonCheck] = []
    for scale in fit_scales:
        scaled = dataclasses.replace(config, fit=config.fit.scaled(scale))
        for scheme in schemes:
            checks.extend(
                cross_validate_analytical(
                    scheme,
                    scaled,
                    workers=workers,
                    shard_size=shard_size,
                    z=z,
                    fit_scale=scale,
                )
            )
    return checks
