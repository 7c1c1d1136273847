"""One reliability run, as the CLI, the coordinator and the service take it.

A reliability run is a Monte-Carlo comparison of protection schemes
(the paper's Figs 1 and 7-10).  ``repro reliability``,
``repro coordinate``/``repro work`` and the service's ``POST /v1/jobs``
all describe it with one :class:`ExperimentSpec`: one scheme-key
registry (:data:`SCHEMES`), one validating constructor
(:meth:`ExperimentSpec.from_dict`), one ``(scheme, MonteCarloConfig)``
builder, one shard count and one result table.  The spec speaks the
CLI's vocabulary (scheme keys and flag values), not pickled objects,
so it travels as JSON -- in a service request and in the
coordinator's ``job`` frame -- and a peer on another build *detects*
divergence through the fingerprint instead of silently diverging.

The **fingerprint** is the service's cache identity: a SHA-256 over
the ordered per-scheme :class:`~repro.runtime.checkpoint.RunFingerprint`
dicts, i.e. over everything that can change a single bit of the result
(seed, population, shard plan, config hash, code version).  Two specs
with equal fingerprints are, by construction, the *same experiment*.
Knobs that only shape execution -- ``workers`` (bit-identical for any
worker count, proven by the parallel suite) and the ``chaos``
developer spec (recovery is bit-identical, proven by the chaos suite)
-- are excluded from it, and a worker ignores them in a ``job`` frame.

The spec carries no fault-sim backend: the closed-form ``analytical``
solver is not bit-identical to sampling (only Wilson-compatible), so
it must not share a cache identity with Monte-Carlo.  The CLI applies
``--faultsim-backend`` to the configs the spec builds.

Importing this module does not import :mod:`repro.faultsim` (the
CLI's parser reads :data:`SCHEMES` from it); a spec imports the engine
when it builds its runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.chaos import ChaosSpecError, parse_chaos_spec
from repro.runtime.checkpoint import RunFingerprint, canonical_json, sha256_hex

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_SYSTEMS",
    "SCHEMES",
    "SpecError",
    "ExperimentSpec",
    "build_scheme",
]

#: Default systems per Monte-Carlo shard, for a spec and for
#: :func:`repro.faultsim.simulate` alike: the engine imports it from
#: here, as this module does not import the engine.  Every shard pays a
#: fixed cost (a sampler, a few dozen numpy calls and a record), so
#: larger shards run faster in process but hold more adjudication
#: arrays at once; docs/performance.md measures 25,000, 50,000 and
#: 100,000.  The shard plan is part of a run's identity: changing this
#: moves every default-plan sampled bit.
DEFAULT_SHARD_SIZE = 50_000

#: Default population and seed of a reliability run, owned here for the
#: same reason: a spec and :class:`repro.faultsim.MonteCarloConfig`
#: both read them, so ``repro reliability``, a service job and a bare
#: ``simulate()`` run one default experiment.
DEFAULT_SYSTEMS = 200_000
DEFAULT_SEED = 2016

#: Scheme key -> :mod:`repro.faultsim` class name: the vocabulary of
#: ``--schemes``, of a service request and of the ``job`` frame.
SCHEMES = {
    "non_ecc": "NonEccScheme",
    "ecc_dimm": "EccDimmScheme",
    "xed": "XedScheme",
    "chipkill": "ChipkillScheme",
    "xed_chipkill": "XedChipkillScheme",
    "double_chipkill": "DoubleChipkillScheme",
}


class SpecError(ValueError):
    """A reliability-run spec is malformed or holds a value no run takes."""


def build_scheme(key: str):
    """A fresh :mod:`repro.faultsim` scheme instance for a scheme key."""
    import repro.faultsim as faultsim

    return getattr(faultsim, SCHEMES[key])()


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated reliability run.

    Field semantics mirror the ``repro reliability`` flags one-to-one
    (see :mod:`repro.cli`); ``shard_size`` is stored *resolved* (never
    ``None``) so the fingerprint pins the exact shard plan.  The
    ``workers`` and ``chaos`` fields affect only how the run executes,
    never its bits, and are excluded from :meth:`fingerprint`.
    """

    schemes: Tuple[str, ...]
    systems: int = DEFAULT_SYSTEMS
    years: float = 7.0
    scaling_rate: float = 0.0
    scrub_hours: Optional[float] = None
    seed: int = DEFAULT_SEED
    shard_size: int = DEFAULT_SHARD_SIZE
    workers: int = 1
    chaos: Optional[str] = None

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentSpec":
        """Validate a spec document into a spec: the one constructor.

        The CLI builds the document from its flags, the service takes
        it from a request body and a worker from the ``job`` frame.
        Every rejection raises :class:`SpecError` with an actionable
        message: the CLI exits 2 on it, the service answers 400 and a
        worker replies with an ``error`` frame.
        """
        if not isinstance(data, dict):
            raise SpecError("spec must be a JSON object")
        # A key that is no field is a typo, rejected loudly: a
        # misspelled ``scrub_hours`` must not quietly run unscrubbed.
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise SpecError(f"unknown spec key(s): {', '.join(unknown)}")
        schemes = data.get("schemes")
        if (
            not isinstance(schemes, (list, tuple))
            or not schemes
            or not all(isinstance(s, str) for s in schemes)
        ):
            raise SpecError("schemes must be a non-empty list of scheme names")
        bad = [s for s in schemes if s not in SCHEMES]
        if bad:
            raise SpecError(
                f"unknown scheme(s) {', '.join(bad)}; "
                f"expected one of {', '.join(sorted(SCHEMES))}"
            )
        try:
            systems = int(data.get("systems", cls.systems))
            years = float(data.get("years", cls.years))
            scaling_rate = float(data.get("scaling_rate", cls.scaling_rate))
            seed = int(data.get("seed", cls.seed))
            workers = int(data.get("workers", cls.workers))
            raw_shard = data.get("shard_size")
            shard_size = (
                cls.shard_size if raw_shard is None else int(raw_shard)
            )
            raw_scrub = data.get("scrub_hours")
            scrub_hours = None if raw_scrub is None else float(raw_scrub)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid numeric field: {exc}") from exc
        if systems < 1:
            raise SpecError(f"systems must be >= 1, got {systems}")
        if not 0 < years < math.inf:
            raise SpecError(f"years must be finite and > 0, got {years:g}")
        if not 0 <= scaling_rate <= 1:
            raise SpecError(
                f"scaling rate is a bit error rate in [0, 1], "
                f"got {scaling_rate:g}"
            )
        if scrub_hours is not None and not 0 < scrub_hours < math.inf:
            raise SpecError(
                f"scrub hours must be finite and > 0 (or none), "
                f"got {scrub_hours:g}"
            )
        if seed < 0:
            raise SpecError(f"seed must be >= 0, got {seed}")
        if shard_size < 1:
            raise SpecError(f"shard size must be >= 1, got {shard_size}")
        if workers < 1:
            raise SpecError(f"workers must be >= 1, got {workers}")
        chaos = data.get("chaos")
        if chaos is not None:
            if not isinstance(chaos, str):
                raise SpecError("chaos must be a string spec")
            try:
                parse_chaos_spec(chaos)
            except ChaosSpecError as exc:
                raise SpecError(f"invalid chaos spec: {exc}") from exc
        return cls(
            schemes=tuple(schemes),
            systems=systems,
            years=years,
            scaling_rate=scaling_rate,
            scrub_hours=scrub_hours,
            seed=seed,
            shard_size=shard_size,
            workers=workers,
            chaos=chaos,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image of the full spec (including exec knobs)."""
        return {**asdict(self), "schemes": list(self.schemes)}

    def build_runs(self) -> List[Tuple[object, object]]:
        """Instantiate ``(scheme, MonteCarloConfig)`` per scheme key.

        One config object per scheme (all identical in value) keeps
        each :func:`repro.faultsim.simulate` call independent.
        """
        from repro.faultsim.simulator import MonteCarloConfig

        return [
            (
                build_scheme(key),
                MonteCarloConfig(
                    num_systems=self.systems,
                    years=self.years,
                    seed=self.seed,
                    scaling_rate=self.scaling_rate,
                    scrub_hours=self.scrub_hours,
                ),
            )
            for key in self.schemes
        ]

    def run_fingerprints(self) -> List[RunFingerprint]:
        """The per-scheme run fingerprints, in spec order."""
        from repro.faultsim.simulator import reliability_fingerprint

        return [
            reliability_fingerprint(scheme, config, self.shard_size)
            for scheme, config in self.build_runs()
        ]

    def fingerprint(self) -> str:
        """The run's cache identity: SHA-256 over the ordered runs.

        Covers every result-affecting knob via the per-scheme
        :class:`RunFingerprint` (which itself folds in the config hash
        and code version) -- and nothing else, so re-submitting with a
        different worker count or chaos spec still hits the cache.
        """
        return sha256_hex(
            canonical_json([fp.to_dict() for fp in self.run_fingerprints()])
        )

    def num_shards(self) -> int:
        """Shards in each scheme's deterministic plan."""
        return -(-self.systems // self.shard_size)

    def table(self, results: Sequence[object]) -> str:
        """The run's result table, exactly as ``repro reliability`` prints it.

        A table of several schemes rates them against the first.
        """
        from repro.analysis import format_reliability_table

        return format_reliability_table(
            f"{self.systems:,} systems, {self.years:g} years, "
            f"scaling rate {self.scaling_rate:g}:",
            results,
            baseline_name=results[0].scheme_name if len(results) > 1 else None,
        )
