"""The current draws against the three sets of draws they replaced.

Three changes moved default-plan sampled bits without touching a
knob, and each left its seed-2016 counts of one Fig-7 pass of 1e6
systems (default shard plan) pinned here:

* ``PREVIOUS_STREAM``: the per-system probabilistic draws (ECC-DIMM's
  DUE/SDC split, XED's on-die-miss tail) came from a seeded
  ``random.Random`` per system, before they moved to Philox4x64-10
  (:func:`repro.faultsim.vectorized.system_rng`);
* ``PER_ROW_SAMPLER``: each shard drew one Poisson count per FIT-table
  row and system, before ``FaultSampler.sample_shard_arrays`` drew one
  Poisson total per system and a categorical row per fault;
* ``FORMER_SHARD_PLAN``: the default shard held 25,000 systems, before
  :data:`repro.runtime.spec.DEFAULT_SHARD_SIZE` became 50,000, so each
  shard's ``SeedSequence`` child now draws for other systems.  The
  former plan still reproduces these counts (``shard_size=25_000``).

The current draws share no bits with any set, so each current count
is an independent estimate of the same probability and must pass a
pooled two-proportion z-test at |z| < 3.29 (two-sided p = 0.001)
against all three.
"""

import math

import pytest

from repro.faultsim import (
    ChipkillScheme,
    EccDimmScheme,
    MonteCarloConfig,
    XedScheme,
    simulate,
)

SYSTEMS = 1_000_000

#: Seed-2016 counts under the former ``random.Random`` stream.
PREVIOUS_STREAM = {
    "ecc_dimm_failures": 136_205,
    "ecc_dimm_sdc": 60_253,
    "xed_failures": 752,
    "chipkill_failures": 2_947,
}

#: Seed-2016 counts under the Philox stream and the per-row sampler.
PER_ROW_SAMPLER = {
    "ecc_dimm_failures": 136_205,
    "ecc_dimm_sdc": 60_264,
    "xed_failures": 765,
    "chipkill_failures": 2_947,
}

#: Seed-2016 counts under the split sampler and 25,000-system shards.
FORMER_SHARD_PLAN = {
    "ecc_dimm_failures": 136_992,
    "ecc_dimm_sdc": 60_492,
    "xed_failures": 785,
    "chipkill_failures": 2_798,
}

PINNED = {
    "previous_stream": PREVIOUS_STREAM,
    "per_row": PER_ROW_SAMPLER,
    "former_shard_plan": FORMER_SHARD_PLAN,
}


def two_proportion_z(
    before: int, after: int, trials: int, before_trials: int = 0
) -> float:
    """Pooled z statistic of ``after`` out of ``trials`` against
    ``before`` out of ``before_trials`` (``trials`` if not given)."""
    n_before = before_trials or trials
    pooled = (before + after) / (n_before + trials)
    spread = math.sqrt(pooled * (1 - pooled) * (1 / n_before + 1 / trials))
    if spread == 0:
        return 0.0
    return (after / trials - before / n_before) / spread


def _fig7_counts(shard_size=None):
    config = MonteCarloConfig(num_systems=SYSTEMS, seed=2016)
    return {
        key: simulate(scheme, config, shard_size=shard_size)
        for key, scheme in (
            ("ecc_dimm", EccDimmScheme()),
            ("xed", XedScheme()),
            ("chipkill", ChipkillScheme()),
        )
    }


@pytest.fixture(scope="module")
def fig7_pass():
    return _fig7_counts()


def assert_equivalent(
    key: str, count: int, trials: int, of: str = ""
) -> None:
    """|z| < 3.29 against the count ``key`` of every pinned set.

    ``of`` names the pinned count that was the trials of ``key``; by
    default both sides had ``trials``.
    """
    for name, pinned in PINNED.items():
        z = two_proportion_z(
            pinned[key], count, trials, pinned[of] if of else trials
        )
        assert abs(z) < 3.29, (name, key, count, z)


class TestStreamEquivalence:
    def test_ecc_dimm_failures_unchanged(self, fig7_pass):
        assert_equivalent(
            "ecc_dimm_failures", fig7_pass["ecc_dimm"].failures, SYSTEMS
        )

    def test_chipkill_failures_unchanged(self, fig7_pass):
        assert_equivalent(
            "chipkill_failures", fig7_pass["chipkill"].failures, SYSTEMS
        )

    def test_ecc_dimm_sdc_split_equivalent(self, fig7_pass):
        # Conditional on failing, each failed system's kind is one
        # Bernoulli draw, so the split is binomial over the failures.
        result = fig7_pass["ecc_dimm"]
        assert_equivalent(
            "ecc_dimm_sdc", result.sdc_count, result.failures,
            of="ecc_dimm_failures",
        )

    def test_xed_failures_equivalent(self, fig7_pass):
        assert_equivalent("xed_failures", fig7_pass["xed"].failures, SYSTEMS)

    def test_former_shard_plan_keeps_its_counts(self):
        # Only the default plan moved: asked for by name, the former
        # 25,000-system plan draws exactly the bits it always did.
        former = _fig7_counts(shard_size=25_000)
        assert {
            "ecc_dimm_failures": former["ecc_dimm"].failures,
            "ecc_dimm_sdc": former["ecc_dimm"].sdc_count,
            "xed_failures": former["xed"].failures,
            "chipkill_failures": former["chipkill"].failures,
        } == FORMER_SHARD_PLAN

    def test_z_statistic_flags_a_real_shift(self):
        assert abs(two_proportion_z(752, 752, SYSTEMS)) == 0.0
        assert abs(two_proportion_z(752, 900, SYSTEMS)) > 3.29
