"""The current draws against the two sets of draws they replaced.

Two changes moved sampled bits without touching a knob, and each left
its seed-2016 counts of one Fig-7 pass of 1e6 systems (default shard
plan) pinned here:

* ``PREVIOUS_STREAM``: the per-system probabilistic draws (ECC-DIMM's
  DUE/SDC split, XED's on-die-miss tail) came from a seeded
  ``random.Random`` per system, before they moved to Philox4x64-10
  (:func:`repro.faultsim.vectorized.system_rng`);
* ``PER_ROW_SAMPLER``: each shard drew one Poisson count per FIT-table
  row and system, before ``FaultSampler.sample_shard_arrays`` drew one
  Poisson total per system and a categorical row per fault.

The current draws share no bits with either set, so each current
count is an independent estimate of the same probability and must pass
a pooled two-proportion z-test at |z| < 3.29 (two-sided p = 0.001)
against both.
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

PINNED = {"previous_stream": PREVIOUS_STREAM, "per_row": PER_ROW_SAMPLER}


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


@pytest.fixture(scope="module")
def fig7_pass():
    config = MonteCarloConfig(num_systems=SYSTEMS, seed=2016)
    return {
        key: simulate(scheme, config)
        for key, scheme in (
            ("ecc_dimm", EccDimmScheme()),
            ("xed", XedScheme()),
            ("chipkill", ChipkillScheme()),
        )
    }


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

    def test_z_statistic_flags_a_real_shift(self):
        assert abs(two_proportion_z(752, 752, SYSTEMS)) == 0.0
        assert abs(two_proportion_z(752, 900, SYSTEMS)) > 3.29
