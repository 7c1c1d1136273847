"""The counter-based draw stream against the stream it replaced.

The per-system probabilistic draws (ECC-DIMM's DUE/SDC split, XED's
on-die-miss tail) moved from a seeded ``random.Random`` per system to
Philox4x64-10 (:func:`repro.faultsim.vectorized.system_rng`).  The
constants below are what the former stream gave one Fig-7 pass of
1e6 systems at seed 2016 with the default shard plan:

* ECC-DIMM fails on every visible fault (the draw only picks the
  kind) and Chipkill draws nothing, so their failure counts must not
  move at all;
* ECC-DIMM's SDC count and XED's failure count are two independent
  estimates of one probability, so each must pass a pooled
  two-proportion z-test at |z| < 3.29 (two-sided p = 0.001).
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


def two_proportion_z(before: int, after: int, trials: int) -> float:
    """Pooled z statistic of two counts out of ``trials`` each."""
    pooled = (before + after) / (2 * trials)
    spread = math.sqrt(pooled * (1 - pooled) * 2 / trials)
    return 0.0 if spread == 0 else (after - before) / trials / spread


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


class TestStreamEquivalence:
    def test_ecc_dimm_failures_unchanged(self, fig7_pass):
        assert fig7_pass["ecc_dimm"].failures == (
            PREVIOUS_STREAM["ecc_dimm_failures"]
        )

    def test_chipkill_failures_unchanged(self, fig7_pass):
        assert fig7_pass["chipkill"].failures == (
            PREVIOUS_STREAM["chipkill_failures"]
        )

    def test_ecc_dimm_sdc_split_equivalent(self, fig7_pass):
        # Conditional on failing, each failed system's kind is one
        # Bernoulli draw, so the split is binomial over the failures.
        result = fig7_pass["ecc_dimm"]
        z = two_proportion_z(
            PREVIOUS_STREAM["ecc_dimm_sdc"], result.sdc_count,
            result.failures,
        )
        assert abs(z) < 3.29, (result.sdc_count, z)

    def test_xed_failures_equivalent(self, fig7_pass):
        result = fig7_pass["xed"]
        z = two_proportion_z(
            PREVIOUS_STREAM["xed_failures"], result.failures, SYSTEMS
        )
        assert abs(z) < 3.29, (result.failures, z)

    def test_z_statistic_flags_a_real_shift(self):
        assert abs(two_proportion_z(752, 752, SYSTEMS)) == 0.0
        assert abs(two_proportion_z(752, 900, SYSTEMS)) > 3.29
