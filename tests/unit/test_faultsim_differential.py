"""Differential tests: vectorized Monte-Carlo vs the evaluate reference.

Walking ``scheme.evaluate`` over materialised systems is the golden
model; every test here replays identical sampled shards (or whole
sharded simulations) through the reference and the engine and requires
bit-identical ``ReliabilityResult`` payloads -- failure counts, kinds
and exact failure-time floats -- for all six protection schemes, at
one and at four workers.

The closed-form ``analytical`` backend gets the statistical contract
instead (``TestAnalyticalCrossValidation``): its exact probabilities
must fall inside the Monte-Carlo Wilson score intervals, per scheme
and per quantity (total/DUE/SDC), as derived in docs/theory.md.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.faultsim import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    FailureKind,
    FitTable,
    MonteCarloConfig,
    NonEccScheme,
    ProtectionScheme,
    XedChipkillScheme,
    XedScheme,
    simulate,
)
from repro.faultsim.differential import (
    AnalyticalMismatch,
    DifferentialMismatch,
    DifferentialReport,
    WilsonCheck,
    _wilson,
    assert_identical,
    cross_validate_analytical,
    cross_validate_grid,
    reference_simulate,
    replay_shard,
    replay_simulation,
)
from repro.faultsim.schemes import SystemFailure
from repro.faultsim.simulator import ReliabilityResult
from repro.faultsim.vectorized import (
    UnsupportedSchemeError,
    adjudicate_shard,
    has_kernel,
    validate_faultsim_backend,
)
from repro.faultsim.injector import FaultSampler

# One representative instance per scheme.  The ECC-DIMM fraction is
# pinned so the test does not re-measure the decoder profile per run.
ALL_SCHEMES = [
    NonEccScheme,
    lambda: EccDimmScheme(sdc_fraction=0.44),
    XedScheme,
    ChipkillScheme,
    DoubleChipkillScheme,
    XedChipkillScheme,
]
SCHEME_IDS = [
    "non_ecc", "ecc_dimm", "xed", "chipkill", "double_chipkill",
    "xed_chipkill",
]


def stress_config(**overrides):
    """A small population with FIT rates scaled up for failure signal."""
    defaults = dict(
        num_systems=3_000,
        seed=2016,
        fit=FitTable().scaled(30.0),
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


class TestReplayShard:
    @pytest.mark.parametrize("make_scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_single_shard_bit_identical(self, make_scheme):
        report = replay_shard(make_scheme(), stress_config())
        assert report.failures > 0, "stress config must produce failures"

    @pytest.mark.parametrize("make_scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_scaling_and_scrubbing_bit_identical(self, make_scheme):
        report = replay_shard(
            make_scheme(),
            stress_config(scaling_rate=1e-2, scrub_hours=168.0, seed=7),
        )
        assert report.failures >= 0  # the assertion is inside the replay

    def test_xed_misdiagnosis_tail_bit_identical(self):
        # Exercises the SDC misdiagnosis branch, whose draws interleave
        # with the on-die-miss draws in the evaluator's tail loop.
        report = replay_shard(
            XedScheme(misdiagnosis_sdc_probability=5e-3),
            stress_config(seed=11),
        )
        assert report.sdc > 0, "misdiagnosis tail should produce SDCs"

    def test_nonzero_start_index_bit_identical(self):
        # Per-system RNG hashes the global index; offset shards must
        # agree too.
        replay_shard(XedScheme(), stress_config(), start_index=123_456)


class TestReplaySimulation:
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("make_scheme", ALL_SCHEMES, ids=SCHEME_IDS)
    def test_full_simulation_bit_identical(self, make_scheme, workers):
        report = replay_simulation(
            make_scheme(),
            stress_config(num_systems=4_000),
            workers=workers,
            shard_size=1_000,
        )
        assert report.workers == workers

    def test_report_str_mentions_scheme(self):
        report = replay_simulation(
            XedScheme(), stress_config(num_systems=1_000), shard_size=500
        )
        assert "XED" in str(report)
        assert "bit-identical" in str(report)


class FirstPermanentFaultScheme(ProtectionScheme):
    """A user-defined scheme with no batch kernel of its own."""

    name = "first permanent visible fault"

    def evaluate(self, faults, rng):
        permanent = [f for f in self.visible(faults) if f.permanent]
        if not permanent:
            return None
        first = min(permanent, key=lambda f: f.time_hours)
        kind = FailureKind.SDC if rng.random() < 0.5 else FailureKind.DUE
        return SystemFailure(first.time_hours, kind)


class TestBackendWiring:
    def test_simulate_backends_agree_via_config(self):
        cfg = stress_config(num_systems=2_000)
        engine = simulate(XedScheme(), cfg)
        reference = reference_simulate(XedScheme(), cfg)
        assert json.dumps(engine.to_payload()) == json.dumps(
            reference.to_payload()
        )

    def test_default_backend_is_vectorized(self):
        assert MonteCarloConfig().faultsim_backend == "vectorized"

    def test_unknown_backend_rejected(self):
        for backend in ("turbo", "scalar"):
            with pytest.raises(ValueError, match="faultsim backend"):
                simulate(
                    XedScheme(),
                    MonteCarloConfig(num_systems=100, faultsim_backend=backend),
                )
        with pytest.raises(ValueError):
            validate_faultsim_backend("gpu")

    def test_custom_scheme_matches_reference(self):
        """A scheme type without a kernel runs through ``evaluate``."""
        scheme = FirstPermanentFaultScheme()
        engine = simulate(scheme)
        reference = reference_simulate(scheme)
        assert_identical(reference, engine, "custom scheme")
        assert engine.due_count > 0 and engine.sdc_count > 0

    def test_adjudicate_shard_refuses_scheme_without_kernel(self):
        scheme = FirstPermanentFaultScheme()
        assert not has_kernel(scheme)
        sampler = FaultSampler(scheme, FitTable(), 7 * 24 * 365)
        shard = sampler.sample_shard_arrays(0, 50, np.random.default_rng(0))
        with pytest.raises(UnsupportedSchemeError, match="scheme.evaluate"):
            adjudicate_shard(scheme, shard, 2016)

    def test_adjudicate_shard_empty_population(self):
        scheme = ChipkillScheme()
        sampler = FaultSampler(scheme, FitTable(), 7 * 24 * 365)
        import numpy as np

        shard = sampler.sample_shard_arrays(
            0, 50, np.random.default_rng(0), min_faults=scheme.min_faults
        )
        adjudication = adjudicate_shard(scheme, shard, 2016)
        assert adjudication.system_indices == []
        assert adjudication.failure_times == []
        assert adjudication.kinds == []


class TestMismatchDetection:
    def make_result(self, **overrides):
        fields = dict(
            scheme_name="x",
            num_systems=100,
            years=7.0,
            failure_times_hours=[1.0, 2.0],
            kinds=[FailureKind.DUE, FailureKind.SDC],
        )
        fields.update(overrides)
        return ReliabilityResult(**fields)

    def test_identical_results_pass(self):
        assert_identical(self.make_result(), self.make_result(), "ctx")

    def test_population_mismatch_raises(self):
        with pytest.raises(DifferentialMismatch, match="population"):
            assert_identical(
                self.make_result(),
                self.make_result(num_systems=101),
                "ctx",
            )

    def test_count_mismatch_raises(self):
        with pytest.raises(DifferentialMismatch, match="failure count"):
            assert_identical(
                self.make_result(),
                self.make_result(
                    failure_times_hours=[1.0], kinds=[FailureKind.DUE]
                ),
                "ctx",
            )

    def test_kind_mismatch_raises(self):
        with pytest.raises(DifferentialMismatch, match="kind mismatch"):
            assert_identical(
                self.make_result(),
                self.make_result(kinds=[FailureKind.DUE, FailureKind.DUE]),
                "ctx",
            )

    def test_time_mismatch_raises(self):
        with pytest.raises(DifferentialMismatch, match="time mismatch"):
            assert_identical(
                self.make_result(),
                self.make_result(failure_times_hours=[1.0, 2.0 + 1e-12]),
                "ctx",
            )

    def test_payload_mismatch_raises(self):
        # scheme_name is not field-compared, but it is serialised: a
        # pair differing only there survives the field checks and must
        # be caught by the canonical-payload comparison.
        with pytest.raises(DifferentialMismatch, match="payload JSON"):
            assert_identical(
                self.make_result(scheme_name="x"),
                self.make_result(scheme_name="y"),
                "ctx",
            )

    def test_int_years_normalised_at_construction(self):
        # LIFETIME_YEARS is the int 7; construction must coerce so a
        # fresh result and a checkpoint-rehydrated one serialise the
        # same payload bytes (--resume relies on it).
        fresh = self.make_result(years=7)
        rehydrated = self.make_result(years=7.0)
        assert json.dumps(fresh.to_payload()) == json.dumps(
            rehydrated.to_payload()
        )

    def test_report_is_frozen(self):
        report = DifferentialReport("x", 1, 0, 0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.failures = 5


class TestWilsonInterval:
    """The statistical primitive behind the analytical contract."""

    def test_matches_result_confidence_interval(self):
        result = ReliabilityResult(
            scheme_name="x",
            num_systems=5_000,
            years=7.0,
            failure_times_hours=[1.0] * 37,
            kinds=[FailureKind.DUE] * 37,
        )
        assert _wilson(37, 5_000) == pytest.approx(
            result.confidence_interval(), rel=1e-12
        )

    def test_zero_successes_contains_zero(self):
        low, high = _wilson(0, 10_000)
        assert low == 0.0 and 0.0 < high < 1e-3

    def test_interval_narrows_with_population(self):
        low_n = _wilson(10, 1_000)
        high_n = _wilson(100, 10_000)
        assert (high_n[1] - high_n[0]) < (low_n[1] - low_n[0])

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            _wilson(0, 0)

    def test_check_inside_and_str(self):
        inside = WilsonCheck(
            scheme_name="XED",
            quantity="total",
            analytical=0.01,
            monte_carlo=0.011,
            ci_low=0.009,
            ci_high=0.013,
            num_systems=100_000,
        )
        outside = dataclasses.replace(inside, analytical=0.02)
        assert inside.inside and not outside.inside
        assert "total" in str(inside) and "XED" in str(inside)


class TestAnalyticalCrossValidation:
    """The analytical solver vs Monte-Carlo, per the theory.md contract.

    These are the acceptance checks for the ``analytical`` backend:
    for every scheme the closed-form total/DUE/SDC probabilities must
    sit inside the Wilson score interval of a 200K-system vectorized
    Monte-Carlo run of the identical configuration.
    """

    CONFIG = MonteCarloConfig(num_systems=200_000, seed=2016)

    @pytest.mark.parametrize(
        "make_scheme", ALL_SCHEMES, ids=SCHEME_IDS
    )
    def test_all_schemes_within_wilson(self, make_scheme):
        checks = cross_validate_analytical(make_scheme(), self.CONFIG)
        assert len(checks) == 3  # total, due, sdc
        assert all(c.inside for c in checks)

    def test_grid_fit_scales(self):
        checks = cross_validate_grid(
            [ChipkillScheme()], self.CONFIG, fit_scales=(1.0, 4.0)
        )
        assert {c.fit_scale for c in checks} == {1.0, 4.0}
        assert all(c.inside for c in checks)

    def test_scrubbed_cell_within_wilson(self):
        config = dataclasses.replace(self.CONFIG, scrub_hours=168.0)
        checks = cross_validate_analytical(XedScheme(), config)
        assert all(c.scrub_hours == 168.0 for c in checks)
        assert all(c.inside for c in checks)

    def test_mismatch_lists_violations(self):
        # A near-zero z collapses the interval to the Monte-Carlo
        # point estimate, which the exact solver will not hit --
        # exercising the failure path that reports which quantities
        # fell outside their intervals.
        small = dataclasses.replace(
            self.CONFIG,
            num_systems=20_000,
            fit=self.CONFIG.fit.scaled(10.0),
        )
        with pytest.raises(AnalyticalMismatch) as excinfo:
            cross_validate_analytical(ChipkillScheme(), small, z=1e-9)
        assert "Wilson" in str(excinfo.value)
