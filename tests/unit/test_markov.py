"""Unit and property tests for the analytical Markov backend.

Three layers, mirroring docs/theory.md:

* matrix construction -- state-space enumeration, row stochasticity of
  the arrival matrix, probability conservation through the scrub
  (repair) matrix;
* solver behaviour -- monotone cumulative curves, mechanism
  decomposition that sums to the totals, hypothesis properties (DUE
  monotone in the FIT scale, scrub-interval ordering and limits);
* the result surface -- :class:`MarkovResult` duck-compatibility with
  the Monte-Carlo :class:`ReliabilityResult` read API, dispatch
  through ``simulate()``, and the sweep/CLI entry points.

Numerical *agreement* with Monte-Carlo is asserted separately, in
``tests/unit/test_faultsim_differential.py`` (Wilson intervals).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.dram.geometry import ChipGeometry
from repro.faultsim import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    MonteCarloConfig,
    NonEccScheme,
    XedChipkillScheme,
    XedScheme,
    markov,
    simulate,
)
from repro.faultsim.markov import MarkovResult, solve, solve_many, sweep
from repro.faultsim.fault import FaultSpace
from repro.faultsim.schemes import ProtectionScheme
from repro.faultsim.vectorized import UnsupportedSchemeError

ALL_SCHEMES = [
    NonEccScheme(),
    EccDimmScheme(),
    XedScheme(),
    ChipkillScheme(),
    DoubleChipkillScheme(),
    XedChipkillScheme(),
]


def _spec_for(scheme, config=None):
    """Build the scheme's chain spec the way ``solve`` does."""
    config = config or MonteCarloConfig()
    space = FaultSpace.for_chip(
        ChipGeometry(device_width=config.device_width)
    )
    return markov._chain_spec(scheme, config.fit, space, 0.0)


class TestStateSpace:
    def test_threshold_one_single_state(self):
        assert markov._chain_states(1, scrubbed=False) == [(0, 0, 0, 0)]
        assert markov._chain_states(1, scrubbed=True) == [(0, 0, 0, 0)]

    def test_unscrubbed_enumeration(self):
        states = markov._chain_states(2, scrubbed=False)
        expected = (
            (markov._WIDE_PERM_CAP + 1)
            * (markov._WIDE_TRANS_CAP + 1)
            * (markov._NARROW_PERM_CAP + 1)
            * (markov._NARROW_TRANS_CAP + 1)
        )
        assert len(states) == expected == 324
        assert states[0] == (0, 0, 0, 0)
        assert len(set(states)) == len(states)

    def test_scrubbed_enumeration_splits_by_age(self):
        states = markov._chain_states(2, scrubbed=True)
        expected = (
            (markov._WIDE_PERM_CAP + 1)
            * (markov._WIDE_AGE_CAP + 1) ** 2
            * (markov._NARROW_PERM_CAP + 1)
            * (markov._NARROW_AGE_CAP + 1) ** 2
        )
        assert len(states) == expected == 288
        assert all(len(s) == 6 for s in states)


class TestMatrixConstruction:
    @pytest.mark.parametrize(
        "scheme", ALL_SCHEMES, ids=lambda s: type(s).__name__
    )
    def test_arrival_matrix_row_stochastic(self, scheme):
        spec = _spec_for(scheme)
        states = markov._chain_states(spec.threshold, scrubbed=False)
        A = markov._arrival_matrix(spec, states, dt=17.1, scrubbed=False)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert (A >= -1e-15).all()

    def test_arrival_matrix_scrubbed_row_stochastic(self):
        spec = _spec_for(XedScheme())
        states = markov._chain_states(spec.threshold, scrubbed=True)
        A = markov._arrival_matrix(spec, states, dt=12.0, scrubbed=True)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)

    def test_absorbing_states_stay_absorbed(self):
        spec = _spec_for(ChipkillScheme())
        states = markov._chain_states(spec.threshold, scrubbed=False)
        A = markov._arrival_matrix(spec, states, dt=17.1, scrubbed=False)
        n = len(states)
        for i in range(n, n + len(markov.MECHANISMS)):
            assert A[i, i] == 1.0
            assert A[i].sum() == 1.0

    @pytest.mark.parametrize("survive_p", [0.5, 0.75, 1.0])
    def test_repair_matrix_conserves_mass(self, survive_p):
        states = markov._chain_states(2, scrubbed=True)
        R = markov._repair_matrix(states, survive_p)
        np.testing.assert_allclose(R.sum(axis=1), 1.0, atol=1e-12)
        assert (R >= 0.0).all()

    def test_repair_matrix_ages_young_and_expires_old(self):
        states = markov._chain_states(2, scrubbed=True)
        idx = {s: i for i, s in enumerate(states)}
        R = markov._repair_matrix(states, 1.0)
        # survive_p=1: a young narrow transient becomes old...
        src = (0, 0, 0, 0, 1, 0)
        assert R[idx[src], idx[(0, 0, 0, 0, 0, 1)]] == 1.0
        # ...and an old one expires to empty.
        src = (0, 0, 0, 0, 0, 1)
        assert R[idx[src], idx[(0, 0, 0, 0, 0, 0)]] == 1.0

    def test_repair_matrix_leaves_permanents_alone(self):
        states = markov._chain_states(2, scrubbed=True)
        idx = {s: i for i, s in enumerate(states)}
        R = markov._repair_matrix(states, 0.5)
        src = (1, 0, 0, 3, 0, 0)  # wide + narrow permanents only
        assert R[idx[src], idx[src]] == 1.0


class TestSolver:
    def test_curve_monotone_and_anchored(self):
        result = solve(XedScheme(), MonteCarloConfig())
        probs = [p for _, p in result.curve_points]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert result.curve_points[-1] == (
            7.0,
            result.probability_of_failure,
        )

    @pytest.mark.parametrize(
        "scheme", ALL_SCHEMES, ids=lambda s: type(s).__name__
    )
    def test_mechanisms_sum_to_total(self, scheme):
        result = solve(scheme, MonteCarloConfig())
        assert result.probability_of_failure == pytest.approx(
            sum(result.mechanisms.values()), rel=1e-9
        )
        assert result.probability_of_failure == pytest.approx(
            result.due_probability + result.sdc_probability, rel=1e-9
        )

    def test_threshold_one_schemes_split(self):
        non_ecc = solve(NonEccScheme(), MonteCarloConfig())
        ecc = solve(EccDimmScheme(), MonteCarloConfig())
        # No-ECC has no detection, so every failure is silent...
        assert non_ecc.due_probability == 0.0
        assert non_ecc.sdc_probability == non_ecc.probability_of_failure
        # ...while ECC-DIMM detects most multi-bit faults (its SDC
        # fraction), turning the bulk of its failures into DUEs.
        assert 0.0 < ecc.sdc_probability < ecc.due_probability
        assert ecc.sdc_probability < non_ecc.sdc_probability

    def test_stronger_schemes_are_stronger(self):
        cfg = MonteCarloConfig()
        by_name = {
            type(s).__name__: solve(s, cfg).probability_of_failure
            for s in ALL_SCHEMES
        }
        assert by_name["XedScheme"] < by_name["EccDimmScheme"]
        assert by_name["XedChipkillScheme"] < by_name["ChipkillScheme"]
        assert by_name["DoubleChipkillScheme"] < by_name["ChipkillScheme"]

    def test_custom_scheme_rejected(self):
        class WeirdScheme(XedScheme):
            """A subclass whose evaluate() the chain cannot model."""

        with pytest.raises(UnsupportedSchemeError):
            solve(WeirdScheme(), MonteCarloConfig())

    def test_scaling_rate_feeds_promotion(self):
        base = solve(XedScheme(), MonteCarloConfig())
        scaled = solve(
            XedScheme(), MonteCarloConfig(scaling_rate=1e-4)
        )
        assert (
            scaled.probability_of_failure > base.probability_of_failure
        )

    @settings(max_examples=8, deadline=None)
    @given(
        low=st.floats(min_value=0.25, max_value=4.0),
        ratio=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_due_monotone_in_fit_scale(self, low, ratio):
        cfg = MonteCarloConfig()
        lo = solve(
            ChipkillScheme(),
            dataclasses.replace(cfg, fit=cfg.fit.scaled(low)),
        )
        hi = solve(
            ChipkillScheme(),
            dataclasses.replace(cfg, fit=cfg.fit.scaled(low * ratio)),
        )
        assert hi.due_probability >= lo.due_probability

    @settings(max_examples=6, deadline=None)
    @given(hours=st.sampled_from([12.0, 24.0, 72.0, 168.0]))
    def test_scrubbing_never_hurts(self, hours):
        no_scrub = solve(
            XedScheme(), MonteCarloConfig(scrub_hours=None)
        )
        scrubbed = solve(
            XedScheme(), MonteCarloConfig(scrub_hours=hours)
        )
        assert (
            scrubbed.probability_of_failure
            <= no_scrub.probability_of_failure
        )

    def test_scrub_interval_ordering(self):
        p = {
            hours: solve(
                XedScheme(), MonteCarloConfig(scrub_hours=hours)
            ).probability_of_failure
            for hours in (24.0, 168.0, None)
        }
        assert p[24.0] <= p[168.0] <= p[None]

    def test_scrub_longer_than_lifetime_matches_no_scrub(self):
        # A scrub that never fires inside the lifetime must reproduce
        # the unscrubbed answer up to quantization differences.
        years = 7.0
        huge = years * 8760.0 * 2.0
        no_scrub = solve(
            XedScheme(), MonteCarloConfig(scrub_hours=None, years=years)
        )
        idle = solve(
            XedScheme(), MonteCarloConfig(scrub_hours=huge, years=years)
        )
        assert idle.probability_of_failure == pytest.approx(
            no_scrub.probability_of_failure, rel=1e-3
        )

    def test_fractional_lifetime_grid(self):
        result = solve(XedScheme(), MonteCarloConfig(years=2.5))
        assert result.curve_points[-1][0] == 2.5
        assert [t for t, _ in result.curve_points] == [1.0, 2.0, 2.5]


class TestResultSurface:
    @pytest.fixture(scope="class")
    def result(self):
        return solve(XedScheme(), MonteCarloConfig(num_systems=100_000))

    def test_expected_counts(self, result):
        assert result.failures == int(
            round(result.probability_of_failure * 100_000)
        )
        assert result.due + result.sdc in (
            result.failures,
            result.failures - 1,
            result.failures + 1,
        )  # independent rounding

    def test_confidence_interval_degenerate(self, result):
        p = result.probability_of_failure
        assert result.confidence_interval() == (p, p)

    def test_probability_by_year_interpolates(self, result):
        assert result.probability_by_year(0.0) == 0.0
        one = result.probability_by_year(1.0)
        two = result.probability_by_year(2.0)
        mid = result.probability_by_year(1.5)
        assert one <= mid <= two
        assert mid == pytest.approx((one + two) / 2.0)
        # Beyond the grid: clamp to the final point.
        assert (
            result.probability_by_year(99.0)
            == result.probability_of_failure
        )

    def test_curve_default_years(self, result):
        curve = result.curve()
        assert [y for y, _ in curve] == list(range(1, 8))

    def test_improvement_over_monte_carlo_result(self, result):
        mc = simulate(
            EccDimmScheme(), MonteCarloConfig(num_systems=2_000, seed=7)
        )
        assert result.improvement_over(mc) > 1.0

    def test_format_summary_mentions_analytical(self, result):
        text = result.format_summary()
        assert "analytical" in text and "DUE" in text

    def test_format_mechanisms_ranked(self, result):
        lines = result.format_mechanisms().splitlines()
        assert "decomposition" in lines[0]
        shown = [float(line.split()[1]) for line in lines[1:]]
        assert shown == sorted(shown, reverse=True)

    def test_format_mechanisms_empty(self):
        empty = MarkovResult(
            scheme_name="None",
            years=7.0,
            num_systems=10,
            probability_of_failure=0.0,
            due_probability=0.0,
            sdc_probability=0.0,
        )
        assert "no failure mass" in empty.format_mechanisms()
        assert empty.improvement_over(empty) == math.inf
        assert empty.probability_by_year(3.0) == 0.0


class TestDispatchAndSweep:
    def test_simulate_dispatches_analytical(self):
        cfg = MonteCarloConfig(
            num_systems=123, faultsim_backend="analytical"
        )
        result = simulate(XedScheme(), cfg)
        assert isinstance(result, MarkovResult)
        assert result.num_systems == 123

    def test_solve_many_order(self):
        results = solve_many(
            [XedScheme(), ChipkillScheme()], MonteCarloConfig()
        )
        assert [r.scheme_name for r in results] == [
            XedScheme().name,
            ChipkillScheme().name,
        ]

    def test_sweep_grid_shape_and_monotonicity(self):
        cells = sweep(
            [XedScheme(), ChipkillScheme()],
            MonteCarloConfig(),
            fit_scales=(1.0, 4.0),
            scrub_hours=(None, 24.0),
        )
        assert len(cells) == 2 * 2 * 2
        xed = {
            (c.fit_scale, c.scrub_hours): c.result.probability_of_failure
            for c in cells
            if c.scheme_name == XedScheme().name
        }
        assert xed[(4.0, None)] > xed[(1.0, None)]
        assert xed[(4.0, 24.0)] < xed[(4.0, None)]

    def test_cli_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--schemes",
                "xed",
                "chipkill",
                "--fit-scales",
                "1",
                "4",
                "--scrub-hours",
                "none",
                "24",
                "--mechanisms",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.lower().count("xed") >= 4  # 2 scales x 2 scrubs
        assert "due_collision" in out
        assert "fit" in out.lower()

    def test_cli_sweep_rejects_bad_scrub(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--scrub-hours", "-3"])
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err
