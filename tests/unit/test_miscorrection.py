"""Unit tests for the SECDED miscorrection profiling."""

import random

import numpy as np
import pytest

from repro import mtwords
from repro.ecc import CRC8ATMCode, HammingSECDED, miscorrection
from repro.ecc.miscorrection import (
    MiscorrectionProfile,
    hamming_chip_error_sdc_fraction,
    lane_error_positions,
    measure_lane_error_profile,
)
from repro.faultsim.schemes import EccDimmScheme


def _drawn_positions(code, lane, lane_bits, samples, seed):
    """The rows the ``random.randint``/``random.sample`` calls draw."""
    rng = random.Random(seed)
    rng.getrandbits(code.k)
    base = lane * lane_bits
    positions = np.full((samples, lane_bits), code.n, dtype=np.int64)
    for i in range(samples):
        weight = rng.randint(2, lane_bits)
        for j, bit in enumerate(rng.sample(range(lane_bits), weight)):
            positions[i, j] = base + bit
    return positions


class TestWordReplay:
    """The replay from pulled words against the calls it replaces."""

    #: Every sample takes at least three words, so 2,000 samples take
    #: more than one pull.
    SAMPLES = 2000

    @pytest.fixture()
    def pulls(self, monkeypatch):
        counts = []

        def counted(rng, count):
            counts.append(count)
            return mtwords.pull_words(rng, count)

        monkeypatch.setattr(miscorrection, "pull_words", counted)
        return counts

    @pytest.mark.parametrize("code", [HammingSECDED(), CRC8ATMCode()],
                             ids=["hamming", "crc8"])
    @pytest.mark.parametrize("seed", [1, 7, 2016])
    @pytest.mark.parametrize("lane", [0, 3])
    @pytest.mark.parametrize("lane_bits", [4, 8])
    def test_positions_equal_the_drawn_ones(
        self, pulls, code, seed, lane, lane_bits
    ):
        replayed = lane_error_positions(
            code, lane, lane_bits, self.SAMPLES, seed
        )
        assert len(pulls) > 1
        assert np.array_equal(
            replayed,
            _drawn_positions(code, lane, lane_bits, self.SAMPLES, seed),
        )

    @pytest.mark.parametrize("lane_bits", [2, 16, 21])
    def test_every_width_of_the_pool_branch(self, lane_bits):
        code = HammingSECDED()
        assert np.array_equal(
            lane_error_positions(code, 0, lane_bits, 500, 7),
            _drawn_positions(code, 0, lane_bits, 500, 7),
        )

    @pytest.mark.parametrize("lane_bits", [1, 22])
    def test_widths_beyond_the_pool_branch_are_refused(self, lane_bits):
        with pytest.raises(ValueError, match="lane_bits"):
            lane_error_positions(HammingSECDED(), lane_bits=lane_bits)

    def test_pinned_hamming_sdc_fraction(self):
        assert hamming_chip_error_sdc_fraction() == 0.44275000000000003


class TestProfileMeasurement:
    def test_profile_sums_to_one(self):
        p = measure_lane_error_profile(HammingSECDED(), samples=3000)
        assert p.detected + p.miscorrected + p.silent == pytest.approx(1.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MiscorrectionProfile(0.5, 0.5, 0.5)

    def test_deterministic_given_seed(self):
        a = measure_lane_error_profile(HammingSECDED(), samples=2000, seed=1)
        b = measure_lane_error_profile(HammingSECDED(), samples=2000, seed=1)
        assert a == b

    def test_crc8_detects_more_lane_errors_than_hamming(self):
        """The Table-II ordering carries into the miscorrection study:
        a degree-8 CRC detects every in-lane burst that Hamming
        miscorrects."""
        ham = measure_lane_error_profile(HammingSECDED(), samples=6000)
        crc = measure_lane_error_profile(CRC8ATMCode(), samples=6000)
        assert crc.detected > ham.detected
        assert crc.silent == 0.0  # no lane error is a CRC8 codeword

    def test_lane_choice_does_not_change_story(self):
        lane0 = measure_lane_error_profile(HammingSECDED(), lane=0, samples=4000)
        lane7 = measure_lane_error_profile(HammingSECDED(), lane=7, samples=4000)
        assert lane0.sdc_fraction == pytest.approx(
            lane7.sdc_fraction, abs=0.15
        )

    def test_hamming_sdc_fraction_band(self):
        frac = hamming_chip_error_sdc_fraction(10000)
        assert 0.3 < frac < 0.6


class TestSchemeIntegration:
    def test_ecc_dimm_defaults_to_measured_fraction(self):
        scheme = EccDimmScheme()
        assert scheme.sdc_fraction == pytest.approx(
            hamming_chip_error_sdc_fraction(), abs=1e-12
        )

    def test_override_still_supported(self):
        assert EccDimmScheme(sdc_fraction=0.1).sdc_fraction == 0.1


class TestBackendEquality:
    """The batched measurement against the scalar-decoder reference."""

    def test_profiles_bit_identical_across_backends(
        self, scalar_lane_profile
    ):
        """Kernel and scalar decoder classify the identical sample set."""
        for code in (HammingSECDED(), CRC8ATMCode()):
            assert measure_lane_error_profile(
                code, samples=4000
            ) == scalar_lane_profile(code, samples=4000)

    def test_lane_and_width_respected_by_batched(self, scalar_lane_profile):
        batched = measure_lane_error_profile(
            HammingSECDED(), lane=3, lane_bits=4, samples=3000
        )
        assert batched == scalar_lane_profile(
            HammingSECDED(), lane=3, lane_bits=4, samples=3000
        )

    def test_sdc_fraction_backend_invariant(self, scalar_lane_profile):
        assert hamming_chip_error_sdc_fraction(8000) == scalar_lane_profile(
            HammingSECDED(), samples=8000
        ).sdc_fraction

    def test_unknown_backend_rejected(self):
        """No backend switch exists, so any value is refused."""
        with pytest.raises(TypeError):
            measure_lane_error_profile(
                HammingSECDED(), samples=100, backend="turbo"
            )
