"""Unit tests for RAID-3 parity math and catch-word management."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catch_word import CatchWordRegister, CollisionModel
from repro.core.parity import (
    parity_residue,
    reconstruct_line,
    reconstruct_word,
    xor_parity,
)

word_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=8, max_size=8
)


class TestParityEquations:
    @given(words=word_lists)
    def test_equation_1_parity_cancels(self, words):
        parity = xor_parity(words)
        assert parity_residue(words + [parity]) == 0

    @given(words=word_lists, chip=st.integers(0, 8))
    @settings(max_examples=200)
    def test_equation_3_reconstruction(self, words, chip):
        transfers = words + [xor_parity(words)]
        original = transfers[chip]
        transfers[chip] = 0xBAD0BAD0BAD0BAD0  # corrupt any one position
        assert reconstruct_word(transfers, chip) == original

    @given(words=word_lists)
    def test_equation_2_detects_single_corruption(self, words):
        transfers = words + [xor_parity(words)]
        transfers[3] ^= 0x1
        assert parity_residue(transfers) != 0

    def test_reconstruct_line_replaces_only_target(self):
        words = [1, 2, 3, 4, 5, 6, 7, 8]
        transfers = words + [xor_parity(words)]
        transfers[2] = 999
        fixed = reconstruct_line(transfers, 2)
        assert fixed[2] == 3
        assert fixed[:2] == [1, 2] and fixed[3:8] == [4, 5, 6, 7, 8]

    def test_reconstruct_bounds(self):
        with pytest.raises(IndexError):
            reconstruct_word([1, 2, 3], 3)


class TestCatchWordRegister:
    def test_generate_is_seeded_and_in_range(self):
        reg = CatchWordRegister(width_bits=64)
        value = reg.generate(random.Random(1))
        assert 0 <= value <= reg.mask
        again = CatchWordRegister(width_bits=64)
        assert again.generate(random.Random(1)) == value

    def test_matches_masks_width(self):
        reg = CatchWordRegister(width_bits=32)
        reg.value = 0x1234ABCD
        assert reg.matches(0x1234ABCD)
        assert not reg.matches(0x1234ABCE)

    def test_collision_rotates(self):
        reg = CatchWordRegister(width_bits=64)
        rng = random.Random(2)
        reg.generate(rng)
        old = reg.value
        reg.record_collision(rng)
        assert reg.value != old
        assert reg.collisions_seen == 1
        assert reg.rotations == 1


class TestCollisionModel:
    def test_paper_headline_numbers(self):
        x8 = CollisionModel(catch_word_bits=64)
        assert 2.5e6 < x8.mean_years_to_collision() < 4.0e6  # ~3.2M years
        x4 = CollisionModel(catch_word_bits=32)
        hours = x4.mean_years_to_collision() * 365.25 * 24
        assert 5.0 < hours < 8.5  # ~6.6 hours

    def test_stored_match_probability_is_2_pow_minus_37(self):
        model = CollisionModel(catch_word_bits=64)
        assert model.per_chip_stored_match_probability == pytest.approx(
            2.0 ** -37
        )

    def test_probability_monotone_in_time(self):
        model = CollisionModel(catch_word_bits=32)
        curve = model.probability_curve([0.001, 0.01, 0.1, 1.0, 10.0])
        probs = [p for _, p in curve]
        assert probs == sorted(probs)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_tiny_probabilities_not_lost_to_roundoff(self):
        model = CollisionModel(catch_word_bits=64)
        p = model.collision_probability(1.0)
        assert p > 0.0  # expm1/log1p path keeps ~3e-7 alive

    def test_probability_saturates(self):
        model = CollisionModel(catch_word_bits=32)
        assert model.collision_probability(1e4) == pytest.approx(1.0)

    def test_mean_matches_probability_scale(self):
        model = CollisionModel(catch_word_bits=32)
        mean = model.mean_years_to_collision()
        # At one mean lifetime, P(collision) = 1 - 1/e.
        assert model.collision_probability(mean) == pytest.approx(
            1 - math.exp(-1), rel=0.01
        )

    def test_conservative_4ns_assumption_supported(self):
        model = CollisionModel(catch_word_bits=64, write_interval_s=4e-9)
        # 2^64 * 4ns ~ 2338 years: the raw footnote arithmetic.
        assert 2000 < model.mean_years_to_collision() < 2700

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CollisionModel(catch_word_bits=0)
        with pytest.raises(ValueError):
            CollisionModel(write_interval_s=0.0)
        with pytest.raises(ValueError):
            CollisionModel().collision_probability(-1.0)
