"""Unit tests for the (72,64) SECDED codes: Hamming and CRC8-ATM.

The parametrised ``secded_code`` fixture runs shared SECDED contracts
against both implementations; code-specific classes pin down the
properties that make CRC8-ATM the paper's recommended on-die code.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.crc8 import CRC8ATMCode, CRC8_ATM_POLY, _poly_mod
from repro.ecc.hamming import HammingSECDED
from repro.ecc.secded import DecodeOutcome, popcount

data64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
bitpos = st.integers(min_value=0, max_value=71)


class TestSharedSECDEDContract:
    """Properties any (72,64) SECDED code must satisfy."""

    @given(data=data64)
    @settings(max_examples=150)
    def test_roundtrip(self, secded_code, data):
        result = secded_code.decode(secded_code.encode(data))
        assert result.outcome is DecodeOutcome.CLEAN
        assert result.data == data

    @given(data=data64, bit=bitpos)
    @settings(max_examples=200)
    def test_single_bit_corrected(self, secded_code, data, bit):
        word = secded_code.encode(data) ^ (1 << bit)
        result = secded_code.decode(word)
        assert result.outcome is DecodeOutcome.CORRECTED
        assert result.data == data
        assert result.corrected_bit == bit

    def test_every_single_bit_position_exhaustive(self, secded_code):
        data = 0xDEADBEEF12345678
        cw = secded_code.encode(data)
        for bit in range(72):
            result = secded_code.decode(cw ^ (1 << bit))
            assert result.outcome is DecodeOutcome.CORRECTED
            assert result.data == data

    @given(data=data64, b1=bitpos, b2=bitpos)
    @settings(max_examples=200)
    def test_double_bit_detected_never_miscorrected(self, secded_code, data, b1, b2):
        if b1 == b2:
            return
        word = secded_code.encode(data) ^ (1 << b1) ^ (1 << b2)
        result = secded_code.decode(word)
        assert result.outcome is DecodeOutcome.DETECTED_UNCORRECTABLE

    def test_zero_and_ones_boundary_values(self, secded_code):
        for data in (0, (1 << 64) - 1, 1, 1 << 63):
            result = secded_code.decode(secded_code.encode(data))
            assert result.outcome is DecodeOutcome.CLEAN
            assert result.data == data

    def test_encode_rejects_oversized_data(self, secded_code):
        with pytest.raises(ValueError):
            secded_code.encode(1 << 64)

    def test_decode_rejects_oversized_word(self, secded_code):
        with pytest.raises(ValueError):
            secded_code.decode(1 << 72)

    def test_is_codeword_rejects_oversized_word(self, secded_code):
        """Regression: is_codeword used to silently truncate wide words.

        ``CRC8ATMCode.is_codeword(1 << 100)`` reported True (the
        byte-folding remainder ignores bits above degree 71) and the
        Hamming implementation masked high bits away; both must validate
        input width exactly like ``encode``/``decode`` do.
        """
        for word in (1 << 72, 1 << 100, (1 << 73) | 1, -1):
            with pytest.raises(ValueError):
                secded_code.is_codeword(word)

    def test_is_codeword_accepts_boundary_words(self, secded_code):
        assert secded_code.is_codeword(secded_code.encode((1 << 64) - 1))
        assert secded_code.is_codeword(0)
        # The top in-range word must be judged, not rejected.
        secded_code.is_codeword((1 << 72) - 1)

    @given(data=data64)
    @settings(max_examples=50)
    def test_codeword_space_is_linear(self, secded_code, data):
        # c(a) ^ c(b) must be a codeword for linear codes.
        other = 0x0F0F_F0F0_1234_5678
        xor = secded_code.encode(data) ^ secded_code.encode(other)
        assert secded_code.is_codeword(xor)

    @given(data=data64)
    @settings(max_examples=50)
    def test_distinct_data_distinct_codewords(self, secded_code, data):
        if data != 42:
            assert secded_code.encode(data) != secded_code.encode(42)


class TestHammingSpecifics:
    def test_check_positions_are_powers_of_two(self, hamming):
        assert HammingSECDED.CHECK_POSITIONS == (1, 2, 4, 8, 16, 32, 64)

    def test_parity_bit_only_error(self, hamming):
        data = 0x123456789ABCDEF0
        word = hamming.encode(data) ^ (1 << HammingSECDED.PARITY_BIT)
        result = hamming.decode(word)
        assert result.outcome is DecodeOutcome.CORRECTED
        assert result.corrected_bit == HammingSECDED.PARITY_BIT
        assert result.data == data

    def test_syndrome_of_clean_word_is_zero(self, hamming):
        assert hamming._syndrome(hamming.encode(0xABCDEF)) == 0

    def test_weak_on_some_even_weight_patterns(self, hamming):
        """The Table-II weakness: some multi-bit patterns are codewords."""
        undetected = 0
        rng = random.Random(1)
        for _ in range(30000):
            bits = rng.sample(range(72), 4)
            pattern = sum(1 << b for b in bits)
            if hamming.is_codeword(pattern):
                undetected += 1
        assert undetected > 0  # Hamming misses some weight-4 patterns

    def test_odd_weight_always_detected(self, hamming):
        rng = random.Random(2)
        for weight in (3, 5, 7):
            for _ in range(2000):
                bits = rng.sample(range(72), weight)
                assert not hamming.is_codeword(sum(1 << b for b in bits))


class TestCRC8Specifics:
    def test_polynomial_constant(self):
        assert CRC8_ATM_POLY == 0x107  # x^8 + x^2 + x + 1

    def test_rejects_wrong_degree_polynomial(self):
        with pytest.raises(ValueError):
            CRC8ATMCode(poly=0x7)
        with pytest.raises(ValueError):
            CRC8ATMCode(poly=0x207)

    def test_syndrome_table_is_injective(self, crc8):
        syndromes = set(crc8._bit_syndrome)
        assert len(syndromes) == 72
        assert 0 not in syndromes

    def test_remainder_matches_reference_bitwise_division(self, crc8):
        rng = random.Random(3)
        for _ in range(500):
            word = rng.getrandbits(72)
            assert crc8._remainder(word) == _poly_mod(word, 72, crc8.poly)

    def test_all_bursts_up_to_8_detected(self, crc8):
        """The degree-8 CRC burst guarantee behind Table II's 100%s."""
        for length in range(1, 9):
            for inner in range(1 << max(0, length - 2)):
                # A burst of `length` has fixed endpoints, free interior.
                pattern = (1 << (length - 1)) | 1 if length > 1 else 1
                pattern |= inner << 1
                for start in range(72 - length + 1):
                    assert not crc8.is_codeword(pattern << start)

    def test_odd_weight_always_detected(self, crc8):
        """The (x+1) factor: every codeword has even weight."""
        rng = random.Random(4)
        for weight in (1, 3, 5, 7):
            for _ in range(2000):
                bits = rng.sample(range(72), weight)
                assert not crc8.is_codeword(sum(1 << b for b in bits))

    def test_even_weight_detection_about_99_percent(self, crc8):
        rng = random.Random(5)
        misses = 0
        trials = 40000
        for _ in range(trials):
            bits = rng.sample(range(72), 4)
            if crc8.is_codeword(sum(1 << b for b in bits)):
                misses += 1
        # Expected miss rate ~2^-7 = 0.78%; allow a generous band.
        assert 0.001 < misses / trials < 0.02

    def test_no_weight3_codewords_so_secded_is_sound(self, crc8):
        """No double error can alias a single error's syndrome."""
        single = set(crc8._bit_syndrome)
        for b1, b2 in itertools.combinations(range(72), 2):
            synd = crc8._bit_syndrome[b1] ^ crc8._bit_syndrome[b2]
            assert synd not in single


class TestBitHelpers:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0xFF) == 8
        assert popcount(1 << 71) == 1
