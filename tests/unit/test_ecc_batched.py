"""Unit tests for the batched bit-matrix ECC kernels.

These cover the batched layer's own contracts (shapes, validation, the
matrix export, the no-op pad position, RS syndromes); the scalar-vs-
batched bit-identity proof lives in ``test_ecc_differential.py`` and the
property suite in ``test_ecc_properties.py``.
"""

import random

import numpy as np
import pytest

from repro.ecc.batched import (
    BatchOutcome,
    BatchedRSSyndromes,
    bits_to_words,
    int_to_bits,
    words_to_bits,
)
from repro.ecc.secded import SECDEDCode


class TestBitConversions:
    def test_int_to_bits_layout(self):
        bits = int_to_bits(0b1011, 8)
        assert bits.tolist() == [1, 1, 0, 1, 0, 0, 0, 0]

    def test_roundtrip_random_words(self):
        rng = random.Random(11)
        words = [rng.getrandbits(72) for _ in range(100)]
        assert bits_to_words(words_to_bits(words, 72)) == words

    def test_rejects_oversized_word(self):
        with pytest.raises(ValueError):
            words_to_bits([1 << 72], 72)
        with pytest.raises(ValueError):
            words_to_bits([1 << 100], 72)

    def test_rejects_negative_word(self):
        with pytest.raises((ValueError, OverflowError)):
            words_to_bits([-1], 72)

    def test_non_byte_multiple_width(self):
        words = [0b10101, 0b11111, 0]
        assert bits_to_words(words_to_bits(words, 5)) == words
        with pytest.raises(ValueError):
            words_to_bits([1 << 5], 5)


class TestMatrixExport:
    def test_matrices_shapes(self, secded_code):
        m = secded_code.to_matrices()
        assert m.G.shape == (64, 72)
        assert m.H.shape == (8, 72)
        assert m.num_syndrome_bits == 8
        assert m.syndrome_lut.shape == (256,)
        assert m.data_columns.shape == (64,)

    def test_matrices_are_read_only(self, secded_code):
        m = secded_code.to_matrices()
        for arr in (m.G, m.H, m.syndrome_lut, m.data_columns):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_generator_rows_are_scalar_encodings(self, secded_code):
        m = secded_code.to_matrices()
        for i in (0, 17, 63):
            expected = int_to_bits(secded_code.encode(1 << i), 72)
            assert np.array_equal(m.G[i], expected)

    def test_lut_covers_every_bit_position(self, secded_code):
        m = secded_code.to_matrices()
        corrected = sorted(int(b) for b in m.syndrome_lut if b >= 0)
        assert corrected == list(range(72))

    def test_base_to_matrices_is_abstract(self):
        class Opaque(SECDEDCode):
            n = 72
            k = 64

        with pytest.raises(NotImplementedError):
            Opaque().to_matrices()

    def test_batched_is_cached(self, secded_code):
        assert secded_code.batched() is secded_code.batched()


class TestBatchedKernels:
    def test_encode_matches_scalar(self, secded_code):
        batched = secded_code.batched()
        rng = random.Random(23)
        data = [rng.getrandbits(64) for _ in range(64)]
        codewords = bits_to_words(batched.encode(words_to_bits(data, 64)))
        assert codewords == [secded_code.encode(d) for d in data]

    def test_is_codeword_matches_scalar(self, secded_code):
        batched = secded_code.batched()
        rng = random.Random(29)
        words = [secded_code.encode(rng.getrandbits(64)) for _ in range(20)]
        words += [w ^ (1 << rng.randrange(72)) for w in words[:10]]
        valid = batched.is_codeword(words_to_bits(words, 72))
        assert valid.tolist() == [secded_code.is_codeword(w) for w in words]

    def test_shape_validation(self, secded_code):
        batched = secded_code.batched()
        with pytest.raises(ValueError):
            batched.encode(np.zeros((3, 72), dtype=np.uint8))
        with pytest.raises(ValueError):
            batched.syndromes(np.zeros((3, 64), dtype=np.uint8))
        with pytest.raises(ValueError):
            batched.syndromes_of_error_positions(np.zeros(5, dtype=np.int64))

    def test_position_pad_is_a_noop(self, secded_code):
        batched = secded_code.batched()
        plain = np.array([[3, 40]], dtype=np.int64)
        padded = np.array([[3, 40, 72, 72]], dtype=np.int64)
        assert (
            batched.syndromes_of_error_positions(plain)
            == batched.syndromes_of_error_positions(padded)
        ).all()

    def test_position_bounds_checked(self, secded_code):
        batched = secded_code.batched()
        with pytest.raises(ValueError):
            batched.syndromes_of_error_positions(
                np.array([[73]], dtype=np.int64)
            )
        with pytest.raises(ValueError):
            batched.syndromes_of_error_positions(
                np.array([[-1]], dtype=np.int64)
            )

    def test_outcomes_of_error_positions(self, secded_code):
        batched = secded_code.batched()
        # Single-bit: always corrected.  Padded-out row: no error.
        positions = np.array([[5, 72], [72, 72]], dtype=np.int64)
        outcomes = batched.outcomes_of_error_positions(positions)
        assert outcomes[0] == BatchOutcome.CORRECTED
        assert outcomes[1] == BatchOutcome.NO_ERROR


class TestBatchedRSSyndromes:
    @pytest.fixture(params=["rs_chipkill", "rs_double_chipkill"])
    def rs(self, request):
        return request.getfixturevalue(request.param)

    def test_syndromes_match_scalar(self, rs):
        batched = BatchedRSSyndromes(rs)
        rng = random.Random(37)
        rows = []
        for _ in range(50):
            word = list(rs.encode([rng.randrange(rs.field.size)
                                   for _ in range(rs.k)]))
            for _ in range(rng.randrange(3)):
                word[rng.randrange(rs.n)] ^= rng.randrange(1, rs.field.size)
            rows.append(word)
        batch = batched.syndromes(np.array(rows, dtype=np.int64))
        for i, word in enumerate(rows):
            assert batch[i].tolist() == rs.syndromes(word)

    def test_is_codeword(self, rs):
        batched = BatchedRSSyndromes(rs)
        clean = list(rs.encode([7] * rs.k))
        corrupt = list(clean)
        corrupt[0] ^= 1
        valid = batched.is_codeword(np.array([clean, corrupt], dtype=np.int64))
        assert valid.tolist() == [True, False]

    def test_rejects_bad_shapes_and_symbols(self, rs):
        batched = BatchedRSSyndromes(rs)
        with pytest.raises(ValueError):
            batched.syndromes(np.zeros(rs.n, dtype=np.int64))
        with pytest.raises(ValueError):
            batched.syndromes(
                np.full((1, rs.n), rs.field.size, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            batched.syndromes(np.full((1, rs.n), -1, dtype=np.int64))


class TestInstrumentation:
    """The OBS-enabled paths: counters, batch-size histogram, spans."""

    @pytest.fixture(autouse=True)
    def _obs(self):
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        yield OBS
        OBS.disable()
        OBS.reset()

    @pytest.fixture
    def batched(self):
        from repro.ecc import HammingSECDED

        return HammingSECDED().batched()

    def test_encode_decode_counters_and_spans(self, _obs, batched):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(40, batched.k), dtype=np.uint8)
        words = batched.encode(data)
        batched.decode(words)
        batched.is_codeword(words)
        snap = _obs.registry.snapshot()
        assert snap["counters"]["ecc.batched.encoded_words"] == 40
        assert snap["counters"]["ecc.batched.decoded_words"] == 40
        assert snap["counters"]["ecc.batched.checked_words"] == 40
        assert snap["histograms"]["ecc.batched.batch_words"]["count"] == 2
        assert snap["timers"]["ecc.batched.encode_s"]["count"] == 1
        assert snap["timers"]["ecc.batched.decode_s"]["count"] == 1

    def test_disabled_records_nothing(self, _obs, batched):
        _obs.disable()
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=(8, batched.k), dtype=np.uint8)
        batched.decode(batched.encode(data))
        counters = _obs.registry.snapshot()["counters"]
        assert all(v == 0 for v in counters.values())

    def test_rs_syndromes_counter(self, _obs):
        from repro.ecc import ReedSolomonCode

        rs = ReedSolomonCode.chipkill(16)
        batched = BatchedRSSyndromes(rs)
        clean = list(rs.encode([7] * rs.k))
        batched.syndromes(np.array([clean, clean], dtype=np.int64))
        snap = _obs.registry.snapshot()
        assert snap["counters"]["ecc.batched.rs_words"] == 2
        assert snap["histograms"]["ecc.batched.batch_words"]["count"] == 1
