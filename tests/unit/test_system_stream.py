"""Contract of the per-system draw stream (Philox4x64-10).

A Monte-Carlo system's k-th probabilistic draw is a pure function of
``(experiment seed, global system index, k)``.  The reference walks it
one ``system_rng(seed, index).random()`` at a time, on numpy's own
``Philox`` bit generator; the batch kernels evaluate it for whole
arrays through the hand-vectorised :func:`philox4x64`.  These tests
pin the two to each other and to numpy, bit for bit.
"""

import random

import numpy as np
import pytest

from repro.faultsim.vectorized import (
    philox4x64,
    system_rng,
    system_uniforms,
)

MASK64 = (1 << 64) - 1


def _words(value: int, n: int):
    """``value`` as ``n`` little-endian 64-bit words."""
    return [(value >> (64 * i)) & MASK64 for i in range(n)]


def _random_counter(rng: random.Random):
    """A 4-word counter, often at a carry edge."""
    words = [rng.getrandbits(64) for _ in range(4)]
    for i in range(3):
        if rng.random() < 0.25:
            words[i] = MASK64
        else:
            break
    return words


class TestVectorisedPhilox:
    def test_matches_numpy_philox_at_next_counter(self):
        rng = random.Random(20160618)
        pairs = [
            ([rng.getrandbits(64) for _ in range(2)], _random_counter(rng))
            for _ in range(64)
        ]
        pairs.append(([0, 0], [0, 0, 0, 0]))
        pairs.append(([MASK64, MASK64], [MASK64] * 4))
        for key, counter in pairs:
            expected = np.random.Philox(
                key=np.array(key, dtype=np.uint64),
                counter=np.array(counter, dtype=np.uint64),
            ).random_raw(4)
            # numpy increments the 256-bit counter before generating.
            value = sum(w << (64 * i) for i, w in enumerate(counter)) + 1
            bumped = _words(value & ((1 << 256) - 1), 4)
            got = philox4x64(
                tuple(np.array([w], dtype=np.uint64) for w in bumped),
                (key[0], key[1]),
            )
            assert got.shape == (4, 1)
            assert got[:, 0].tolist() == expected.tolist(), (key, counter)

    def test_whole_array_equals_elementwise(self):
        rng = random.Random(7)
        counters = [_random_counter(rng) for _ in range(40)]
        key = (rng.getrandbits(64), rng.getrandbits(64))
        columns = tuple(
            np.array([c[i] for c in counters], dtype=np.uint64)
            for i in range(4)
        )
        batch = philox4x64(columns, key)
        for j, counter in enumerate(counters):
            one = philox4x64(
                tuple(np.array([w], dtype=np.uint64) for w in counter), key
            )
            assert batch[:, j].tolist() == one[:, 0].tolist()

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.uint64)
        assert philox4x64((empty,) * 4, (1, 2)).shape == (4, 0)
        assert system_uniforms(2016, empty, empty).size == 0


def _scalar_draw(seed: int, index: int, k: int) -> float:
    stream = system_rng(seed, index)
    for _ in range(k):
        stream.random()
    return stream.random()


class TestStreamAgreesWithArrays:
    SEEDS = [0, 1, 2016, 2**32 + 5, 2**64 + 17, 3 * 2**70 + 1]
    INDICES = [0, 1, 999_999, 2**31 - 1, 2**32, 2**32 + 7, 2**40 + 3]
    DRAWS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 13]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kth_draw_equals_array_function(self, seed):
        index = np.array(
            [i for i in self.INDICES for _ in self.DRAWS], dtype=np.uint64
        )
        draws = np.array(
            [k for _ in self.INDICES for k in self.DRAWS], dtype=np.int64
        )
        batch = system_uniforms(seed, index, draws)
        for u, i, k in zip(batch.tolist(), index.tolist(), draws.tolist()):
            assert u == _scalar_draw(seed, i, k), (seed, i, k)

    def test_random_triples(self):
        rng = random.Random(99)
        for _ in range(60):
            seed = rng.choice([0, rng.getrandbits(16), rng.getrandbits(80)])
            index = rng.getrandbits(rng.choice([8, 20, 36, 63]))
            k = rng.randrange(0, 12)
            got = system_uniforms(seed, np.array([index]), np.array([k]))
            assert got[0] == _scalar_draw(seed, index, k), (seed, index, k)

    def test_one_stream_walks_every_block_in_order(self):
        stream = system_rng(2016, 2**33)
        walked = [stream.random() for _ in range(17)]
        batch = system_uniforms(2016, np.full(17, 2**33), np.arange(17))
        assert walked == batch.tolist()

    def test_draws_are_53_bit_uniforms(self):
        u = system_uniforms(5, np.arange(4000), np.arange(4000) % 9)
        assert ((u >= 0.0) & (u < 1.0)).all()
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
        assert 0.45 < u.mean() < 0.55

    def test_streams_depend_on_seed_and_index(self):
        first = _scalar_draw(2016, 10, 0)
        assert first != _scalar_draw(2017, 10, 0)
        assert first != _scalar_draw(2016, 11, 0)
        assert first == _scalar_draw(2016, 10, 0)
