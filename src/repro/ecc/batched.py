"""Batched bit-matrix ECC kernels: whole-array encode and decode.

The scalar codecs in :mod:`repro.ecc.hamming` and :mod:`repro.ecc.crc8`
process one 72-bit Python integer at a time -- perfect for the
behavioural chip model, but a per-codeword interpreter tax on the
paper-scale sweeps (Table II detection rates, the miscorrection study
feeding Figure 1's DUE/SDC split).  This module evaluates whole
``(N, 72)``-shaped batches of codewords as numpy bit-matrix operations
instead: encoding is one GF(2) matrix product with the generator matrix
``G``, syndrome decoding one product with the parity-check matrix ``H``
plus a syndrome-indexed lookup table.

The kernels are *derived from*, never parallel re-implementations of,
the scalar codes: every scalar code exports its matrices through
``to_matrices()`` (see :meth:`repro.ecc.secded.SECDEDCode.to_matrices`),
where ``G`` rows are scalar ``encode()`` outputs of unit data vectors,
``H`` rows are the scalar decoder's own syndrome masks, and the
correction LUT is populated -- and cross-checked -- against scalar
``decode()`` of every single-bit error pattern.  The differential
harness in :mod:`repro.ecc.differential` replays arbitrary batches
through the kernels and the scalar codecs and asserts bit-identical
outcomes.

Bit convention: a batch is a ``(N, n)`` uint8 array whose column ``i``
holds codeword bit ``i`` -- the array twin of "bit ``i`` of the integer
is codeword bit ``i``" used by the scalar codes.  Use
:func:`words_to_bits` / :func:`bits_to_words` to cross between the two
representations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, TYPE_CHECKING

import numpy as np

from repro.ecc.secded import DecodeOutcome
from repro.obs import OBS, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ecc.reed_solomon import ReedSolomonCode
    from repro.ecc.secded import SECDEDCode

#: Bucket bounds of the ``ecc.batched.batch_words`` histogram: tiny
#: batches mean the caller is paying dispatch overhead per word, which
#: is exactly what the batched kernels exist to amortise.
_BATCH_BUCKETS = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)


def _observe_batch(num_words: int) -> None:
    """Record one kernel invocation's batch size (enabled paths only)."""
    OBS.registry.histogram(
        "ecc.batched.batch_words", buckets=_BATCH_BUCKETS
    ).observe(float(num_words))


class BatchOutcome(enum.IntEnum):
    """Per-word outcome codes of the batched kernels.

    The values mirror :class:`repro.ecc.secded.DecodeOutcome`: what the
    decoder alone can know.
    """

    NO_ERROR = 0
    CORRECTED = 1
    DETECTED_UNCORRECTABLE = 2


#: Scalar decode outcome -> batched outcome code.
OUTCOME_CODE = {
    DecodeOutcome.CLEAN: BatchOutcome.NO_ERROR,
    DecodeOutcome.CORRECTED: BatchOutcome.CORRECTED,
    DecodeOutcome.DETECTED_UNCORRECTABLE: BatchOutcome.DETECTED_UNCORRECTABLE,
}

# ---------------------------------------------------------------------------
# Integer <-> bit-array conversions
# ---------------------------------------------------------------------------

def int_to_bits(word: int, n: int) -> np.ndarray:
    """Bits of ``word`` as a length-``n`` uint8 array (bit i -> column i)."""
    return words_to_bits([word], n)[0]


def words_to_bits(words: Sequence[int], n: int) -> np.ndarray:
    """Convert integers to a ``(N, n)`` uint8 bit batch.

    Words must be non-negative and fit in ``n`` bits rounded up to whole
    bytes; out-of-range values raise ``ValueError`` (the array analogue
    of the scalar codes' codeword-width validation).
    """
    nbytes = (n + 7) // 8
    try:
        buf = b"".join(int(w).to_bytes(nbytes, "little") for w in words)
    except OverflowError as exc:
        raise ValueError(f"word does not fit in {n} bits") from exc
    flat = np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes)
    bits = np.unpackbits(flat, axis=1, bitorder="little")
    if n % 8 and bits[:, n:].any():
        raise ValueError(f"word does not fit in {n} bits")
    return np.ascontiguousarray(bits[:, :n])


def bits_to_words(bits: np.ndarray) -> List[int]:
    """Convert a ``(N, n)`` bit batch back to a list of Python integers."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    row_bytes = packed.shape[1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[i * row_bytes:(i + 1) * row_bytes], "little")
        for i in range(packed.shape[0])
    ]


# ---------------------------------------------------------------------------
# Matrix export of a scalar code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeMatrices:
    """Bit-matrix view of an (n, k) linear code.

    Attributes
    ----------
    n, k:
        Codeword and data lengths in bits.
    G:
        ``(k, n)`` generator matrix: row ``i`` is the scalar encoding of
        data unit vector ``1 << i``.
    H:
        ``(r, n)`` parity-check matrix: the scalar decoder's syndrome
        masks, one row per syndrome bit.  A word is a codeword exactly
        when ``H @ word == 0`` (mod 2).
    syndrome_lut:
        ``(2**r,)`` int16 table mapping a packed syndrome value to the
        codeword bit the scalar decoder would flip, or ``-1`` when the
        syndrome is zero (clean) or names no single-bit error (detected
        uncorrectable).
    data_columns:
        ``(k,)`` index array: ``data_columns[i]`` is the codeword column
        holding systematic data bit ``i``.
    """

    n: int
    k: int
    G: np.ndarray
    H: np.ndarray
    syndrome_lut: np.ndarray
    data_columns: np.ndarray

    @property
    def num_syndrome_bits(self) -> int:
        """Rows of ``H`` (8 for both (72,64) codes)."""
        return self.H.shape[0]


def build_matrices(code: "SECDEDCode", check_masks: Sequence[int]) -> CodeMatrices:
    """Derive :class:`CodeMatrices` for ``code`` from its scalar truth.

    ``check_masks`` are the code's own syndrome masks (one integer bit
    mask per syndrome bit, bit ``j`` set when codeword bit ``j``
    participates).  Everything else is *derived* by running the scalar
    implementation:

    * ``G`` rows come from scalar ``encode()`` of each unit data vector
      (valid because the codes are GF(2)-linear, which is asserted here
      against probe words);
    * ``data_columns`` comes from scalar ``data_bit_index()``;
    * the correction LUT is keyed by the ``H``-syndrome of each
      single-bit error pattern, and every entry is cross-checked against
      scalar ``decode()`` of that pattern.

    Raises ``ValueError`` when the masks are inconsistent with the
    scalar code -- the construction refuses to produce kernels that
    could diverge from the per-word implementation.
    """
    n, k = code.n, code.k
    H = np.stack([int_to_bits(mask, n) for mask in check_masks])
    r = H.shape[0]

    G = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        G[i] = int_to_bits(code.encode(1 << i), n)
    if ((G.astype(np.int32) @ H.T.astype(np.int32)) & 1).any():
        raise ValueError(
            "parity-check masks do not annihilate the scalar generator rows"
        )

    data_columns = np.full(k, -1, dtype=np.intp)
    for j in range(n):
        i = code.data_bit_index(j)
        if i is not None:
            data_columns[i] = j
    if (data_columns < 0).any():
        raise ValueError("scalar code does not expose every data bit position")

    weights = (1 << np.arange(r, dtype=np.int64))
    lut = np.full(1 << r, -1, dtype=np.int16)
    for j in range(n):
        syndrome = int(H[:, j].astype(np.int64) @ weights)
        result = code.decode(1 << j)  # e_j on the (all-zero) codeword
        if (
            result.outcome is not DecodeOutcome.CORRECTED
            or result.corrected_bit != j
        ):
            raise ValueError(
                f"scalar decoder does not correct single-bit error at {j}"
            )
        if syndrome == 0 or lut[syndrome] != -1:
            raise ValueError(f"syndrome collision at codeword bit {j}")
        lut[syndrome] = j

    # Linearity spot-check: matrix encode must reproduce scalar encode.
    probes = [0, code.data_mask, 0x0123456789ABCDEF & code.data_mask]
    probe_bits = np.zeros((len(probes), k), dtype=np.uint8)
    for row, value in enumerate(probes):
        probe_bits[row] = int_to_bits(value, k)
    encoded = (probe_bits.astype(np.int32) @ G.astype(np.int32)) & 1
    for row, value in enumerate(probes):
        if not np.array_equal(
            encoded[row].astype(np.uint8), int_to_bits(code.encode(value), n)
        ):
            raise ValueError("matrix encoding diverges from scalar encode")

    G.setflags(write=False)
    H.setflags(write=False)
    lut.setflags(write=False)
    data_columns.setflags(write=False)
    return CodeMatrices(
        n=n, k=k, G=G, H=H, syndrome_lut=lut, data_columns=data_columns
    )


# ---------------------------------------------------------------------------
# Batched SECDED kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchDecodeResult:
    """Arrays of per-word decode results for one batch.

    Attributes
    ----------
    outcome:
        ``(N,)`` int8 of :class:`BatchOutcome` codes (``NO_ERROR``,
        ``CORRECTED`` or ``DETECTED_UNCORRECTABLE``).
    data:
        ``(N, k)`` uint8 decoded data bits (best effort for
        uncorrectable words, matching the scalar decoder).
    corrected_bit:
        ``(N,)`` int16 codeword bit flipped back, or ``-1``.
    """

    outcome: np.ndarray
    data: np.ndarray
    corrected_bit: np.ndarray

    def data_words(self) -> List[int]:
        """Decoded data rows as Python integers (scalar representation)."""
        return bits_to_words(self.data)


class BatchedCode:
    """Vectorised encode/decode kernels for one scalar SECDED code.

    Built from (and permanently tied to) a scalar code instance via
    :meth:`repro.ecc.secded.SECDEDCode.batched`; all matrices come from
    the code's ``to_matrices()`` export, so the kernels cannot drift
    from the scalar truth they were derived from.
    """

    def __init__(self, code: "SECDEDCode") -> None:
        self.code = code
        self.matrices = code.to_matrices()
        m = self.matrices
        self.n = m.n
        self.k = m.k
        self._G = m.G.astype(np.int32)
        self._Ht = m.H.T.astype(np.int32)
        self._weights = (
            1 << np.arange(m.num_syndrome_bits, dtype=np.int64)
        )
        # Packed syndrome of a single-bit error at each codeword position,
        # with one zero pad entry at index n: XOR-gathering through the
        # pad lets ragged (mixed-weight) position batches share one array.
        column_syndromes = np.concatenate(
            [m.H.T.astype(np.int64) @ self._weights, [0]]
        )
        column_syndromes.setflags(write=False)
        self._column_syndromes = column_syndromes

    def _as_batch(self, bits: np.ndarray, width: int) -> np.ndarray:
        batch = np.ascontiguousarray(bits, dtype=np.uint8)
        if batch.ndim != 2 or batch.shape[1] != width:
            raise ValueError(
                f"expected a (N, {width}) bit batch, got shape {batch.shape}"
            )
        return batch

    def encode(self, data_bits: np.ndarray) -> np.ndarray:
        """Encode a ``(N, k)`` data-bit batch into ``(N, n)`` codewords."""
        data = self._as_batch(data_bits, self.k)
        if not OBS.enabled:
            return ((data.astype(np.int32) @ self._G) & 1).astype(np.uint8)
        OBS.registry.counter("ecc.batched.encoded_words").inc(len(data))
        _observe_batch(len(data))
        with span("ecc.batched.encode_s", words=len(data)):
            return ((data.astype(np.int32) @ self._G) & 1).astype(np.uint8)

    def syndromes(self, word_bits: np.ndarray) -> np.ndarray:
        """Packed integer syndrome of every word in a ``(N, n)`` batch."""
        words = self._as_batch(word_bits, self.n)
        syndrome_bits = (words.astype(np.int32) @ self._Ht) & 1
        return syndrome_bits.astype(np.int64) @ self._weights

    def is_codeword(self, word_bits: np.ndarray) -> np.ndarray:
        """Boolean validity (zero syndrome) per word -- the Table II kernel."""
        if OBS.enabled:
            OBS.registry.counter("ecc.batched.checked_words").inc(
                len(word_bits)
            )
        return self.syndromes(word_bits) == 0

    def syndromes_of_error_positions(self, positions: np.ndarray) -> np.ndarray:
        """Packed syndromes of ``(N, e)`` batches of flipped-bit positions.

        Because the codes are linear, the syndrome of ``codeword ^
        pattern`` equals the syndrome of the error pattern alone, which
        is the XOR of the ``H`` columns at the flipped positions -- ``e``
        gathers instead of a full bit-matrix product.  This is the
        Table-II hot kernel: a pattern is *undetected* exactly when its
        syndrome is zero.  Position ``n`` (one past the last codeword
        bit) is an explicit no-op pad so ragged mixed-weight batches can
        be rectangularised.
        """
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        if positions.ndim != 2:
            raise ValueError("expected a (N, e) position batch")
        if positions.size and (
            positions.min() < 0 or positions.max() > self.n
        ):
            raise ValueError(f"bit positions must lie in [0, {self.n}]")
        if OBS.enabled:
            OBS.registry.counter("ecc.batched.checked_words").inc(
                len(positions)
            )
        columns = self._column_syndromes[positions]
        return np.bitwise_xor.reduce(columns, axis=1)

    def outcomes_of_error_positions(self, positions: np.ndarray) -> np.ndarray:
        """Decode outcomes for flipped-position batches, syndrome-only.

        Returns ``(N,)`` int8 :class:`BatchOutcome` codes (``NO_ERROR``
        for an undetected pattern, ``CORRECTED`` when the decoder would
        flip some bit, ``DETECTED_UNCORRECTABLE`` otherwise) -- what the
        miscorrection study tallies, without materialising codewords.
        """
        syndromes = self.syndromes_of_error_positions(positions)
        corrected = self.matrices.syndrome_lut[syndromes] >= 0
        outcome = np.full(
            len(syndromes), BatchOutcome.DETECTED_UNCORRECTABLE, dtype=np.int8
        )
        outcome[syndromes == 0] = BatchOutcome.NO_ERROR
        outcome[corrected] = BatchOutcome.CORRECTED
        return outcome

    def decode(self, word_bits: np.ndarray) -> BatchDecodeResult:
        """Syndrome-decode a ``(N, n)`` batch: correct 1 bit, detect more."""
        words = self._as_batch(word_bits, self.n)
        num = words.shape[0]
        if OBS.enabled:
            OBS.registry.counter("ecc.batched.decoded_words").inc(num)
            _observe_batch(num)
        with span("ecc.batched.decode_s", words=num):
            return self._decode_batch(words, num)

    def _decode_batch(self, words: np.ndarray, num: int) -> BatchDecodeResult:
        """The decode body (split out so the span wraps exactly it)."""
        syndromes = self.syndromes(words)
        corrected_bit = self.matrices.syndrome_lut[syndromes]
        outcome = np.full(
            num, BatchOutcome.DETECTED_UNCORRECTABLE, dtype=np.int8
        )
        outcome[syndromes == 0] = BatchOutcome.NO_ERROR
        correctable = corrected_bit >= 0
        outcome[correctable] = BatchOutcome.CORRECTED
        fixed = words.copy()
        rows = np.nonzero(correctable)[0]
        fixed[rows, corrected_bit[rows]] ^= 1
        return BatchDecodeResult(
            outcome=outcome,
            data=fixed[:, self.matrices.data_columns],
            corrected_bit=np.where(correctable, corrected_bit, -1).astype(
                np.int16
            ),
        )


# ---------------------------------------------------------------------------
# Batched Reed-Solomon syndrome checks
# ---------------------------------------------------------------------------

class BatchedRSSyndromes:
    """Vectorised syndrome computation for a Reed-Solomon code.

    Evaluates all ``r`` syndromes of ``(N, n)`` chip-symbol arrays in
    one shot via the field's log/antilog tables, matching
    :meth:`repro.ecc.reed_solomon.ReedSolomonCode.syndromes` exactly:
    ``S_i = sum_j received[j] * alpha^((fcr + i) * (n - 1 - j))``.
    """

    def __init__(self, rs: "ReedSolomonCode") -> None:
        self.rs = rs
        gf = rs.field
        self._order = gf.order
        self._size = gf.size
        self._log = gf.log_table
        self._exp = gf.exp_table
        n, r = rs.n, rs.num_check
        j = np.arange(n, dtype=np.int64)
        i = np.arange(r, dtype=np.int64)
        # log of the evaluation point of symbol j in syndrome i.
        self._log_points = ((rs.fcr + i)[:, None] * (n - 1 - j)[None, :]) % (
            self._order
        )

    def _as_symbols(self, received: np.ndarray) -> np.ndarray:
        symbols = np.ascontiguousarray(received, dtype=np.int64)
        if symbols.ndim != 2 or symbols.shape[1] != self.rs.n:
            raise ValueError(
                f"expected a (N, {self.rs.n}) symbol batch, "
                f"got shape {symbols.shape}"
            )
        if symbols.min(initial=0) < 0 or symbols.max(initial=0) >= self._size:
            raise ValueError(
                f"symbol out of range for GF(2^{self.rs.field.m})"
            )
        return symbols

    def syndromes(self, received: np.ndarray) -> np.ndarray:
        """The ``(N, r)`` syndrome array of a ``(N, n)`` symbol batch."""
        symbols = self._as_symbols(received)
        if OBS.enabled:
            OBS.registry.counter("ecc.batched.rs_words").inc(len(symbols))
            _observe_batch(len(symbols))
        logs = self._log[symbols]  # placeholder at zero symbols, masked below
        exponents = (logs[:, None, :] + self._log_points[None, :, :]) % (
            self._order
        )
        products = self._exp[exponents]
        products *= (symbols != 0)[:, None, :]
        return np.bitwise_xor.reduce(products, axis=2)

    def is_codeword(self, received: np.ndarray) -> np.ndarray:
        """Boolean per-row validity: every syndrome zero."""
        return ~self.syndromes(received).any(axis=1)
