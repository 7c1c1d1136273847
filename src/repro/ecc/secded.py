"""Common interface for (72,64) SECDED-class codes.

Both the conventional ECC-DIMM code and the on-die ECC of the paper are
(72,64) codes: 64 data bits protected by 8 check bits.  The two concrete
implementations are :class:`repro.ecc.hamming.HammingSECDED` and
:class:`repro.ecc.crc8.CRC8ATMCode`; they share this interface so the
chip model, the fault injector and the Table-II analysis can treat them
interchangeably.

Codewords are represented as Python integers with bit ``i`` of the
integer holding codeword bit ``i`` (bit 0 is the first bit on the wire).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class DecodeOutcome(enum.Enum):
    """What the decoder concluded about a received word."""

    #: Zero syndrome: the word is a valid codeword (possibly an undetected
    #: multi-bit error, but the decoder cannot know that).
    CLEAN = "clean"
    #: A single-bit error was located and corrected.
    CORRECTED = "corrected"
    #: The word is invalid and not correctable as a single-bit error.
    DETECTED_UNCORRECTABLE = "detected_uncorrectable"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one (72,64) word.

    Attributes
    ----------
    outcome:
        The decoder's conclusion.
    data:
        The 64 decoded data bits (best effort for uncorrectable words).
    corrected_bit:
        Codeword bit index that was flipped back, or None.
    detected:
        Convenience flag: True whenever the received word was *invalid*
        (corrected or uncorrectable).  This is exactly the condition under
        which an XED-enabled chip transmits its catch-word (Section V-B).
    """

    outcome: DecodeOutcome
    data: int
    corrected_bit: int | None = None

    @property
    def detected(self) -> bool:
        """True when the decode flagged any error (corrected or not)."""
        return self.outcome is not DecodeOutcome.CLEAN


class SECDEDCode:
    """Abstract (n, k) single-error-correcting code over bits.

    Subclasses must fill in :meth:`encode` and :meth:`decode`.  ``n`` and
    ``k`` default to the paper's (72, 64) geometry but the interface keeps
    them parametric so x4-width variants can reuse the machinery.
    """

    n: int = 72
    k: int = 64

    @property
    def num_check_bits(self) -> int:
        """Parity-check bits in the codeword."""
        return self.n - self.k

    @property
    def data_mask(self) -> int:
        """Mask selecting the data bits of a codeword."""
        return (1 << self.k) - 1

    @property
    def codeword_mask(self) -> int:
        """Mask selecting every codeword bit."""
        return (1 << self.n) - 1

    def encode(self, data: int) -> int:
        """Encode ``k`` data bits into an ``n``-bit codeword."""
        raise NotImplementedError

    def decode(self, word: int) -> DecodeResult:
        """Decode an ``n``-bit received word."""
        raise NotImplementedError

    def split(self, word: int) -> tuple[int, int]:
        """Split a codeword into (data bits, check bits).

        Gives a *systematic view* of the code regardless of its internal
        bit layout: DIMM organisations store the data bits in the data
        chips and the check bits in the 9th chip.
        """
        raise NotImplementedError

    def join(self, data: int, check: int) -> int:
        """Inverse of :meth:`split`: rebuild the codeword layout."""
        raise NotImplementedError

    def data_bit_index(self, codeword_bit: int) -> int | None:
        """Systematic data-bit index of a codeword bit (None for check bits)."""
        raise NotImplementedError

    def to_matrices(self):
        """Export the code as (G, H, correction LUT) bit matrices.

        Concrete codes override this to hand their own syndrome masks to
        :func:`repro.ecc.batched.build_matrices`, which derives the
        generator matrix and correction table from the scalar
        ``encode``/``decode`` implementations -- the batched kernels are
        projections of the scalar truth, never re-implementations.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not export bit matrices"
        )

    def batched(self):
        """The cached :class:`repro.ecc.batched.BatchedCode` view.

        Building the matrices costs a few hundred scalar encodes and
        decodes, so the view is constructed once per code instance and
        reused by every batched sweep.
        """
        cached = getattr(self, "_batched", None)
        if cached is None:
            from repro.ecc.batched import BatchedCode

            cached = BatchedCode(self)
            self._batched = cached
        return cached

    # -- shared helpers -----------------------------------------------------

    def encode_systematic(self, data: int) -> tuple[int, int]:
        """Encode and return (data, check) as separately storable fields."""
        return self.split(self.encode(data))

    def decode_systematic(self, data: int, check: int) -> "DecodeResult":
        """Decode from separately stored data and check fields."""
        return self.decode(self.join(data, check))

    def is_codeword(self, word: int) -> bool:
        """True when ``word`` has a zero syndrome."""
        return self.decode(word).outcome is DecodeOutcome.CLEAN



def popcount(word: int) -> int:
    """Number of set bits (alias of int.bit_count with pre-3.10 fallback)."""
    try:
        return word.bit_count()
    except AttributeError:  # pragma: no cover - Python < 3.10
        return bin(word).count("1")
