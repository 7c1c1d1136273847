"""Error-correcting code substrate for the XED reproduction.

This package implements, from scratch, every code the paper relies on:

* :mod:`repro.ecc.gf` -- finite-field arithmetic GF(2^m).
* :mod:`repro.ecc.reed_solomon` -- Reed-Solomon symbol codes used by
  Chipkill (single-symbol correct / double-symbol detect), Double-Chipkill
  (two-symbol correct) and the erasure decoding XED layers on top of them.
* :mod:`repro.ecc.hamming` -- the (72,64) Hamming SECDED code used by
  conventional ECC-DIMMs and as a candidate on-die ECC.
* :mod:`repro.ecc.crc8` -- the (72,64) CRC8-ATM code the paper recommends
  as the on-die ECC because of its 100% burst-error detection.
* :mod:`repro.ecc.secded` -- the common SECDED / on-die ECC interface.
* :mod:`repro.ecc.detection` -- the detection-rate analysis harness that
  regenerates Table II of the paper.
* :mod:`repro.ecc.batched` -- numpy bit-matrix kernels that evaluate
  whole codeword batches, derived from (never parallel to) the scalar
  codecs above.
* :mod:`repro.ecc.differential` -- the replay harness that proves the
  batched kernels bit-identical to the scalar codecs.
"""

from repro.ecc.secded import DecodeOutcome, DecodeResult, SECDEDCode
from repro.ecc.hamming import HammingSECDED
from repro.ecc.crc8 import CRC8ATMCode, CRC8_ATM_POLY
from repro.ecc.gf import GF2m, GF256
from repro.ecc.reed_solomon import ReedSolomonCode, RSDecodeFailure
from repro.ecc.detection import (
    DetectionReport,
    aligned_burst_patterns,
    contiguous_burst_patterns,
    detection_rate_burst,
    detection_rate_random,
    detection_table,
)
from repro.ecc.batched import (
    BatchDecodeResult,
    BatchOutcome,
    BatchedCode,
    BatchedRSSyndromes,
    CodeMatrices,
    bits_to_words,
    build_matrices,
    words_to_bits,
)
from repro.ecc.differential import (
    DifferentialMismatch,
    DifferentialReport,
    replay_decode,
    replay_encode,
    replay_roundtrip,
)

__all__ = [
    "DecodeOutcome",
    "DecodeResult",
    "SECDEDCode",
    "HammingSECDED",
    "CRC8ATMCode",
    "CRC8_ATM_POLY",
    "GF2m",
    "GF256",
    "ReedSolomonCode",
    "RSDecodeFailure",
    "DetectionReport",
    "aligned_burst_patterns",
    "contiguous_burst_patterns",
    "detection_rate_burst",
    "detection_rate_random",
    "detection_table",
    "BatchDecodeResult",
    "BatchOutcome",
    "BatchedCode",
    "BatchedRSSyndromes",
    "CodeMatrices",
    "bits_to_words",
    "build_matrices",
    "words_to_bits",
    "DifferentialMismatch",
    "DifferentialReport",
    "replay_decode",
    "replay_encode",
    "replay_roundtrip",
]
