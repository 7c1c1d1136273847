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

from repro.lazy import lazy_exports

#: Each exported name and the module that defines it.  A name imports
#: its module on first access, so a caller of one codec or of
#: ``repro.ecc.miscorrection`` loads neither the other codecs nor the
#: detection tables and the differential harness.
_EXPORTS = {
    "DecodeOutcome": "secded",
    "DecodeResult": "secded",
    "SECDEDCode": "secded",
    "HammingSECDED": "hamming",
    "CRC8ATMCode": "crc8",
    "CRC8_ATM_POLY": "crc8",
    "GF2m": "gf",
    "GF256": "gf",
    "ReedSolomonCode": "reed_solomon",
    "RSDecodeFailure": "reed_solomon",
    "DetectionReport": "detection",
    "aligned_burst_patterns": "detection",
    "contiguous_burst_patterns": "detection",
    "detection_rate_burst": "detection",
    "detection_rate_random": "detection",
    "detection_table": "detection",
    "BatchDecodeResult": "batched",
    "BatchOutcome": "batched",
    "BatchedCode": "batched",
    "BatchedRSSyndromes": "batched",
    "CodeMatrices": "batched",
    "bits_to_words": "batched",
    "build_matrices": "batched",
    "words_to_bits": "batched",
    "DifferentialMismatch": "differential",
    "DifferentialReport": "differential",
    "replay_decode": "differential",
    "replay_encode": "differential",
    "replay_roundtrip": "differential",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
