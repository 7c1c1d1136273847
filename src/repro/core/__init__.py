"""The XED mechanism (the paper's primary contribution).

* :mod:`repro.core.parity` -- RAID-3 XOR parity (Equations 1-3).
* :mod:`repro.core.catch_word` -- catch-word generation, recognition,
  collision bookkeeping and the analytical collision model (Fig. 6).
* :mod:`repro.core.diagnosis` -- inter-line fault diagnosis with the
  Faulty-row Chip Tracker, and intra-line write/read-back diagnosis
  (Section VI).
* :mod:`repro.core.controller` -- the memory-controller side of XED:
  the catch-word protocol both XED controllers inherit (provisioning,
  recognition, the serial-mode re-read, collision rotation, DUE
  accounting), erasure reconstruction, serial-mode recovery of
  multi-catch-word scaling episodes, and the diagnosis escalation path
  (Sections V-VII).
* :mod:`repro.core.erasure_controller` -- the same protocol on Chipkill
  hardware with Reed-Solomon erasure decoding (Section IX).
"""

from repro.core.types import ReadStatus, XedReadResult
from repro.core.parity import reconstruct_word, xor_parity
from repro.core.catch_word import CatchWordRegister, CollisionModel
from repro.core.diagnosis import (
    DiagnosisResult,
    FaultyRowChipTracker,
    inter_line_diagnosis,
    intra_line_diagnosis,
)
from repro.core.controller import XedController
from repro.core.erasure_controller import XedChipkillController
from repro.core.scrubber import PatrolScrubber, ScrubReport
from repro.core.alert_pin import AlertPinXedController

__all__ = [
    "XedChipkillController",
    "PatrolScrubber",
    "ScrubReport",
    "AlertPinXedController",
    "ReadStatus",
    "XedReadResult",
    "xor_parity",
    "reconstruct_word",
    "CatchWordRegister",
    "CollisionModel",
    "DiagnosisResult",
    "FaultyRowChipTracker",
    "inter_line_diagnosis",
    "intra_line_diagnosis",
    "XedController",
]
