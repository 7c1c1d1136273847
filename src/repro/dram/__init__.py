"""DRAM organisation substrate: geometry, chips and DIMMs.

Models the memory hardware of Section II of the paper:

* :mod:`repro.dram.geometry` -- chips / banks / rows / columns address
  arithmetic for x8 and x4 devices (Table V geometry by default).
* :mod:`repro.dram.mode_registers` -- the Mode Set Register (MRS)
  side-band interface through which the controller programs the
  XED-Enable bit and the Catch-Word Register (Section V-A).
* :mod:`repro.dram.chip` -- a behavioural DRAM chip with embedded on-die
  ECC, fault injection (runtime and scaling faults) and the DC-Mux that
  substitutes the catch-word for data on detection (Figure 3).
* :mod:`repro.dram.dimm` -- DIMM organisations: the plain 8-chip DIMM,
  the 9-chip ECC-DIMM (SECDED or XED parity layout), and the 18/36-chip
  lockstep arrangements used by Chipkill and Double-Chipkill.
"""

from repro.dram.geometry import ChipGeometry
from repro.dram.mode_registers import ModeRegisters
from repro.dram.chip import DramChip, FaultGranularity, InjectedFault
from repro.dram.dimm import EccDimm, XedDimm

__all__ = [
    "ChipGeometry",
    "ModeRegisters",
    "DramChip",
    "FaultGranularity",
    "InjectedFault",
    "EccDimm",
    "XedDimm",
]
