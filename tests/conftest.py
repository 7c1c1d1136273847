"""Shared fixtures for the XED reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import XedController
from repro.dram import XedDimm
from repro.ecc import CRC8ATMCode, HammingSECDED, ReedSolomonCode
from repro.ecc.miscorrection import MiscorrectionProfile
from repro.ecc.secded import DecodeOutcome


@pytest.fixture(scope="session")
def hamming() -> HammingSECDED:
    return HammingSECDED()


@pytest.fixture(scope="session")
def crc8() -> CRC8ATMCode:
    return CRC8ATMCode()


@pytest.fixture(scope="session", params=["hamming", "crc8"])
def secded_code(request, hamming, crc8):
    """Parametrised fixture running a test against both (72,64) codes."""
    return {"hamming": hamming, "crc8": crc8}[request.param]


@pytest.fixture(scope="session")
def rs_chipkill() -> ReedSolomonCode:
    return ReedSolomonCode.chipkill(16)


@pytest.fixture(scope="session")
def rs_double_chipkill() -> ReedSolomonCode:
    return ReedSolomonCode.double_chipkill(32)


@pytest.fixture()
def xed_dimm() -> XedDimm:
    return XedDimm.build(seed=1234)


@pytest.fixture()
def xed_controller(xed_dimm) -> XedController:
    return XedController(xed_dimm, seed=99)


@pytest.fixture(scope="session")
def scalar_lane_profile():
    """Scalar-decoder reference for ``measure_lane_error_profile``.

    Draws the identical sample set from ``random.Random(seed)`` and
    decodes every corrupted codeword with the scalar codec, so tests can
    require the batched measurement to match it exactly.
    """

    def measure(code, lane=0, lane_bits=8, samples=20000, seed=2016):
        rng = random.Random(seed)
        clean = code.encode(rng.getrandbits(code.k))
        base = lane * lane_bits
        detected = miscorrected = 0
        for _ in range(samples):
            weight = rng.randint(2, lane_bits)
            pattern = 0
            for bit in rng.sample(range(lane_bits), weight):
                pattern |= 1 << (base + bit)
            outcome = code.decode(clean ^ pattern).outcome
            if outcome is DecodeOutcome.DETECTED_UNCORRECTABLE:
                detected += 1
            elif outcome is DecodeOutcome.CORRECTED:
                miscorrected += 1
        silent = samples - detected - miscorrected
        total = float(samples)
        return MiscorrectionProfile(
            detected / total, miscorrected / total, silent / total
        )

    return measure


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20160613)
