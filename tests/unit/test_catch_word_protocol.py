"""The catch-word protocol both XED controllers inherit.

Each test runs once over the 9-chip :class:`XedController` and once
over the Section-IX :class:`XedChipkillController`: provisioning over
MRS, the serial-mode re-read and collision rotation must behave the
same whatever code sits behind the catch-words.
"""

import pytest

from repro.core import XedChipkillController, XedController
from repro.dram import XedDimm
from repro.dram.chip import FaultGranularity
from repro.dram.dimm import ChipkillRank
from repro.obs import OBS


def _xed(seed):
    dimm = XedDimm.build(seed=seed)
    return dimm, XedController(dimm, seed=seed + 7)


def _chipkill(seed):
    rank = ChipkillRank(seed=seed)
    return rank, XedChipkillController(rank, seed=seed + 5)


#: (builder, data chips, catch-words that force the serial-mode re-read)
SYSTEMS = {
    "xed": (_xed, 8, 2),
    "chipkill": (_chipkill, 16, 3),
}


@pytest.fixture(params=sorted(SYSTEMS))
def system(request):
    build, data_chips, serial_catch_words = SYSTEMS[request.param]
    device, ctrl = build(11)
    OBS.enable()
    return device, ctrl, data_chips, serial_catch_words


def _line(data_chips):
    return [0x5A00 + i for i in range(data_chips)]


def test_provisioning(system):
    device, ctrl, _, _ = system
    assert len(set(ctrl.catch_words)) == len(device.chips)
    assert all(chip.regs.xed_enable for chip in device.chips)
    for chip, reg in zip(device.chips, ctrl.registers):
        assert chip.regs.catch_word == reg.value


def test_serial_mode_reread(system):
    device, ctrl, data_chips, serial_catch_words = system
    line = _line(data_chips)
    ctrl.write_line(0, 0, 3, line)
    # Single-bit faults: each chip's on-die ECC corrects its word, so
    # it sends its catch-word with XED-Enable set and the corrected
    # data once the re-read clears it.
    for chip in range(serial_catch_words):
        device.inject_chip_failure(
            chip=2 * chip + 1, granularity=FaultGranularity.BIT,
            column=3, bit=5,
        )
    result = ctrl.read_line(0, 0, 3)
    assert result.ok and result.words == line
    assert result.serial_mode
    assert len(result.catch_word_chips) == serial_catch_words
    assert all(chip.regs.xed_enable for chip in device.chips)
    assert ctrl.stats["serial_mode_entries"] == 1
    assert OBS.registry.snapshot()["counters"]["serial_retry"] == 1
    assert [e.kind for e in OBS.trace].count("serial_retry") == 1


def test_collision_rotates_the_catch_word(system):
    device, ctrl, data_chips, _ = system
    chip = 4
    old = ctrl.catch_words[chip]
    line = _line(data_chips)
    line[chip] = old  # legitimate data equal to the catch-word
    ctrl.write_line(0, 0, 1, line)
    result = ctrl.read_line(0, 0, 1)
    assert result.ok and result.words == line
    assert result.collision
    assert ctrl.registers[chip].value != old
    assert device.chips[chip].regs.catch_word == ctrl.registers[chip].value
    counters = OBS.registry.snapshot()["counters"]
    assert counters["catch_word_collision"] == 1
    assert counters["catch_word_rotation"] == 1
    assert ctrl.stats["collisions"] == 1
