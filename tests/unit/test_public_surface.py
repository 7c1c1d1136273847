"""Tests for small public surfaces: result types and packaging."""

import repro
from repro.core.types import ReadStatus, XedReadResult


class TestXedReadResult:
    def test_data_property_little_endian(self):
        result = XedReadResult(ReadStatus.CLEAN, [1, 2, 3, 4, 5, 6, 7, 8])
        data = result.data
        assert len(data) == 64
        assert data[0] == 1 and data[8] == 2

    def test_ok_reflects_status(self):
        ok = XedReadResult(ReadStatus.CORRECTED_ERASURE, [0] * 8)
        bad = XedReadResult(ReadStatus.DUE, [0] * 8)
        assert ok.ok and not bad.ok

    def test_defaults(self):
        result = XedReadResult(ReadStatus.CLEAN, [0] * 8)
        assert result.catch_word_chips == []
        assert result.reconstructed_chip is None
        assert not result.collision and not result.serial_mode


class TestPackaging:
    def test_version_exported(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.dram
        import repro.ecc
        import repro.faultsim
        import repro.perfsim

    def test_core_public_names(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_dram_public_names(self):
        import repro.dram as dram

        for name in dram.__all__:
            assert hasattr(dram, name), name

    def test_ecc_public_names(self):
        import repro.ecc as ecc

        for name in ecc.__all__:
            assert hasattr(ecc, name), name

    def test_faultsim_public_names(self):
        import repro.faultsim as fs

        for name in fs.__all__:
            assert hasattr(fs, name), name

    def test_perfsim_public_names(self):
        import repro.perfsim as ps

        for name in ps.__all__:
            assert hasattr(ps, name), name
