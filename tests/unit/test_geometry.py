"""Unit tests for DRAM chip geometry."""

import pytest

from repro.dram.geometry import ChipGeometry


class TestChipGeometry:
    def test_table_v_defaults(self):
        g = ChipGeometry()
        assert g.banks == 8
        assert g.rows_per_bank == 32 * 1024
        assert g.columns_per_row == 128
        assert g.device_width == 8

    def test_2gb_capacity(self):
        # 8 banks x 32K rows x 128 columns x 64 bits = 2 Gbit.
        g = ChipGeometry()
        words = g.banks * g.rows_per_bank * g.columns_per_row
        assert words * g.bits_per_access == 2 * (1 << 30)

    def test_x4_bits_per_access(self):
        assert ChipGeometry(device_width=4).bits_per_access == 32
        assert ChipGeometry(device_width=8).bits_per_access == 64

    def test_validate_bounds(self):
        g = ChipGeometry()
        with pytest.raises(IndexError):
            g.validate(8, 0, 0)
        with pytest.raises(IndexError):
            g.validate(0, 32 * 1024, 0)
        with pytest.raises(IndexError):
            g.validate(0, 0, 128)
