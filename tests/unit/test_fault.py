"""Unit tests for the mask/value fault representation (FaultSim core)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import ChipGeometry
from repro.faultsim.fault import (
    AddressRange,
    ChipFault,
    FaultSpace,
    combination_failure_time,
    group_by_rank,
)
from repro.faultsim.fault_models import FailureMode

SPACE = FaultSpace()
BANK_MASK = SPACE.field_mask(SPACE.bank_shift, SPACE.bank_bits)
addr31 = st.integers(min_value=0, max_value=SPACE.full_mask)
modes = st.sampled_from(list(FailureMode))


class TestFaultSpace:
    def test_layout_is_31_bits(self):
        assert SPACE.total_bits == 3 + 15 + 7 + 3 + 3

    def test_field_masks_partition_the_space(self):
        union = (
            SPACE.lane_mask
            | SPACE.beat_mask
            | SPACE.column_mask
            | SPACE.row_mask
            | BANK_MASK
        )
        assert union == SPACE.full_mask
        total_bits = sum(
            bin(m).count("1")
            for m in (
                SPACE.lane_mask,
                SPACE.beat_mask,
                SPACE.column_mask,
                SPACE.row_mask,
                BANK_MASK,
            )
        )
        assert total_bits == SPACE.total_bits  # disjoint fields

    def test_for_chip_x4_vs_x8(self):
        x8 = FaultSpace.for_chip(ChipGeometry(device_width=8))
        x4 = FaultSpace.for_chip(ChipGeometry(device_width=4))
        assert x8.lane_bits == 3
        assert x4.lane_bits == 2

    def test_wildcards_match_granularity(self):
        assert SPACE.wildcard_for(FailureMode.SINGLE_BIT) == 0
        assert SPACE.wildcard_for(FailureMode.SINGLE_WORD) == SPACE.word_mask
        assert SPACE.wildcard_for(FailureMode.SINGLE_ROW) == (
            SPACE.column_mask | SPACE.word_mask
        )
        assert SPACE.wildcard_for(FailureMode.MULTI_BANK) == SPACE.full_mask

    def test_column_wildcard_frees_rows_and_lane_only(self):
        w = SPACE.wildcard_for(FailureMode.SINGLE_COLUMN)
        assert w == SPACE.row_mask | SPACE.lane_mask
        # Bank, column address and beat stay pinned: the broken bitline.
        assert w & BANK_MASK == 0
        assert w & SPACE.column_mask == 0
        assert w & SPACE.beat_mask == 0


class TestAddressRange:
    @given(a=addr31)
    def test_range_covers_its_own_value(self, a):
        assert AddressRange(a, 0).covers(a)

    @given(a=addr31, b=addr31)
    def test_full_wildcard_covers_everything(self, a, b):
        assert AddressRange(a, SPACE.full_mask).covers(b)

    @given(a=addr31, b=addr31)
    def test_intersection_is_symmetric(self, a, b):
        r1 = AddressRange(a, SPACE.row_mask)
        r2 = AddressRange(b, SPACE.column_mask)
        assert r1.intersects(r2) == r2.intersects(r1)

    @given(a=addr31)
    def test_range_intersects_itself(self, a):
        r = AddressRange(a, 0)
        assert r.intersects(r)

    def test_exact_disjoint_addresses_do_not_intersect(self):
        assert not AddressRange(0, 0).intersects(AddressRange(1, 0))

    def test_row_and_column_intersect_when_bank_matches(self):
        # A row fault and a column fault in the same bank always share
        # the crossing word.
        row_fault = AddressRange(
            (2 << SPACE.bank_shift) | (100 << SPACE.row_shift),
            SPACE.column_mask | SPACE.word_mask,
        )
        col_fault = AddressRange(
            (2 << SPACE.bank_shift) | (55 << SPACE.column_shift),
            SPACE.row_mask | SPACE.lane_mask,
        )
        assert row_fault.intersects(col_fault)

    def test_different_banks_never_intersect(self):
        row_fault = AddressRange(
            (1 << SPACE.bank_shift), SPACE.column_mask | SPACE.word_mask
        )
        col_fault = AddressRange(
            (2 << SPACE.bank_shift), SPACE.row_mask | SPACE.lane_mask
        )
        assert not row_fault.intersects(col_fault)

    @given(a=addr31, b=addr31, c=addr31)
    @settings(max_examples=200)
    def test_pairwise_implies_joint(self, a, b, c):
        """Field-aligned wildcards: pairwise compatibility is joint
        compatibility -- the property the triple-fault checks rely on."""
        ranges = [
            AddressRange(a, SPACE.word_mask),
            AddressRange(b, SPACE.column_mask | SPACE.word_mask),
            AddressRange(c, SPACE.row_mask | SPACE.lane_mask),
        ]
        pairwise = all(
            ranges[i].intersects(ranges[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
        if pairwise:
            # Each bit takes the value of a range that fixes it; the
            # ranges agree wherever two of them fix the same bit.
            joint = 0
            for r in ranges:
                joint |= r.value & ~r.wildcard
            assert all(r.covers(joint) for r in ranges)


def fault(channel=0, rank=0, chip=0, mode=FailureMode.SINGLE_ROW,
          time=100.0, value=0, wildcard=None, end=float("inf"),
          correctable=False, permanent=True):
    if wildcard is None:
        wildcard = SPACE.wildcard_for(mode)
    return ChipFault(
        channel=channel, rank=rank, chip=chip, mode=mode,
        permanent=permanent, time_hours=time,
        addr=AddressRange(value, wildcard),
        on_die_correctable=correctable, end_hours=end,
    )


class TestChipFault:
    def test_time_overlap(self):
        a = fault(time=0.0, end=10.0)
        b = fault(time=5.0, end=15.0)
        c = fault(time=11.0, end=12.0)
        assert a.overlaps_in_time(b)
        assert not a.overlaps_in_time(c)

    def test_collides_requires_same_rank(self):
        a = fault(rank=0, chip=0)
        b = fault(rank=1, chip=1)
        assert not a.collides_with(b)

    def test_collides_requires_different_chip(self):
        a = fault(chip=3)
        b = fault(chip=3)
        assert not a.collides_with(b)

    def test_collides_requires_address_intersection(self):
        a = fault(chip=0, mode=FailureMode.SINGLE_ROW,
                  value=1 << SPACE.bank_shift)
        b = fault(chip=1, mode=FailureMode.SINGLE_ROW,
                  value=2 << SPACE.bank_shift)
        assert not a.collides_with(b)

    def test_bank_faults_in_same_bank_collide(self):
        a = fault(chip=0, mode=FailureMode.SINGLE_BANK,
                  value=3 << SPACE.bank_shift)
        b = fault(chip=5, mode=FailureMode.SINGLE_BANK,
                  value=3 << SPACE.bank_shift)
        assert a.collides_with(b)

    def test_combination_failure_time_is_last_arrival(self):
        a, b = fault(time=50.0), fault(time=99.0, chip=1)
        assert combination_failure_time([a, b]) == 99.0

    def test_group_by_rank(self):
        faults = [fault(channel=0, rank=0), fault(channel=0, rank=1),
                  fault(channel=1, rank=0), fault(channel=0, rank=0, chip=2)]
        groups = group_by_rank(faults)
        assert len(groups) == 3
        assert len(groups[(0, 0)]) == 2
