"""Column-level equality of ``FaultShard.visible()`` with expand-then-filter.

``visible()`` drops the base faults on-die ECC corrects before it
derives any column or multi-rank clone.  The reference below derives
every column and clone for every sampled fault and only then keeps the
visible rows; both must give the same columns (values and dtypes), the
same ``indptr`` and the same row order, for all six schemes, with
scaling promotion, scrubbing and multi-rank clones, and on the edge
shards: no selected system, and no visible fault.
"""

import numpy as np
import pytest

from repro.faultsim import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    FitTable,
    NonEccScheme,
    XedChipkillScheme,
    XedScheme,
)
from repro.faultsim.fault_models import FailureMode, ModeRate
from repro.faultsim.injector import FaultSampler
from repro.faultsim.vectorized import FaultShard, VisibleFaults

SCHEMES = [
    NonEccScheme,
    lambda: EccDimmScheme(sdc_fraction=0.44),
    XedScheme,
    ChipkillScheme,
    DoubleChipkillScheme,
    XedChipkillScheme,
]
SCHEME_IDS = [
    "non_ecc", "ecc_dimm", "xed", "chipkill", "double_chipkill",
    "xed_chipkill",
]
COLUMNS = (
    "sys", "channel", "rank", "chip", "mode", "permanent", "time", "end",
    "addr", "wild", "indptr",
)
HOURS = 7 * 8760.0


def expand_then_filter(shard: FaultShard) -> VisibleFaults:
    """Every column and clone for every fault, then the visible rows."""
    num_sel = shard.num_selected
    rows = shard.mode_rows
    sys_pre = np.repeat(np.arange(num_sel, dtype=np.int64), shard.counts)
    perm = shard.row_permanent[rows]
    correctable = shard.row_correctable[rows]
    promoted = correctable & (shard.promote_u < shard.promotion_p)
    vis = ~(correctable & ~promoted)
    wild = np.where(promoted, shard.word_mask, shard.row_wildcards[rows])
    if shard.scrub_hours is None:
        end = np.full(rows.size, np.inf)
    else:
        end = np.where(perm, np.inf, shard.times + shard.scrub_hours)
    cpr = shard.chips_per_rank
    ranks = shard.ranks_per_channel
    chip = shard.chips_global % cpr
    base_rank = (shard.chips_global // cpr) % ranks
    channel = shard.chips_global // (cpr * ranks)
    spans = shard.row_spans[rows] & (ranks > 1)
    if spans.any():
        reps = np.where(spans, ranks, 1)
        total = int(reps.sum())
        run_starts = np.cumsum(reps) - reps
        pos_in_run = np.arange(total, dtype=np.int64) - np.repeat(
            run_starts, reps
        )
        rank = np.where(
            np.repeat(spans, reps), pos_in_run, np.repeat(base_rank, reps)
        )
        sys_e = np.repeat(sys_pre, reps)
        channel_e = np.repeat(channel, reps)
        chip_e = np.repeat(chip, reps)
        mode_e = np.repeat(shard.row_mode_codes[rows], reps)
        perm_e = np.repeat(perm, reps)
        time_e = np.repeat(shard.times, reps)
        end_e = np.repeat(end, reps)
        addr_e = np.repeat(shard.addr_values, reps)
        wild_e = np.repeat(wild, reps)
        vis_e = np.repeat(vis, reps)
    else:
        rank = base_rank
        sys_e, channel_e, chip_e = sys_pre, channel, chip
        mode_e = shard.row_mode_codes[rows]
        perm_e, time_e, end_e = perm, shard.times, end
        addr_e, wild_e, vis_e = shard.addr_values, wild, vis
    keep = np.nonzero(vis_e)[0]
    sys_v = sys_e[keep]
    indptr = np.zeros(num_sel + 1, dtype=np.int64)
    np.cumsum(np.bincount(sys_v, minlength=num_sel), out=indptr[1:])
    return VisibleFaults(
        num_selected=num_sel,
        sys=sys_v,
        channel=channel_e[keep],
        rank=rank[keep],
        chip=chip_e[keep],
        mode=mode_e[keep],
        permanent=perm_e[keep],
        time=time_e[keep],
        end=end_e[keep],
        addr=addr_e[keep],
        wild=wild_e[keep],
        indptr=indptr,
    )


def sample(scheme, fit, num_systems=2_000, seed=2016, **sampler_kw):
    sampler = FaultSampler(scheme, fit, HOURS, **sampler_kw)
    return sampler.sample_shard_arrays(
        40_000, num_systems, np.random.default_rng(seed),
        min_faults=scheme.min_faults,
    )


def assert_same_columns(shard: FaultShard) -> VisibleFaults:
    got = shard.visible()
    want = expand_then_filter(shard)
    assert got.num_selected == want.num_selected
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    return got


class TestVisibleColumns:
    @pytest.mark.parametrize("make_scheme", SCHEMES, ids=SCHEME_IDS)
    @pytest.mark.parametrize(
        "sampler_kw",
        [{}, {"scaling_rate": 1e-4, "scrub_hours": 168.0}],
        ids=["plain", "promoted-scrubbed"],
    )
    def test_equals_expand_then_filter(self, make_scheme, sampler_kw):
        scheme = make_scheme()
        shard = sample(scheme, FitTable().scaled(30.0), **sampler_kw)
        vis = assert_same_columns(shard)
        rows = shard.mode_rows
        correctable = shard.row_correctable[rows]
        # The shard exercises every step the column build takes: some
        # faults dropped, multi-rank clones, and (with scaling) some
        # single-bit faults promoted into view.
        assert correctable.any() and vis.sys.size > 0
        assert shard.row_spans[rows].any() and scheme.ranks_per_channel > 1
        if sampler_kw:
            assert (correctable & (shard.promote_u < shard.promotion_p)).any()
            assert np.isfinite(vis.end).any()

    def test_no_selected_system(self):
        shard = sample(
            DoubleChipkillScheme(), FitTable().scaled(1e-3), num_systems=200
        )
        assert shard.num_selected == 0
        vis = assert_same_columns(shard)
        assert vis.indptr.tolist() == [0]

    def test_every_fault_invisible(self):
        fit = FitTable({FailureMode.SINGLE_BIT: ModeRate(30_000, 30_000)})
        shard = sample(XedScheme(), fit)
        assert shard.num_selected > 0 and shard.mode_rows.size > 0
        vis = assert_same_columns(shard)
        assert vis.sys.size == 0
        assert vis.indptr.tolist() == [0] * (shard.num_selected + 1)
