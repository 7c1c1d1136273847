"""Unit tests for perfsim building blocks: timing, configs, traces, CPU."""

import itertools

import pytest

from repro.perfsim.configs import (
    CHIPKILL,
    DOUBLE_CHIPKILL,
    ECC_DIMM,
    EXTRA_BURST_CHIPKILL,
    EXTRA_TXN_CHIPKILL,
    LOTECC,
    SCHEME_CONFIGS,
    XED,
    XED_CHIPKILL,
    XED_SCALING,
)
from repro.perfsim.cpu import Core
from repro.perfsim.requests import RequestType
from repro.perfsim.timing import DDR3Timing, SystemTiming
from repro.perfsim.trace import SyntheticTrace, TraceOp
from repro.perfsim.workloads import (
    SUITES,
    WORKLOADS,
    Workload,
    suite_workloads,
    workload_by_name,
)


class TestTiming:
    def test_clock_ratio_is_4(self):
        assert SystemTiming().cpu_cycles_per_bus_cycle == pytest.approx(4.0)

    def test_jedec_orderings(self):
        t = DDR3Timing()
        assert t.tRC == t.tRAS + t.tRP
        assert t.tFAW >= 2 * t.tRRD
        assert t.tBURST == 4  # 8 beats DDR

    def test_table_v_shape(self):
        s = SystemTiming()
        assert (s.channels, s.ranks_per_channel, s.banks_per_rank) == (4, 2, 8)
        assert (s.num_cores, s.rob_size, s.fetch_width) == (8, 160, 4)
        assert s.rows_per_bank == 32 * 1024 and s.columns_per_row == 128


class TestSchemeConfigs:
    def test_registry_complete(self):
        assert set(SCHEME_CONFIGS) >= {
            "ecc_dimm", "xed", "chipkill", "xed_chipkill",
            "double_chipkill", "lotecc",
        }

    def test_baseline_is_plain(self):
        assert ECC_DIMM.lockstep_ranks == 1
        assert ECC_DIMM.bus_cycles_per_access == 4

    def test_xed_timing_identical_to_baseline(self):
        for attr in ("lockstep_ranks", "lockstep_channels", "overfetch",
                     "burst_cycles", "extra_read_fraction",
                     "extra_write_fraction"):
            assert getattr(XED, attr) == getattr(ECC_DIMM, attr)

    def test_chipkill_shape(self):
        assert CHIPKILL.lockstep_ranks == 2
        assert CHIPKILL.overfetch == 2
        assert CHIPKILL.bus_cycles_per_access == 8  # 100% overfetch

    def test_double_chipkill_gangs_channels(self):
        assert DOUBLE_CHIPKILL.lockstep_channels == 2
        assert DOUBLE_CHIPKILL.lockstep_ranks == 2
        assert DOUBLE_CHIPKILL.chips_per_access == 36

    def test_xed_chipkill_matches_chipkill_traffic(self):
        assert XED_CHIPKILL.bus_cycles_per_access == CHIPKILL.bus_cycles_per_access
        assert XED_CHIPKILL.lockstep_ranks == CHIPKILL.lockstep_ranks

    def test_extra_burst_is_25_percent(self):
        assert EXTRA_BURST_CHIPKILL.burst_cycles == 5
        assert EXTRA_BURST_CHIPKILL.bus_cycles_per_access == 5

    def test_extra_txn_doubles_reads(self):
        assert EXTRA_TXN_CHIPKILL.extra_read_fraction == 1.0

    def test_lotecc_amplifies_writes(self):
        assert LOTECC.extra_write_fraction > 0

    def test_xed_scaling_serial_rate_matches_table_iii(self):
        assert XED_SCALING.serial_mode_rate == pytest.approx(2e-5)


class TestWorkloads:
    def test_roster_has_31_benchmarks(self):
        assert len(WORKLOADS) == 31

    def test_figure11_names_present(self):
        for name in ("libquantum", "mcf", "lbm", "bwaves", "mummer",
                     "comm1", "comm5", "black", "stream"):
            workload_by_name(name)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("doom")

    def test_suites_partition_roster(self):
        total = sum(len(suite_workloads(s)) for s in SUITES)
        assert total == len(WORKLOADS)

    def test_all_selected_benchmarks_exceed_1_mpki(self):
        assert all(w.mpki >= 1.0 for w in WORKLOADS)

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload("bad", "SPEC", -1.0, 0.5, 0.2)
        with pytest.raises(ValueError):
            Workload("bad", "SPEC", 1.0, 1.5, 0.2)
        with pytest.raises(ValueError):
            Workload("bad", "SPEC", 1.0, 0.5, 2.0)


class TestSyntheticTrace:
    def make(self, name="libquantum", core=0, seed=1, n=100_000):
        return SyntheticTrace(
            workload_by_name(name), n, 4, 2, 8, 32768, 128,
            core=core, seed=seed,
        )

    def test_deterministic(self):
        a = list(self.make())
        b = list(self.make())
        assert a == b

    def test_cores_decorrelated(self):
        a = list(itertools.islice(self.make(core=0), 100))
        b = list(itertools.islice(self.make(core=1), 100))
        assert a != b

    def test_mpki_approximately_respected(self):
        ops = list(self.make("mcf", n=200_000))
        mpki = len(ops) / 200.0
        assert mpki == pytest.approx(workload_by_name("mcf").mpki, rel=0.15)

    def test_write_fraction_respected(self):
        ops = list(self.make("lbm", n=200_000))
        writes = sum(op.req_type is RequestType.WRITE for op in ops)
        assert writes / len(ops) == pytest.approx(0.45, abs=0.05)

    def test_positions_strictly_increasing(self):
        ops = list(self.make(n=50_000))
        positions = [op.position for op in ops]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_addresses_in_range(self):
        for op in self.make(n=20_000):
            assert 0 <= op.channel < 4
            assert 0 <= op.rank < 2
            assert 0 <= op.bank < 8
            assert 0 <= op.row < 32768
            assert 0 <= op.column < 128

    def test_row_locality_knob(self):
        def sequential_share(name):
            ops = list(self.make(name, n=300_000))
            seq = sum(
                1 for a, b in zip(ops, ops[1:])
                if b.row == a.row and b.bank == a.bank and b.column == a.column + 1
            )
            return seq / len(ops)

        assert sequential_share("libquantum") > sequential_share("mcf") + 0.3


class TestCoreModel:
    def make_core(self, ops, total=10_000, rob=160, rate=16.0):
        return Core(0, iter(ops), total, rob, rate)

    def test_fetch_rate_limits_issue(self):
        op = TraceOp(1600, RequestType.READ, 0, 0, 0, 0, 0)
        core = self.make_core([op])
        assert core.peek() is op
        # 1600 instructions at 16 per bus cycle -> ready at t=100.
        assert core.fetch_ready_time(op.position) == pytest.approx(100.0)

    def test_window_blocks_behind_outstanding_read(self):
        core = self.make_core([])
        core.track_read(100)
        # Instruction 100+160 cannot enter the ROB until read at 100 done.
        assert core.window_ready_time(261) is None
        # Instruction inside the window is fine.
        assert core.window_ready_time(200) is not None

    def test_read_completion_advances_retirement(self):
        core = self.make_core([])
        core.track_read(100)
        core.on_read_done(100, 50.0)
        assert core.retire_base_pos == 100
        assert core.retire_base_time == pytest.approx(50.0)
        assert core.window_ready_time(300) == pytest.approx(
            50.0 + (300 - 160 - 100) / 16.0
        )

    def test_out_of_order_completions_retire_in_order(self):
        core = self.make_core([])
        core.track_read(10)
        core.track_read(20)
        core.on_read_done(20, 5.0)   # younger finishes first
        assert core.retire_base_pos == 0  # head still blocks
        core.on_read_done(10, 8.0)
        assert core.retire_base_pos == 20
        # Head retired at 8.0; the younger read's data was ready earlier
        # but retirement is in-order.
        assert core.retire_base_time >= 8.0

    def test_finish_requires_drained_state(self):
        core = self.make_core([], total=1600)
        core.trace_done = True
        core.track_read(100)
        assert core.try_finish() is None
        core.on_read_done(100, 10.0)
        finish = core.try_finish()
        assert finish == pytest.approx(10.0 + (1600 - 100) / 16.0)
