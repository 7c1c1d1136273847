"""Unit tests for the DES engine, the power model and the runner."""

import pytest

from repro.perfsim.configs import SCHEME_CONFIGS
from repro.perfsim.engine import simulate_system
from repro.perfsim.power import (
    ON_DIE_ECC_CURRENT_SCALE,
    MicronIDD,
    PowerModel,
)
from repro.perfsim.runner import (
    format_figure_table,
    geometric_mean,
    normalized_metric,
    run_benchmark,
    run_suite,
)
from repro.perfsim.timing import SystemTiming
from repro.perfsim.workloads import workload_by_name

N = 15_000  # instructions per core: small but statistically stable


def sim(workload="stream", scheme="ecc_dimm", n=N, seed=3):
    return simulate_system(
        workload_by_name(workload), SCHEME_CONFIGS[scheme],
        instructions_per_core=n, seed=seed,
    )


class TestEngineBasics:
    def test_simulation_completes_and_counts(self):
        r = sim()
        assert r.exec_bus_cycles > 0
        assert r.reads > 0 and r.writes > 0
        assert len(r.core_finish_times) == 8
        assert r.channel_stats.reads_served == r.reads

    def test_deterministic(self):
        assert sim(seed=5).exec_bus_cycles == sim(seed=5).exec_bus_cycles

    def test_seed_changes_results(self):
        # Compare per-core finish vectors on a memory-bound workload;
        # a lightly-loaded run's retire-bound max can coincide.
        a = sim("libquantum", seed=1)
        b = sim("libquantum", seed=2)
        assert a.core_finish_times != b.core_finish_times

    def test_more_instructions_take_longer(self):
        assert sim(n=30_000).exec_bus_cycles > sim(n=10_000).exec_bus_cycles

    def test_memory_heavy_slower_than_light(self):
        heavy = sim("libquantum")
        light = sim("swapt")
        assert heavy.exec_bus_cycles > light.exec_bus_cycles
        assert heavy.ipc < light.ipc

    def test_exec_time_at_least_retire_bound(self):
        r = sim("swapt")
        # 8 cores x N instrs at 16 instr/bus-cycle is the ideal floor.
        assert r.exec_bus_cycles >= N / 16.0

    def test_row_hit_rate_tracks_workload_locality(self):
        streaming = sim("libquantum")
        chasing = sim("mcf")
        assert (
            streaming.channel_stats.row_hit_rate
            > chasing.channel_stats.row_hit_rate + 0.3
        )


class TestSchemeMechanisms:
    def test_xed_identical_to_baseline(self):
        assert sim(scheme="xed").exec_bus_cycles == pytest.approx(
            sim(scheme="ecc_dimm").exec_bus_cycles
        )

    def test_chipkill_slower_than_baseline(self):
        assert (
            sim("libquantum", "chipkill").exec_bus_cycles
            > 1.2 * sim("libquantum", "ecc_dimm").exec_bus_cycles
        )

    def test_double_chipkill_slower_than_chipkill(self):
        assert (
            sim("libquantum", "double_chipkill").exec_bus_cycles
            > sim("libquantum", "chipkill").exec_bus_cycles
        )

    def test_extra_transaction_doubles_read_traffic(self):
        r = sim(scheme="extra_txn_chipkill")
        assert r.companion_reads == r.reads
        assert r.channel_stats.reads_served == 2 * r.reads

    def test_lotecc_issues_companion_writes(self):
        r = sim("lbm", "lotecc")
        assert r.companion_writes == r.writes
        base = sim("lbm", "ecc_dimm")
        assert r.exec_bus_cycles >= base.exec_bus_cycles

    def test_extra_burst_stretches_execution(self):
        base = sim("libquantum", "ecc_dimm")
        burst = sim("libquantum", "extra_burst_chipkill")
        ratio = burst.exec_bus_cycles / base.exec_bus_cycles
        assert 1.0 < ratio < 1.35  # bounded by the +25% bus stretch

    def test_serial_mode_rare_and_cheap(self):
        base = sim("libquantum", "xed")
        scaled = sim("libquantum", "xed_scaling")
        assert scaled.serial_mode_entries <= max(
            5, 10 * 2e-5 * scaled.reads
        )
        overhead = scaled.exec_bus_cycles / base.exec_bus_cycles
        assert overhead < 1.001  # the paper's <0.01% claim

    def test_chipkill_doubles_activate_counter(self):
        base = sim("mcf", "ecc_dimm")
        ck = sim("mcf", "chipkill")
        per_access_base = base.channel_stats.activates / max(
            1, base.channel_stats.reads_served + base.channel_stats.writes_served
        )
        per_access_ck = ck.channel_stats.activates / max(
            1, ck.channel_stats.reads_served + ck.channel_stats.writes_served
        )
        assert per_access_ck > 1.6 * per_access_base


class TestPowerModel:
    def test_breakdown_components_positive_and_sum(self):
        r = sim()
        power = PowerModel().compute(r, SCHEME_CONFIGS["ecc_dimm"])
        parts = [power.background, power.activate, power.read_write,
                 power.refresh]
        assert all(p > 0 for p in parts)
        assert power.total == pytest.approx(sum(parts))

    def test_on_die_ecc_raises_background_by_12_5_percent(self):
        r = sim()
        model = PowerModel()
        with_ecc = model.compute(r, SCHEME_CONFIGS["ecc_dimm"])
        import dataclasses

        plain_cfg = dataclasses.replace(
            SCHEME_CONFIGS["ecc_dimm"], on_die_ecc=False
        )
        without = model.compute(r, plain_cfg)
        assert with_ecc.background / without.background == pytest.approx(
            ON_DIE_ECC_CURRENT_SCALE
        )

    def test_chipkill_power_below_baseline(self):
        base = run_benchmark("libquantum", "ecc_dimm", instructions_per_core=N)
        ck = run_benchmark("libquantum", "chipkill", instructions_per_core=N)
        assert ck.power.total < base.power.total

    def test_idd_defaults_sane(self):
        idd = MicronIDD()
        assert idd.idd4r > idd.idd3n > idd.idd2n

    def test_zero_length_run_rejected(self):
        r = sim()
        import dataclasses

        broken = dataclasses.replace(r, exec_bus_cycles=0.0)
        with pytest.raises(ValueError):
            PowerModel().compute(broken, SCHEME_CONFIGS["ecc_dimm"])


class TestRunner:
    @pytest.fixture(scope="class")
    def grid(self):
        workloads = [workload_by_name(n) for n in ("stream", "gcc")]
        return run_suite(
            ("ecc_dimm", "xed", "chipkill"),
            workloads,
            instructions_per_core=10_000,
        )

    def test_grid_shape(self, grid):
        assert set(grid) == {"stream", "gcc"}
        assert set(grid["stream"]) == {"ecc_dimm", "xed", "chipkill"}

    def test_baseline_normalises_to_one(self, grid):
        norm = normalized_metric(grid, "ecc_dimm")
        assert all(v == pytest.approx(1.0) for v in norm.values())

    def test_power_metric(self, grid):
        norm = normalized_metric(grid, "chipkill", metric="power")
        assert all(0.5 < v < 1.5 for v in norm.values())

    def test_unknown_metric(self, grid):
        with pytest.raises(ValueError):
            normalized_metric(grid, "xed", metric="joy")

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_format_table_has_gmean_row(self, grid):
        text = format_figure_table(grid, ["xed", "chipkill"])
        assert "Gmean" in text and "stream" in text

    def test_run_benchmark_accepts_objects_and_names(self):
        by_name = run_benchmark("gcc", "xed", instructions_per_core=5_000)
        by_obj = run_benchmark(
            workload_by_name("gcc"), SCHEME_CONFIGS["xed"],
            instructions_per_core=5_000,
        )
        assert by_name.exec_bus_cycles == by_obj.exec_bus_cycles
