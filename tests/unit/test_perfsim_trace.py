"""The bulk trace generator against its reference, and what it shares.

``build_trace_arrays`` must give, field for field, the trace
``SyntheticTrace`` yields for the same arguments, including the global
rank and bank indices it precomputes for the event loop.  It caches one
parse of the Mersenne-Twister word stream per (workload, core) and draw
class, so every power-of-two lockstep geometry of a grid derives its
trace from the same parse.  The last part checks that a workload with
no misses (mpki 0, or so small that its mean gap is astronomically
large) gives an empty trace on both engines.
"""

import pytest

from repro import mtwords
from repro.perfsim import trace
from repro.perfsim.configs import SCHEME_CONFIGS
from repro.perfsim.engine import simulate_system
from repro.perfsim.requests import RequestType
from repro.perfsim.runner import run_suite
from repro.perfsim.timing import SystemTiming
from repro.perfsim.trace import SyntheticTrace, build_trace_arrays
from repro.perfsim.workloads import WORKLOADS, Workload, workload_by_name

SYSTEM = SystemTiming()
INSTRUCTIONS = 3_000


def _logical_geometry(config):
    """(channels, ranks, banks, rows, columns) the engines draw over."""
    return (
        max(1, SYSTEM.channels // config.lockstep_channels),
        max(1, SYSTEM.ranks_per_channel // config.lockstep_ranks),
        SYSTEM.banks_per_rank,
        SYSTEM.rows_per_bank,
        SYSTEM.columns_per_row,
    )


REGISTERED = sorted({_logical_geometry(c) for c in SCHEME_CONFIGS.values()})
NON_POWER_OF_TWO = (3, 3, 5, 1000, 130)
ONE_COLUMN = (4, 2, 8, 32768, 1)
GEOMETRIES = REGISTERED + [NON_POWER_OF_TWO, ONE_COLUMN]
SAMPLED = [workload_by_name(n) for n in ("mcf", "libquantum", "lbm", "wrf")]

FIG11 = ("ecc_dimm", "xed", "chipkill", "xed_chipkill", "double_chipkill")
FIG13_14_NEW = (
    "extra_burst_chipkill", "extra_txn_chipkill",
    "extra_burst_double_chipkill", "extra_txn_double_chipkill", "lotecc",
)


@pytest.fixture()
def parses():
    """Parse-cache misses since the fixture emptied the cache."""
    build_trace_arrays.cache_clear()
    yield lambda: build_trace_arrays.cache_info().misses
    build_trace_arrays.cache_clear()


class TestAgainstReference:
    def test_registered_geometries_are_the_three_lockstep_shapes(self):
        assert [g[:2] for g in REGISTERED] == [(2, 1), (4, 1), (4, 2)]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("workload", SAMPLED, ids=lambda w: w.name)
    def test_bulk_trace_equals_the_reference(self, geometry, workload):
        channels, ranks, banks, rows, columns = geometry
        for core, seed in ((0, 2016), (5, 2016), (3, 7)):
            ref = list(SyntheticTrace(workload, INSTRUCTIONS, *geometry,
                                      core=core, seed=seed))
            bulk = build_trace_arrays(workload, INSTRUCTIONS, *geometry,
                                      core=core, seed=seed)
            assert ref, "an empty trace would prove nothing"
            assert bulk.positions == [op.position for op in ref]
            assert bulk.writes == [int(op.req_type is RequestType.WRITE)
                                   for op in ref]
            assert bulk.channels == [op.channel for op in ref]
            assert bulk.ranks == [op.rank for op in ref]
            assert bulk.banks == [op.bank for op in ref]
            assert bulk.rows == [op.row for op in ref]
            global_ranks = [op.channel * ranks + op.rank for op in ref]
            assert bulk.ops == [
                (op.position, w, op.channel, r, r * banks + op.bank,
                 op.rank, op.bank, op.row)
                for op, w, r in zip(ref, bulk.writes, global_ranks)
            ]

    def test_a_trace_that_outruns_its_estimate_equals_the_reference(
        self, parses, monkeypatch
    ):
        # Every op opens a row on a fresh bank, and each of its five
        # power-of-two draws takes two words on average: about 18 words
        # an op against the parse's estimate of 16, so it pulls again.
        streaming = Workload("streaming", "X", 1000.0, 0.0, 0.5)
        pulls = []

        def counted(rng, count):
            pulls.append(count)
            return mtwords.pull_words(rng, count)

        monkeypatch.setattr(trace, "pull_words", counted)
        geometry = REGISTERED[2]
        bulk = build_trace_arrays(streaming, INSTRUCTIONS, *geometry)
        ref = list(SyntheticTrace(streaming, INSTRUCTIONS, *geometry))
        assert len(pulls) > 1
        assert bulk.positions == [op.position for op in ref]
        assert bulk.rows == [op.row for op in ref]
        assert bulk.banks == [op.bank for op in ref]

    def test_bank_indices_beyond_int64_are_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            build_trace_arrays(SAMPLED[0], INSTRUCTIONS, 2**31, 2**31, 4,
                               32768, 128)


class TestParseSharing:
    def test_lockstep_geometries_share_one_parse_per_core(self, parses):
        workload = WORKLOADS[0]
        for core in range(SYSTEM.num_cores):
            for geometry in REGISTERED:
                build_trace_arrays(workload, INSTRUCTIONS, *geometry,
                                   core=core)
        assert parses() == SYSTEM.num_cores == 8

    def test_a_non_power_of_two_modulus_adds_its_own_parse(self, parses):
        workload = WORKLOADS[0]
        for geometry in REGISTERED:
            build_trace_arrays(workload, INSTRUCTIONS, *geometry)
        assert parses() == 1
        build_trace_arrays(workload, INSTRUCTIONS, 3, 2, 8, 32768, 128)
        assert parses() == 2
        build_trace_arrays(workload, INSTRUCTIONS, 3, 2, 8, 32768, 128)
        assert parses() == 2

    def test_moduli_accepting_the_same_words_share_a_parse(self, parses):
        # randrange(3) and randrange(6) both accept words below 3 << 30.
        workload = WORKLOADS[0]
        for channels in (3, 6):
            ref = list(SyntheticTrace(workload, INSTRUCTIONS, channels, 2, 8,
                                      32768, 128))
            bulk = build_trace_arrays(workload, INSTRUCTIONS, channels, 2,
                                      8, 32768, 128)
            assert bulk.channels == [op.channel for op in ref]
        assert parses() == 1

    def test_each_call_derives_a_fresh_trace(self, parses):
        workload = WORKLOADS[0]
        wide = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[2])
        again = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[2])
        narrow = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[0])
        assert parses() == 1
        assert again is not wide and again.ops is not wide.ops
        assert again.ops == wide.ops
        # The parse's positions and write flags are shared, read-only.
        assert narrow.positions is wide.positions
        assert narrow.writes is wide.writes

    def test_cache_clear_forces_a_new_parse(self, parses):
        build_trace_arrays(WORKLOADS[0], INSTRUCTIONS, *REGISTERED[0])
        build_trace_arrays.cache_clear()
        assert parses() == 0
        build_trace_arrays(WORKLOADS[0], INSTRUCTIONS, *REGISTERED[0])
        assert parses() == 1

    def test_figs_13_and_14_parse_nothing_after_fig_11(self, parses):
        run_suite(FIG11, instructions_per_core=2_000)
        after_fig11 = parses()
        assert after_fig11 == len(WORKLOADS) * SYSTEM.num_cores
        run_suite(FIG13_14_NEW, instructions_per_core=2_000)
        assert parses() == after_fig11


class TestIdleWorkload:
    IDLE = Workload("idle", "X", 0.0, 0.5, 0.2)
    #: Small enough that the mean gap 1000 / mpki overflows to infinity.
    VANISHING = Workload("vanishing", "X", 1e-310, 0.5, 0.2)
    #: A finite mean gap of 1e308: at seeds 6 and 14 the first
    #: exponential draw exceeds 1.8, so an uncapped gap overflows.
    TINY = Workload("tiny", "X", 1e-305, 0.5, 0.2)

    @pytest.mark.parametrize(
        "workload, seed",
        [(IDLE, 2016), (VANISHING, 2016), (TINY, 6), (TINY, 14)],
        ids=["0", "1e-310", "1e-305-seed6", "1e-305-seed14"],
    )
    def test_no_misses_give_an_empty_trace(self, workload, seed):
        geometry = REGISTERED[2]
        assert list(SyntheticTrace(workload, INSTRUCTIONS, *geometry,
                                   seed=seed)) == []
        bulk = build_trace_arrays(workload, INSTRUCTIONS, *geometry, seed=seed)
        assert len(bulk) == 0 and bulk.ops == []

    @staticmethod
    def _both_engines(workload):
        results = [
            simulate_system(workload, SCHEME_CONFIGS["ecc_dimm"], SYSTEM,
                            instructions_per_core=5_000, backend=backend)
            for backend in ("scalar", "pipeline")
        ]
        assert results[0].to_payload() == results[1].to_payload()
        return results[1]

    def test_all_idle_cores_finish_at_the_retire_rate(self):
        result = self._both_engines(self.IDLE)
        assert result.reads == result.writes == 0
        assert result.channel_stats.activates == 0
        assert result.core_finish_times == [312.5] * SYSTEM.num_cores

    def test_an_idle_core_in_a_mix_sends_no_traffic(self):
        mcf = workload_by_name("mcf")
        result = self._both_engines([self.IDLE] + [mcf] * 7)
        busy = sum(
            len(build_trace_arrays(
                mcf, 5_000, *REGISTERED[2], core=core, seed=2016,
            ))
            for core in range(1, SYSTEM.num_cores)
        )
        assert result.reads + result.writes == busy > 0
        assert result.core_finish_times[0] == 312.5
        assert min(result.core_finish_times[1:]) > 312.5
