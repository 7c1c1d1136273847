"""The bulk trace generator against its spec, and what it shares.

``build_trace_arrays`` must give, field for field, the trace
``SyntheticTrace`` (the scalar spec of the 13-word layout) yields for
the same arguments, including the global rank and bank indices it
precomputes for the event loop.  It caches one generation (a "parse"
in the older test names) per (workload, core), and every geometry of a
grid, whatever its moduli, maps its trace from that generation.  Long
traces keep the behaviour model's statistics.  The last part checks
that a workload with no misses (mpki 0, so small that its mean gap is
astronomically large, or whose first gap passes the end) gives an
empty trace on both engines.
"""

import math

import pytest

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
def generations():
    """Generation-cache misses since the fixture emptied the cache."""
    build_trace_arrays.cache_clear()
    yield lambda: build_trace_arrays.cache_info().misses
    build_trace_arrays.cache_clear()


def _assert_equals_the_spec(bulk, ref, ranks, banks):
    """Every field of ``bulk`` is the one ``ref``'s ops give."""
    assert bulk.positions == [op.position for op in ref]
    assert bulk.writes == [int(op.req_type is RequestType.WRITE)
                           for op in ref]
    global_ranks = [op.channel * ranks + op.rank for op in ref]
    assert bulk.ops == [
        (op.position, w, op.channel, r, r * banks + op.bank,
         op.rank, op.bank, op.row)
        for op, w, r in zip(ref, bulk.writes, global_ranks)
    ]


class TestAgainstReference:
    def test_registered_geometries_are_the_three_lockstep_shapes(self):
        assert [g[:2] for g in REGISTERED] == [(2, 1), (4, 1), (4, 2)]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    @pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
    def test_bulk_trace_equals_the_reference(self, geometry, workload):
        # 20,000 instructions give the sparsest workload (mpki 1) about
        # 20 ops per core.  A negative seed seeds from its magnitude.
        channels, ranks, banks, rows, columns = geometry
        for core, seed in ((0, 2016), (5, 2016), (3, 7), (2, -5)):
            ref = list(SyntheticTrace(workload, 20_000, *geometry,
                                      core=core, seed=seed))
            bulk = build_trace_arrays(workload, 20_000, *geometry,
                                      core=core, seed=seed)
            assert ref, "an empty trace would prove nothing"
            _assert_equals_the_spec(bulk, ref, ranks, banks)

    def test_a_trace_that_outruns_its_estimate_equals_the_reference(
        self, generations, monkeypatch
    ):
        # An estimate of 2 ops makes every trace pull its words again
        # and again from the same stream.
        pulls = []

        def counted(rng, count):
            pulls.append(count)
            return pull(rng, count)

        pull = trace._pull
        monkeypatch.setattr(trace, "_pull", counted)
        monkeypatch.setattr(trace, "_ops_estimate", lambda *args: 2)
        channels, ranks, banks, rows, columns = geometry = REGISTERED[2]
        for workload in SAMPLED:
            del pulls[:]
            bulk = build_trace_arrays(workload, INSTRUCTIONS, *geometry)
            ref = list(SyntheticTrace(workload, INSTRUCTIONS, *geometry))
            assert len(pulls) > 1 and len(ref) > 2
            _assert_equals_the_spec(bulk, ref, ranks, banks)

    def test_bank_indices_beyond_int64_are_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            build_trace_arrays(SAMPLED[0], INSTRUCTIONS, 2**31, 2**31, 4,
                               32768, 128)

    @pytest.mark.parametrize("bad", [0, 2**32 + 1])
    def test_a_modulus_a_word_cannot_map_onto_is_rejected(self, bad):
        geometry = (4, 2, bad, 32768, 128)
        with pytest.raises(ValueError, match="outside"):
            build_trace_arrays(SAMPLED[0], INSTRUCTIONS, *geometry)
        with pytest.raises(ValueError, match="outside"):
            SyntheticTrace(SAMPLED[0], INSTRUCTIONS, *geometry)


class TestParseSharing:
    def test_lockstep_geometries_share_one_parse_per_core(
        self, generations
    ):
        workload = WORKLOADS[0]
        for core in range(SYSTEM.num_cores):
            for geometry in REGISTERED:
                build_trace_arrays(workload, INSTRUCTIONS, *geometry,
                                   core=core)
        assert generations() == SYSTEM.num_cores == 8

    def test_a_non_power_of_two_modulus_shares_a_generation(
        self, generations
    ):
        workload = WORKLOADS[0]
        for geometry in REGISTERED:
            build_trace_arrays(workload, INSTRUCTIONS, *geometry)
        assert generations() == 1
        build_trace_arrays(workload, INSTRUCTIONS, 3, 3, 5, 1000, 128)
        assert generations() == 1
        # Only ``columns`` decides the walk, so it keys the cache.
        build_trace_arrays(workload, INSTRUCTIONS, 4, 2, 8, 32768, 130)
        assert generations() == 2

    def test_moduli_accepting_the_same_words_share_a_parse(
        self, generations
    ):
        # Every modulus maps every word, so 3, 4 and 6 channels read
        # the same words and keep different shares of them.
        workload = WORKLOADS[0]
        for channels in (3, 4, 6):
            ref = list(SyntheticTrace(workload, INSTRUCTIONS, channels, 2, 8,
                                      32768, 128))
            bulk = build_trace_arrays(workload, INSTRUCTIONS, channels, 2,
                                      8, 32768, 128)
            _assert_equals_the_spec(bulk, ref, 2, 8)
        assert generations() == 1

    @pytest.mark.parametrize("workload", SAMPLED, ids=lambda w: w.name)
    def test_the_walk_is_the_same_on_every_fig11_geometry(self, workload):
        # The spec draws the same words for every geometry, and rows
        # and columns have one modulus in all three: positions, write
        # flags and which ops hit or jump (rows and columns) agree.
        walks = [
            [(op.position, op.req_type, op.row, op.column)
             for op in SyntheticTrace(workload, 20_000, *geometry, core=3)]
            for geometry in REGISTERED
        ]
        assert walks[0] and walks[0] == walks[1] == walks[2]

    def test_each_call_derives_a_fresh_trace(self, generations):
        workload = WORKLOADS[0]
        wide = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[2])
        again = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[2])
        narrow = build_trace_arrays(workload, INSTRUCTIONS, *REGISTERED[0])
        assert generations() == 1
        assert again is not wide and again.ops is not wide.ops
        assert again.ops == wide.ops
        # The generation's positions and write flags are shared, read-only.
        assert narrow.positions is wide.positions
        assert narrow.writes is wide.writes

    def test_cache_clear_forces_a_new_parse(self, generations):
        build_trace_arrays(WORKLOADS[0], INSTRUCTIONS, *REGISTERED[0])
        build_trace_arrays.cache_clear()
        assert generations() == 0
        build_trace_arrays(WORKLOADS[0], INSTRUCTIONS, *REGISTERED[0])
        assert generations() == 1

    def test_figs_13_and_14_parse_nothing_after_fig_11(self, generations):
        run_suite(FIG11, instructions_per_core=2_000)
        after_fig11 = generations()
        assert after_fig11 == len(WORKLOADS) * SYSTEM.num_cores
        run_suite(FIG13_14_NEW, instructions_per_core=2_000)
        assert generations() == after_fig11


def _hit_share(rate, columns):
    """The stationary share of row hits under the column rule.

    The open column after a jump is uniform; a hit candidate (``rate``)
    moves it on unless it is the last column, where the op jumps.  The
    column's stationary distribution gives the jump share
    ``J = C (1 - r) / (C - r (1 - r**C) / (1 - r))``.
    """
    if rate == 0.0:
        return 0.0
    r, c = rate, columns
    return 1.0 - c * (1.0 - r) / (c - r * (1.0 - r**c) / (1.0 - r))


def _within_4_se(observed, expected, p, n):
    """``observed`` lies within 4 standard errors of a share ``p`` of ``n``."""
    return abs(observed - expected) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


class TestModelStatistics:
    """Long bulk traces against the behaviour model, to 4 standard errors.

    The geometry is wide (2**30 banks, 2**32 rows), so a jump almost
    never lands where the trace already was: an op hits when its
    location equals the one before, and a jump changes bank when its
    channel, rank or bank does.
    """

    INSTRUCTIONS = 2_000_000
    WIDE = (2**10, 2**10, 2**10, 2**32, 128)

    @pytest.mark.parametrize(
        "workload",
        [workload_by_name(n) for n in ("mcf", "libquantum", "lbm",
                                       "omnetpp", "mummer")],
        ids=lambda w: w.name,
    )
    def test_shares_and_op_count_follow_the_model(self, workload):
        tr = build_trace_arrays(workload, self.INSTRUCTIONS, *self.WIDE,
                                core=1)
        n = len(tr)
        banks = [op[4] for op in tr.ops]  # global bank index
        rows = [op[7] for op in tr.ops]
        jumps = [
            i for i in range(1, n)
            if banks[i] != banks[i - 1] or rows[i] != rows[i - 1]
        ]
        new_bank = sum(banks[i] != banks[i - 1] for i in jumps)

        # Each instruction after the first is an op with probability
        # p = 1 - exp(-mpki / 1000): the count is binomial.  Its mean
        # sits within 1/(2 * mean gap) of instructions / (1 + 1000 /
        # mpki), but over 2e6 instructions that gap exceeds 4 SE.
        p = -math.expm1(-workload.mpki / 1000.0)
        trials = self.INSTRUCTIONS - 1
        assert _within_4_se(n / trials, p, p, trials)
        hit = _hit_share(workload.row_buffer_hit_rate, self.WIDE[4])
        assert _within_4_se(1.0 - len(jumps) / (n - 1), hit, hit, n - 1)
        write = workload.write_fraction
        assert _within_4_se(sum(tr.writes) / n, write, write, n)
        fresh = 1.0 - workload.bank_locality
        assert _within_4_se(new_bank / len(jumps), fresh, fresh, len(jumps))


class TestIdleWorkload:
    IDLE = Workload("idle", "X", 0.0, 0.5, 0.2)
    #: Small enough that the mean gap 1000 / mpki overflows to infinity.
    VANISHING = Workload("vanishing", "X", 1e-310, 0.5, 0.2)
    #: A finite mean gap of 1e308: at seeds 6 and 14 the first
    #: exponential draw exceeds 1.8, so an uncapped gap overflows.
    TINY = Workload("dust", "X", 1e-305, 0.5, 0.2)
    #: A mean gap of 100,000: at seed 2016 the first gap passes the end.
    SPARSE = Workload("sparse", "X", 0.01, 0.5, 0.2)

    @pytest.mark.parametrize(
        "workload, seed",
        [(IDLE, 2016), (VANISHING, 2016), (TINY, 6), (TINY, 14),
         (SPARSE, 2016)],
        ids=["0", "1e-310", "1e-305-seed6", "1e-305-seed14",
             "first-gap-past-the-end"],
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
