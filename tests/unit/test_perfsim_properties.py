"""Hypothesis property suite for the performance simulator.

Four families of properties, each a structural invariant of the
memory-system model rather than a point check:

* request-stream conservation -- every memory operation the trace
  generator emits is retired exactly once, so the engine's read/write
  counters equal the trace lengths for any workload behaviour;
* FR-FCFS fairness -- row hits to the same open row are served in
  arrival (queue) order: the scheduler may prefer hits over misses but
  never reorders *within* the hit stream of a bank;
* timing monotonicity -- raising tRC (bank cycle time) and/or tRFC
  (refresh cycle time) never lowers simulated execution time;
* backend equivalence -- hypothesis-chosen workload behaviours replay
  bit-identically through the scalar and pipeline engines (cycle
  counts, command logs and power), via the differential harness.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfsim.configs import SCHEME_CONFIGS
from repro.perfsim.differential import replay_cell
from repro.perfsim.dramsys import Channel
from repro.perfsim.engine import simulate_system
from repro.perfsim.requests import MemoryRequest, RequestType
from repro.perfsim.timing import SystemTiming
from repro.perfsim.trace import build_trace_arrays
from repro.perfsim.workloads import Workload

# mpki stays strictly positive so every example has traffic to check:
# the trace generator models the gap between misses as geometric with
# mean 1000/mpki, so mpki == 0 means "no memory traffic ever" (an
# infinite gap, hence an empty trace; tests/unit/test_perfsim_trace.py
# runs that case on both engines).
WORKLOADS = st.builds(
    Workload,
    name=st.just("hyp"),
    suite=st.just("SPEC"),
    mpki=st.floats(min_value=0.5, max_value=40.0),
    row_buffer_hit_rate=st.floats(min_value=0.0, max_value=1.0),
    write_fraction=st.floats(min_value=0.0, max_value=1.0),
    bank_locality=st.floats(min_value=0.0, max_value=0.9),
)

#: Scheme keys spanning the three physical geometries (4ch x 2rk,
#: lockstep 4ch x 1rk, half-channel 2ch x 1rk) plus the companion-
#: traffic schemes (XED scaling reads, LOT-ECC write companions).
GEOMETRY_SCHEMES = [
    "ecc_dimm", "xed", "xed_scaling", "chipkill", "double_chipkill",
    "lotecc",
]


class TestRequestConservation:
    @given(workload=WORKLOADS, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_every_trace_op_is_retired_exactly_once(self, workload, seed):
        system = SystemTiming()
        result = simulate_system(
            workload, SCHEME_CONFIGS["ecc_dimm"], system,
            instructions_per_core=2000, seed=seed,
        )
        expected = sum(
            len(build_trace_arrays(
                workload, 2000, system.channels, system.ranks_per_channel,
                system.banks_per_rank, system.rows_per_bank,
                system.columns_per_row, core=core, seed=seed,
            ))
            for core in range(system.num_cores)
        )
        assert result.reads + result.writes == expected
        # ECC-DIMM adds no companion traffic, so the channel-level
        # served counters must conserve the demand stream exactly.
        assert result.companion_reads == 0 and result.companion_writes == 0
        stats = result.channel_stats
        assert stats.reads_served == result.reads
        assert stats.writes_served == result.writes

    @given(workload=WORKLOADS, seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_companion_traffic_rides_on_top_of_demand(self, workload, seed):
        result = simulate_system(
            workload, SCHEME_CONFIGS["lotecc"], SystemTiming(),
            instructions_per_core=2000, seed=seed,
        )
        # LOT-ECC issues one companion per demand write; the served
        # totals must account for demand plus companions, nothing else.
        assert result.companion_writes == result.writes
        stats = result.channel_stats
        assert (
            stats.reads_served + stats.writes_served
            == result.reads + result.writes + result.companion_writes
        )


class TestRowHitFifo:
    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=2, max_size=12
        ),
        row=st.integers(0, 100),
        bank=st.integers(0, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_hits_complete_in_arrival_order(self, offsets, row, bank):
        channel = Channel(SystemTiming(), SCHEME_CONFIGS["ecc_dimm"], 2)
        opener = MemoryRequest(
            req_type=RequestType.READ, core=0, channel=0, rank=0,
            bank=bank, row=row, column=0, arrival=0.0,
        )
        channel.push(opener)
        completed, _ = channel.pump(0.0)
        assert len(completed) == 1
        start = completed[0][1]
        arrivals = sorted(start + off for off in offsets)
        for i, arrival in enumerate(arrivals):
            channel.push(MemoryRequest(
                req_type=RequestType.READ, core=0, channel=0, rank=0,
                bank=bank, row=row, column=1 + i % 100, arrival=arrival,
            ))
        done, wake = channel.pump(arrivals[-1])
        while wake is not None and not channel.idle:
            more, wake = channel.pump(wake)
            done.extend(more)
        # Every request is a hit on the open row; FR-FCFS must serve
        # them strictly first-come-first-served.
        served_arrivals = [req.arrival for req, _ in done]
        assert served_arrivals == arrivals
        assert channel.stats.row_hits == len(arrivals)


class TestTimingMonotonicity:
    @given(
        workload=WORKLOADS,
        scheme=st.sampled_from(GEOMETRY_SCHEMES),
        delta_rc=st.integers(0, 30),
        delta_rfc=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_raising_trc_trfc_never_speeds_execution(
        self, workload, scheme, delta_rc, delta_rfc, seed
    ):
        base = SystemTiming()
        slower_ddr = dataclasses.replace(
            base.ddr, tRC=base.ddr.tRC + delta_rc,
            tRFC=base.ddr.tRFC + delta_rfc,
        )
        slower = dataclasses.replace(base, ddr=slower_ddr)
        config = SCHEME_CONFIGS[scheme]
        fast = simulate_system(workload, config, base,
                               instructions_per_core=2000, seed=seed)
        slow = simulate_system(workload, config, slower,
                               instructions_per_core=2000, seed=seed)
        assert slow.exec_bus_cycles >= fast.exec_bus_cycles - 1e-9


class TestBackendEquivalence:
    @given(
        workload=WORKLOADS,
        scheme=st.sampled_from(GEOMETRY_SCHEMES),
        instructions=st.integers(500, 3000),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_backends_agree_on_random_traces(
        self, workload, scheme, instructions, seed
    ):
        # replay_cell raises PerfsimMismatch on any divergence in cycle
        # counts, counters, command logs or power.
        cert = replay_cell(
            workload, scheme, instructions_per_core=instructions, seed=seed,
        )
        assert cert.exec_bus_cycles > 0
