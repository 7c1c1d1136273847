"""JEDEC DDR3 timing and the Table-V system configuration.

All DRAM parameters are in *memory bus cycles* at 800 MHz (DDR3-1600,
1.25 ns per cycle); the CPU runs at 3.2 GHz, four core cycles per
memory cycle.  Values follow JESD79-3 for a 2Gb DDR3-1600 part -- the
same class of device USIMM's canned configs model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DDR3Timing:
    """DDR3-1600 timing constraints, in memory-bus cycles."""

    tCK_ns: float = 1.25
    tRCD: int = 11      # ACT -> CAS
    tRP: int = 11       # PRE -> ACT
    tCAS: int = 11      # CAS -> first data (CL)
    tCWD: int = 8       # CAS write -> first data (CWL)
    tRAS: int = 28      # ACT -> PRE
    tRC: int = 39       # ACT -> ACT, same bank
    tRRD: int = 5       # ACT -> ACT, different bank, same rank
    tFAW: int = 32      # four-activate window per rank
    tWR: int = 12       # end of write data -> PRE
    tWTR: int = 6       # end of write data -> read CAS, same rank
    tRTP: int = 6       # read CAS -> PRE
    tCCD: int = 4       # CAS -> CAS, same rank
    tRTRS: int = 2      # rank-to-rank data-bus turnaround
    tBURST: int = 4     # 8-beat burst at DDR = 4 bus cycles
    tRFC: int = 88      # refresh cycle time, 2Gb part (110 ns)
    tREFI: int = 6240   # refresh interval (7.8 us)


#: DDR4-2400 timing at a 1200 MHz bus (0.833 ns/cycle), JESD79-4 for a
#: 4Gb part.  The paper notes DRAM with on-die ECC is proposed for
#: DDR3, DDR4 and LPDDR4 alike (Section I); this preset supports
#: forward-looking sensitivity runs.
DDR4_2400 = DDR3Timing(
    tCK_ns=0.833,
    tRCD=17,
    tRP=17,
    tCAS=17,
    tCWD=12,
    tRAS=39,
    tRC=56,
    tRRD=6,
    tFAW=26,
    tWR=18,
    tWTR=9,
    tRTP=9,
    tCCD=4,
    tRTRS=2,
    tBURST=4,
    tRFC=312,   # 260 ns on a 4Gb part
    tREFI=9360,  # 7.8 us
)


#: LPDDR4-3200-class timing at a 1600 MHz bus -- the standard whose
#: first on-die-ECC parts the paper cites (Oh et al., ISSCC 2014).
LPDDR4_3200 = DDR3Timing(
    tCK_ns=0.625,
    tRCD=29,
    tRP=34,
    tCAS=28,
    tCWD=14,
    tRAS=67,
    tRC=101,
    tRRD=16,
    tFAW=64,
    tWR=28,
    tWTR=16,
    tRTP=12,
    tCCD=8,
    tRTRS=4,
    tBURST=8,   # BL16 on LPDDR4
    tRFC=448,
    tREFI=6240,
)


@dataclass(frozen=True)
class SystemTiming:
    """The whole-machine clocking and queue parameters of Table V."""

    ddr: DDR3Timing = DDR3Timing()
    cpu_clock_ghz: float = 3.2
    bus_clock_mhz: float = 800.0
    channels: int = 4
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    rows_per_bank: int = 32 * 1024
    columns_per_row: int = 128
    # Core microarchitecture (Table V).
    num_cores: int = 8
    rob_size: int = 160
    fetch_width: int = 4
    retire_width: int = 4
    # Controller queues (USIMM defaults).
    write_queue_capacity: int = 64
    write_drain_high: int = 40
    write_drain_low: int = 20
    # ECC datapath latencies (Section X): syndrome check 1 core cycle,
    # correction 4, erasure correction 60.
    detect_core_cycles: int = 1
    correct_core_cycles: int = 4
    erasure_correct_core_cycles: int = 60
    #: Row-buffer management: "open" (USIMM default, rows stay open for
    #: FR-FCFS hits) or "closed" (auto-precharge after every access).
    page_policy: str = "open"
    #: Request scheduling: "frfcfs" (row hits first, then oldest -- the
    #: USIMM baseline) or "fcfs" (strict arrival order).
    scheduler: str = "frfcfs"

    @property
    def cpu_cycles_per_bus_cycle(self) -> float:
        """CPU clock cycles per DRAM bus cycle."""
        return self.cpu_clock_ghz * 1000.0 / self.bus_clock_mhz
