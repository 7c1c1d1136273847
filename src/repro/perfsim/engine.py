"""Discrete-event co-simulation of cores and memory channels.

Glues the :class:`~repro.perfsim.cpu.Core` front-ends to the
:class:`~repro.perfsim.dramsys.Channel` state machines through a single
event heap.  Three event kinds exist:

* ``CORE`` -- a core can try to advance its trace cursor;
* ``CHAN`` -- a channel scheduler should pump its queues;
* ``DONE`` -- a read's data (including any companion transactions)
  reached the core, unblocking retirement.

Scheme-induced companion traffic is generated here: the
extra-transaction ECC fetch per read (Figure 13), LOT-ECC's
checksum-update writes (Figure 14), and XED's rare serial-mode re-read
(Section VII-B, with its MRS round-trip penalty).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs import OBS, get_logger
from repro.perfsim.configs import SchemeConfig
from repro.perfsim.cpu import Core
from repro.perfsim.dramsys import Channel, ChannelStats
from repro.perfsim.requests import MemoryRequest, RequestType
from repro.perfsim.timing import SystemTiming
from repro.perfsim.trace import SyntheticTrace, TraceOp
from repro.perfsim.workloads import Workload

log = get_logger("perfsim.engine")

#: Bus-cycle penalty for a serial-mode episode: MRS write to clear
#: XED-Enable, re-read, MRS write to restore (a few hundred ns).
SERIAL_MODE_PENALTY_BUS_CYCLES = 100.0

_CORE, _CHAN, _DONE = 0, 1, 2

#: Engines behind ``simulate_system(backend=...)``: the pipeline engine
#: runs by default; the scalar walk is the reference the differential
#: harness compares it against.
PERFSIM_BACKENDS = ("scalar", "pipeline")


def validate_perfsim_backend(backend: str) -> str:
    """Validate a perfsim backend name, returning it (ValueError if bad)."""
    if backend not in PERFSIM_BACKENDS:
        raise ValueError(
            f"unknown perfsim backend {backend!r}; "
            f"choose from {', '.join(PERFSIM_BACKENDS)}"
        )
    return backend


@dataclass
class SimulationResult:
    """Outcome of one (workload, scheme) simulation."""

    workload: str
    scheme_key: str
    num_cores: int
    instructions_per_core: int
    exec_bus_cycles: float
    channel_stats: ChannelStats
    reads: int
    writes: int
    companion_reads: int
    companion_writes: int
    serial_mode_entries: int
    core_finish_times: List[float] = field(default_factory=list)
    #: Bus cycle time of the simulated standard (1.25 ns for DDR3-1600).
    bus_cycle_ns: float = 1.25
    #: Per-channel command logs, attached only when the simulation ran
    #: with ``log_commands=True`` (differential/JEDEC auditing).  Not
    #: part of the checkpoint payload.
    command_logs: Optional[list] = None

    @property
    def total_instructions(self) -> int:
        """Instructions retired across all cores."""
        return self.num_cores * self.instructions_per_core

    @property
    def exec_seconds(self) -> float:
        """Simulated wall-clock execution time in seconds."""
        return self.exec_bus_cycles * self.bus_cycle_ns * 1e-9

    @property
    def ipc(self) -> float:
        """Instructions per CPU cycle across the simulation."""
        cpu_cycles = self.exec_bus_cycles * 4.0
        return self.total_instructions / cpu_cycles if cpu_cycles else 0.0

    def normalized_time(self, baseline: "SimulationResult") -> float:
        """Execution time relative to ``baseline`` (1.0 = equal)."""
        return self.exec_bus_cycles / baseline.exec_bus_cycles

    def to_payload(self) -> dict:
        """JSON-serialisable form for checkpoints (drops command logs).

        ``from_payload`` round-trips it exactly: ints stay ints and
        floats stay floats through JSON, so checkpoint records are
        byte-stable regardless of which backend produced the result.
        """
        s = self.channel_stats
        return {
            "workload": self.workload,
            "scheme_key": self.scheme_key,
            "num_cores": self.num_cores,
            "instructions_per_core": self.instructions_per_core,
            "exec_bus_cycles": float(self.exec_bus_cycles),
            "channel_stats": {
                "activates": s.activates,
                "row_hits": s.row_hits,
                "row_misses": s.row_misses,
                "row_conflicts": s.row_conflicts,
                "read_bursts": s.read_bursts,
                "write_bursts": s.write_bursts,
                "bus_busy_cycles": float(s.bus_busy_cycles),
                "refreshes": s.refreshes,
                "reads_served": s.reads_served,
                "writes_served": s.writes_served,
                "sum_read_latency": float(s.sum_read_latency),
            },
            "reads": self.reads,
            "writes": self.writes,
            "companion_reads": self.companion_reads,
            "companion_writes": self.companion_writes,
            "serial_mode_entries": self.serial_mode_entries,
            "core_finish_times": [float(f) for f in self.core_finish_times],
            "bus_cycle_ns": float(self.bus_cycle_ns),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_payload` output."""
        stats = payload["channel_stats"]
        return cls(
            workload=payload["workload"],
            scheme_key=payload["scheme_key"],
            num_cores=payload["num_cores"],
            instructions_per_core=payload["instructions_per_core"],
            exec_bus_cycles=float(payload["exec_bus_cycles"]),
            channel_stats=ChannelStats(
                activates=stats["activates"],
                row_hits=stats["row_hits"],
                row_misses=stats["row_misses"],
                row_conflicts=stats["row_conflicts"],
                read_bursts=stats["read_bursts"],
                write_bursts=stats["write_bursts"],
                bus_busy_cycles=float(stats["bus_busy_cycles"]),
                refreshes=stats["refreshes"],
                reads_served=stats["reads_served"],
                writes_served=stats["writes_served"],
                sum_read_latency=float(stats["sum_read_latency"]),
            ),
            reads=payload["reads"],
            writes=payload["writes"],
            companion_reads=payload["companion_reads"],
            companion_writes=payload["companion_writes"],
            serial_mode_entries=payload["serial_mode_entries"],
            core_finish_times=[float(f) for f in payload["core_finish_times"]],
            bus_cycle_ns=float(payload["bus_cycle_ns"]),
        )


class _Engine:
    def __init__(
        self,
        workload,  # one Workload (rate mode) or a per-core sequence (mix)
        config: SchemeConfig,
        system: SystemTiming,
        instructions_per_core: int,
        seed: int,
    ) -> None:
        if isinstance(workload, Workload):
            per_core = [workload] * system.num_cores
            self.workload_name = workload.name
        else:
            per_core = list(workload)
            if len(per_core) != system.num_cores:
                raise ValueError(
                    f"mixed mode needs {system.num_cores} workloads, "
                    f"got {len(per_core)}"
                )
            self.workload_name = "mix(" + ",".join(w.name for w in per_core) + ")"
        self.per_core_workloads = per_core
        self.config = config
        self.system = system
        self.instructions = instructions_per_core
        self.seed = seed

        self.logical_channels = max(1, system.channels // config.lockstep_channels)
        self.logical_ranks = max(
            1, system.ranks_per_channel // config.lockstep_ranks
        )
        self.channels = [
            Channel(system, config, self.logical_ranks)
            for _ in range(self.logical_channels)
        ]
        rate = system.retire_width * system.cpu_cycles_per_bus_cycle
        self.cores = []
        for core_id in range(system.num_cores):
            trace = SyntheticTrace(
                per_core[core_id],
                instructions_per_core,
                self.logical_channels,
                self.logical_ranks,
                system.banks_per_rank,
                system.rows_per_bank,
                system.columns_per_row,
                core=core_id,
                seed=seed,
            )
            self.cores.append(
                Core(core_id, iter(trace), instructions_per_core, system.rob_size, rate)
            )

        self.heap: List[Tuple[float, int, int, int]] = []
        self._seq = 0
        self._chan_scheduled = [False] * self.logical_channels
        self._wq_waiters: List[List[int]] = [[] for _ in range(self.logical_channels)]
        # (core, pos) -> [remaining parts, latest completion]
        self._pending: Dict[Tuple[int, int], List[float]] = {}
        self._rng = random.Random(seed ^ 0xC0FFEE)
        self.companion_reads = 0
        self.companion_writes = 0
        self.serial_entries = 0
        self.reads = 0
        self.writes = 0

    # -- event plumbing --------------------------------------------------------

    def _post(self, t: float, kind: int, payload: int) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, payload))

    def _kick_channel(self, idx: int, t: float) -> None:
        if not self._chan_scheduled[idx]:
            self._chan_scheduled[idx] = True
            self._post(t, _CHAN, idx)

    # -- request generation -------------------------------------------------------

    def _make_request(
        self, op: TraceOp, core_id: int, arrival: float, companion: bool,
        column_offset: int = 0,
    ) -> MemoryRequest:
        column = (op.column + column_offset) % self.system.columns_per_row
        return MemoryRequest(
            req_type=op.req_type if not companion else RequestType.READ,
            core=core_id,
            channel=op.channel,
            rank=op.rank,
            bank=op.bank,
            row=op.row,
            column=column,
            arrival=arrival,
            instruction_pos=op.position,
            companion=companion,
        )

    def _issue_read(self, core: Core, op: TraceOp, t: float) -> None:
        self.reads += 1
        parts = 1
        penalty = 0.0
        companions: List[MemoryRequest] = []
        if self.config.extra_read_fraction > 0.0 and (
            self.config.extra_read_fraction >= 1.0
            or self._rng.random() < self.config.extra_read_fraction
        ):
            companions.append(self._make_request(op, core.core_id, t, True, 1))
            self.companion_reads += 1
        if (
            self.config.serial_mode_rate > 0.0
            and self._rng.random() < self.config.serial_mode_rate
        ):
            # Serial-mode recovery: a second (serialised) read plus the
            # MRS round trip.
            companions.append(self._make_request(op, core.core_id, t, True, 0))
            penalty = SERIAL_MODE_PENALTY_BUS_CYCLES
            self.serial_entries += 1
        parts += len(companions)
        self._pending[(core.core_id, op.position)] = [float(parts), 0.0, penalty]
        core.track_read(op.position)
        demand = self._make_request(op, core.core_id, t, False)
        channel = self.channels[op.channel]
        channel.push(demand)
        for comp in companions:
            channel.push(comp)

    def _issue_write(self, core: Core, op: TraceOp, t: float) -> None:
        self.writes += 1
        channel = self.channels[op.channel]
        channel.push(self._make_request(op, core.core_id, t, False))
        if self.config.extra_write_fraction > 0.0 and (
            self.config.extra_write_fraction >= 1.0
            or self._rng.random() < self.config.extra_write_fraction
        ):
            # LOT-ECC-style checksum update: a write to the same row.
            channel.push(self._make_request(op, core.core_id, t, True, 1))
            self.companion_writes += 1

    # -- core advancement ------------------------------------------------------------

    def _advance_core(self, core: Core, now: float) -> None:
        core.blocked_window = False
        core.blocked_write_queue = False
        touched_channels = set()
        while True:
            op = core.peek()
            if op is None:
                core.try_finish()
                break
            window_t = core.window_ready_time(op.position)
            if window_t is None:
                core.blocked_window = True
                break
            ready = max(window_t, core.fetch_ready_time(op.position))
            if ready > now:
                self._post(ready, _CORE, core.core_id)
                break
            if op.req_type is RequestType.WRITE:
                channel = self.channels[op.channel]
                if channel.write_queue_full:
                    core.blocked_write_queue = True
                    self._wq_waiters[op.channel].append(core.core_id)
                    break
                self._issue_write(core, op, ready)
            else:
                self._issue_read(core, op, ready)
            touched_channels.add(op.channel)
            core.record_issue(op, ready)
            core.consume()
        for idx in touched_channels:
            self._kick_channel(idx, now)

    # -- channel pumping ---------------------------------------------------------------

    def _pump_channel(self, idx: int, now: float) -> None:
        self._chan_scheduled[idx] = False
        channel = self.channels[idx]
        completed, wake = channel.pump(now)
        for req, done in completed:
            if req.req_type is RequestType.READ:
                self._read_part_done(req, done)
        # Write-queue space may have opened.
        if self._wq_waiters[idx] and not channel.write_queue_full:
            waiters, self._wq_waiters[idx] = self._wq_waiters[idx], []
            for core_id in waiters:
                self._post(now, _CORE, core_id)
        if wake is not None and not channel.idle:
            self._kick_channel(idx, wake)

    def _read_part_done(self, req: MemoryRequest, done: float) -> None:
        key = (req.core, req.instruction_pos)
        entry = self._pending.get(key)
        if entry is None:
            return
        entry[0] -= 1.0
        entry[1] = max(entry[1], done)
        if entry[0] <= 0.0:
            del self._pending[key]
            self._post(entry[1] + entry[2], _DONE, self._encode_done(req))

    def _encode_done(self, req: MemoryRequest) -> int:
        return req.core * (1 << 40) + req.instruction_pos

    def _decode_done(self, payload: int) -> Tuple[int, int]:
        return payload >> 40, payload & ((1 << 40) - 1)

    # -- main loop ----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        started = perf_counter()
        for core in self.cores:
            self._post(0.0, _CORE, core.core_id)
        heap = self.heap
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            if kind == _CORE:
                self._advance_core(self.cores[payload], t)
            elif kind == _CHAN:
                self._pump_channel(payload, t)
            else:
                core_id, pos = self._decode_done(payload)
                core = self.cores[core_id]
                core.on_read_done(pos, t)
                self._advance_core(core, t)

        finish_times = []
        for core in self.cores:
            finish = core.try_finish()
            if finish is None:  # pragma: no cover - simulation invariant
                raise RuntimeError(
                    f"core {core.core_id} never finished "
                    f"(outstanding={len(core.outstanding)})"
                )
            finish_times.append(finish)

        merged = ChannelStats()
        for channel in self.channels:
            s = channel.stats
            merged.activates += s.activates
            merged.row_hits += s.row_hits
            merged.row_misses += s.row_misses
            merged.row_conflicts += s.row_conflicts
            merged.read_bursts += s.read_bursts
            merged.write_bursts += s.write_bursts
            merged.bus_busy_cycles += s.bus_busy_cycles
            merged.refreshes += s.refreshes
            merged.reads_served += s.reads_served
            merged.writes_served += s.writes_served
            merged.sum_read_latency += s.sum_read_latency

        result = SimulationResult(
            workload=self.workload_name,
            scheme_key=self.config.key,
            num_cores=self.system.num_cores,
            instructions_per_core=self.instructions,
            exec_bus_cycles=max(finish_times),
            channel_stats=merged,
            reads=self.reads,
            writes=self.writes,
            companion_reads=self.companion_reads,
            companion_writes=self.companion_writes,
            serial_mode_entries=self.serial_entries,
            core_finish_times=finish_times,
            bus_cycle_ns=self.system.ddr.tCK_ns,
        )
        if OBS.enabled:
            self._observe(result, perf_counter() - started)
        return result

    def _observe(self, result: SimulationResult, wall_s: float) -> None:
        """Command counts and simulated-vs-wall-clock timing telemetry."""
        _observe_simulation(result, wall_s)


def _observe_simulation(result: SimulationResult, wall_s: float) -> None:
    # Shared by both backends so they feed the same perfsim.* telemetry.
    reg = OBS.registry
    reg.counter("perfsim.reads").inc(result.reads)
    reg.counter("perfsim.writes").inc(result.writes)
    reg.counter("perfsim.companion_reads").inc(result.companion_reads)
    reg.counter("perfsim.companion_writes").inc(result.companion_writes)
    reg.counter("perfsim.serial_mode_entries").inc(result.serial_mode_entries)
    reg.counter("perfsim.activates").inc(result.channel_stats.activates)
    reg.counter("perfsim.refreshes").inc(result.channel_stats.refreshes)
    reg.counter("perfsim.instructions").inc(result.total_instructions)
    reg.timer("perfsim.run_s").observe(wall_s)
    reg.gauge("perfsim.simulated_s").set(result.exec_seconds)
    if result.exec_seconds > 0:
        # >1 means the simulator runs slower than the simulated
        # hardware -- the slowdown factor every perf PR tries to cut.
        reg.gauge("perfsim.wall_per_simulated").set(
            wall_s / result.exec_seconds
        )
    log.debug(
        "%s/%s: %d bus cycles (%.3gs simulated) in %.3gs wall",
        result.workload, result.scheme_key,
        int(result.exec_bus_cycles), result.exec_seconds, wall_s,
    )


def simulate_system(
    workload,
    config: SchemeConfig,
    system: Optional[SystemTiming] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    backend: str = "pipeline",
    log_commands: bool = False,
) -> SimulationResult:
    """Run a workload under one scheme config.

    Pass a single :class:`Workload` for the paper's rate-mode
    methodology (all cores execute the same benchmark) or a sequence of
    ``num_cores`` workloads for a multiprogrammed mix.  Execution time
    is when the slowest core retires its last instruction.

    ``backend`` selects the engine: ``"pipeline"`` (the flattened
    transliteration in :mod:`repro.perfsim.pipeline`, the default) or
    ``"scalar"`` (this module's golden reference, which
    :mod:`repro.perfsim.differential` replays against it).  With
    ``log_commands=True`` the result carries per-channel
    :class:`~repro.perfsim.command_log.CommandLog` objects.
    """
    validate_perfsim_backend(backend)
    system = system or SystemTiming()
    if backend == "pipeline":
        from repro.perfsim.pipeline import simulate_system_pipeline

        return simulate_system_pipeline(
            workload, config, system, instructions_per_core, seed,
            log_commands=log_commands,
        )
    engine = _Engine(workload, config, system, instructions_per_core, seed)
    if log_commands:
        for channel in engine.channels:
            channel.enable_command_log()
    result = engine.run()
    if log_commands:
        result.command_logs = [ch.command_log for ch in engine.channels]
    return result
