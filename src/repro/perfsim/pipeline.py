"""Event-driven pipeline backend: the scalar co-simulation, flattened.

:func:`simulate_system_pipeline` replays exactly the computation of the
scalar :func:`~repro.perfsim.engine.simulate_system` -- same event
heap, same FR-FCFS decisions, same companion-traffic RNG draws, same
float operation order -- but with every per-object indirection removed:

* **Flat channel state.**  The per-``Channel``/``RankState``/``BankState``
  object graph becomes parallel lists indexed by a global bank number
  ``gb = (channel * ranks + rank) * banks + bank`` and a global rank
  number ``r = channel * ranks + rank``; the DRAM command walk of
  ``dramsys._issue`` is inlined into the channel pump with all timing
  parameters bound to locals.
* **Tuple requests.**  :class:`~repro.perfsim.requests.MemoryRequest`
  dataclass instances become plain tuples carrying the precomputed
  ``gb``/``r`` indices, so the FR-FCFS row-hit scan is two list loads
  per candidate.
* **One dispatch scope.**  The core-advance and channel-pump event
  handlers are inlined into the event loop itself, so the entire hot
  path runs on local-variable access with no per-event function calls.
* **Bulk traces.**  Per-core instruction streams come from
  :func:`~repro.perfsim.trace.build_trace_arrays`, which replays the
  Mersenne-Twister word stream through numpy.  The replay (a parse) is
  LRU-cached per (workload, core) and draw class, and each call derives
  a fresh trace for the cell's logical geometry from it, so a scheme
  grid parses each (workload, core) stream once for all its lockstep
  shapes.  Derived traces share the parse's ``positions`` and
  ``writes`` lists, which stay read-only.

The backend is certified bit-identical to the scalar engine by
:mod:`repro.perfsim.differential` (cycle counts, per-channel command
logs, channel stats and power accounting for every Figs 11-13 cell),
by the golden corpus (``tests/unit/test_perfsim_golden.py``) and by the
Hypothesis differential property in
``tests/unit/test_perfsim_properties.py``.

Invariants the transliteration preserves (do not "simplify" these):

* heap entries are ``(time, seq + kind, payload)`` where ``seq``
  advances by 4 per event and ``kind`` occupies the two low bits: the
  packed field is strictly monotonic in push order, so it is the same
  tie-break as a separate ``(seq, kind)`` pair with one fewer tuple
  slot per event;
* the companion RNG (``random.Random(seed ^ 0xC0FFEE)``) draws in the
  scalar order: extra-read draw (skipped when the fraction is >= 1.0),
  then serial-mode draw, then extra-write draws on writes;
* LOT-ECC write companions are typed READ (they queue on the read
  queue), matching the scalar ``_make_request(..., companion=True)``;
* per-channel float accumulators (bus busy cycles, read-latency sums)
  accumulate in issue order and merge in channel order;
* refreshes follow the deadline rule of ``dramsys._issue``: an ACT may
  never land at or past ``next_refresh`` -- pending refreshes issue
  first and the ACT is re-planned past the window.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from time import perf_counter
from typing import List, Optional, Sequence, Union

from repro.obs import OBS, get_logger, span
from repro.perfsim.configs import SchemeConfig
from repro.perfsim.dramsys import NEG_INF, Channel, ChannelStats
from repro.perfsim.engine import (
    SERIAL_MODE_PENALTY_BUS_CYCLES,
    SimulationResult,
    _observe_simulation,
)
from repro.perfsim.timing import SystemTiming
from repro.perfsim.trace import build_trace_arrays
from repro.perfsim.workloads import Workload

log = get_logger("perfsim.pipeline")

# Event kinds, packed into the low two bits of the heap sequence field
# (``seq`` itself advances in steps of 4).
_CORE, _CHAN, _DONE = 0, 1, 2
# Command-log record codes (converted to Cmd at the end of a run).
_ACT, _READ, _WRITE, _REFRESH = 0, 1, 2, 3


def simulate_system_pipeline(
    workload: Union[Workload, Sequence[Workload]],
    config: SchemeConfig,
    system: Optional[SystemTiming] = None,
    instructions_per_core: int = 200_000,
    seed: int = 2016,
    log_commands: bool = False,
) -> SimulationResult:
    """Run one (workload, scheme) cell on the pipeline backend.

    Accepts the same arguments as the scalar
    :func:`~repro.perfsim.engine.simulate_system` (a single
    :class:`Workload` or a per-core mix) plus ``log_commands`` to
    attach per-channel :class:`~repro.perfsim.command_log.CommandLog`
    objects to the result for differential/JEDEC auditing.  The
    returned :class:`SimulationResult` is bit-identical to the scalar
    engine's.
    """
    system = system or SystemTiming()
    if isinstance(workload, Workload):
        per_core = [workload] * system.num_cores
        workload_name = workload.name
    else:
        per_core = list(workload)
        if len(per_core) != system.num_cores:
            raise ValueError(
                f"mixed mode needs {system.num_cores} workloads, "
                f"got {len(per_core)}"
            )
        workload_name = "mix(" + ",".join(w.name for w in per_core) + ")"
    started = perf_counter()
    with span(
        "perfsim.pipeline.cell_s", workload=workload_name, scheme=config.key
    ):
        result = _run(
            per_core, workload_name, config, system,
            instructions_per_core, seed, log_commands,
        )
    if OBS.enabled:
        _observe_simulation(result, perf_counter() - started)
        OBS.registry.counter("perfsim.pipeline.cells").inc()
    return result


def _run(
    per_core: List[Workload],
    workload_name: str,
    config: SchemeConfig,
    system: SystemTiming,
    instructions: int,
    seed: int,
    log_commands: bool,
) -> SimulationResult:
    t = system.ddr
    nch = max(1, system.channels // config.lockstep_channels)
    nrk = max(1, system.ranks_per_channel // config.lockstep_ranks)
    nbk = system.banks_per_rank
    ncores = system.num_cores
    rate = system.retire_width * system.cpu_cycles_per_bus_cycle
    rob = system.rob_size
    wq_cap = system.write_queue_capacity
    drain_high = system.write_drain_high
    drain_low = system.write_drain_low
    frfcfs = system.scheduler == "frfcfs"
    closed_page = system.page_policy == "closed"
    scan_depth = Channel.SCAN_DEPTH
    horizon = Channel.HORIZON

    burst = float(config.bus_cycles_per_access)
    physical_scale = config.lockstep_ranks * config.lockstep_channels
    extra_rd = config.extra_read_fraction
    extra_wr = config.extra_write_fraction
    serial_rate = config.serial_mode_rate

    tRCD = t.tRCD
    tRP = t.tRP
    tCAS = t.tCAS
    tCWD = t.tCWD
    tRAS = t.tRAS
    tRRD = t.tRRD
    tFAW = t.tFAW
    tWR = t.tWR
    tWTR = t.tWTR
    tRTP = t.tRTP
    tCCD = t.tCCD
    tRTRS = t.tRTRS
    tRFC = t.tRFC
    tREFI = t.tREFI

    # -- flat DRAM state ----------------------------------------------------
    nranks = nch * nrk
    nbanks = nranks * nbk
    open_row = [-1] * nbanks
    act_ready = [0.0] * nbanks
    cas_ready = [0.0] * nbanks
    pre_ready = [0.0] * nbanks
    act_hist = [deque() for _ in range(nranks)]
    rank_last_act = [NEG_INF] * nranks
    wtr_ready = [0.0] * nranks
    next_refresh = [0.0] * nranks
    for c in range(nch):
        for i in range(nrk):
            # Same stagger expression as Channel.__init__.
            next_refresh[c * nrk + i] = (i + 1) * tREFI / max(1, nrk)

    # Request queues are plain lists consumed through a local head
    # cursor inside the pump (compacted back to index 0 on pump exit):
    # C-speed slice iteration for the FR-FCFS scan, O(1) "popleft".
    read_qs: List[list] = [[] for _ in range(nch)]
    write_qs: List[list] = [[] for _ in range(nch)]
    draining = [False] * nch
    bus_free = [0.0] * nch
    last_bus_rank = [-1] * nch
    bus_busy = [0.0] * nch
    sum_read_lat = [0.0] * nch
    logs: Optional[List[list]] = (
        [[] for _ in range(nch)] if log_commands else None
    )

    # -- flat core state ----------------------------------------------------
    traces = [
        build_trace_arrays(
            per_core[cid], instructions, nch, nrk, nbk,
            system.rows_per_bank, system.columns_per_row,
            core=cid, seed=seed,
        )
        for cid in range(ncores)
    ]
    core_ops = [tr.ops for tr in traces]
    trace_lens = [len(tr.positions) for tr in traces]
    cursor = [0] * ncores
    outstanding = [deque() for _ in range(ncores)]
    retire_base_pos = [0] * ncores
    retire_base_time = [0.0] * ncores
    front_pos = [0] * ncores
    front_time = [0.0] * ncores

    # -- event plumbing -----------------------------------------------------
    heap: list = []
    seq = 0
    chan_scheduled = [False] * nch
    wq_waiters: List[List[int]] = [[] for _ in range(nch)]
    rng_random = random.Random(seed ^ 0xC0FFEE).random

    reads = writes = companion_reads = companion_writes = serial_entries = 0
    activates = row_hits = row_misses = row_conflicts = 0
    read_bursts = write_bursts = refreshes = 0
    reads_served = writes_served = 0

    def apply_refresh(r: int, c: int) -> None:
        # Rare (one per tREFI per rank); everything hot is inlined in
        # the event loop below instead.
        nonlocal refreshes
        start = next_refresh[r]
        end = start + tRFC
        for gb in range(r * nbk, r * nbk + nbk):
            open_row[gb] = -1
            if end > act_ready[gb]:
                act_ready[gb] = end
        next_refresh[r] = start + tREFI
        refreshes += 1
        if logs is not None:
            logs[c].append((_REFRESH, start, r - c * nrk, -1, -1, 0.0, 0.0))

    # -- the event loop -----------------------------------------------------
    # One flat scope: the scalar engine's _advance_core / _pump_channel
    # / _read_part_done bodies are inlined so every piece of simulation
    # state is a local-variable access.  Control flow (and therefore
    # the event sequence) is identical to the scalar engine's.
    push = heappush
    pop = heappop
    for cid in range(ncores):
        seq += 4
        push(heap, (0.0, seq, cid))
    # ``next_event`` is the heap bypass: when a handler schedules an
    # event that would be the very next pop anyway (its time is
    # strictly earlier than the heap top), it is handed straight to the
    # loop head.  The bypass fires only under that strict-ordering
    # check, so the event sequence -- and therefore every simulated
    # decision -- is identical to the always-through-the-heap schedule.
    next_event = None
    while True:
        if next_event is None:
            if not heap:
                break
            now, sk, payload = pop(heap)
        else:
            now, sk, payload = next_event
            next_event = None
        kind = sk & 3
        if kind == _CHAN:
            # ---- channel pump (dramsys.Channel.pump + _issue) ----
            c = payload
            chan_scheduled[c] = False
            rq = read_qs[c]
            wq = write_qs[c]
            # Local head cursors: requests are consumed by advancing a
            # head index (O(1), no element shuffling); the consumed
            # prefix is sliced off once on pump exit so the queues are
            # head-at-zero whenever core-side code looks at them.
            rh = 0
            wh = 0
            lg = logs[c] if logs is not None else None
            bfree = bus_free[c]
            lbr = last_bus_rank[c]
            bb = bus_busy[c]
            srl = sum_read_lat[c]
            while True:
                if bfree > now + horizon:
                    wake = bfree - horizon
                    break
                # _select_queue: drain hysteresis, then read priority.
                queue = None
                is_read = False
                wqn = len(wq) - wh
                if draining[c]:
                    if wqn <= drain_low:
                        draining[c] = False
                    else:
                        queue = wq
                        qh = wh
                if queue is None:
                    if wqn >= drain_high:
                        draining[c] = True
                        queue = wq
                        qh = wh
                    elif len(rq) > rh:
                        queue = rq
                        qh = rh
                        is_read = True
                    elif wqn:
                        queue = wq
                        qh = wh
                    else:
                        wake = None
                        break
                # _select_request: FR-FCFS oldest-row-hit scan.  The
                # head is checked directly (the common hit under row
                # locality); the tail is walked through a C-built list
                # slice -- same candidates, same pick, no per-element
                # indexing cost.
                req = None
                if frfcfs and scan_depth > 0:
                    cand = queue[qh]
                    if open_row[cand[0]] == cand[4]:
                        req = cand
                        qh += 1
                    else:
                        for i, cand in enumerate(
                            queue[qh + 1:qh + scan_depth], qh + 1
                        ):
                            if open_row[cand[0]] == cand[4]:
                                del queue[i]
                                req = cand
                                break
                if req is None:
                    req = queue[qh]
                    qh += 1
                if is_read:
                    rh = qh
                else:
                    wh = qh
                gb, r, rank_i, bank_i, row, arrival, _core_i, track, \
                    dparts = req
                # _maybe_refresh: catch up refreshes the bus idled past.
                while now >= next_refresh[r]:
                    apply_refresh(r, c)
                start = now if now > arrival else arrival
                act_at = None
                if open_row[gb] == row:
                    row_hits += 1
                    cr = cas_ready[gb]
                    cas_min = start if start > cr else cr
                else:
                    # ACTs may not land at or past the refresh deadline
                    # (see dramsys._issue): issue pending refreshes and
                    # re-plan until the ACT clears the window.
                    hist = act_hist[r]
                    while True:
                        if open_row[gb] == -1:
                            conflict = False
                            ar = act_ready[gb]
                            act_at = start if start > ar else ar
                        else:
                            conflict = True
                            pr = pre_ready[gb]
                            pre_at = start if start > pr else pr
                            act_at = pre_at + tRP
                            ar = act_ready[gb]
                            if ar > act_at:
                                act_at = ar
                        cand_t = rank_last_act[r] + tRRD
                        if cand_t > act_at:
                            act_at = cand_t
                        if len(hist) >= 4:
                            faw = hist[0] + tFAW
                            if faw > act_at:
                                act_at = faw
                        if act_at < next_refresh[r]:
                            break
                        apply_refresh(r, c)
                    if conflict:
                        row_conflicts += 1
                    else:
                        row_misses += 1
                    rank_last_act[r] = act_at
                    hist.append(act_at)
                    if len(hist) > 4:
                        hist.popleft()
                    activates += physical_scale
                    open_row[gb] = row
                    pre_ready[gb] = act_at + tRAS
                    cas_min = act_at + tRCD
                if is_read:
                    w = wtr_ready[r]
                    if w > cas_min:
                        cas_min = w
                    data_lat = tCAS
                else:
                    data_lat = tCWD
                switch = tRTRS if lbr != -1 and lbr != rank_i else 0
                ds = cas_min + data_lat
                alt = bfree + switch
                data_start = ds if ds > alt else alt
                cas_at = data_start - data_lat
                data_end = data_start + burst
                bfree = data_end
                lbr = rank_i
                bb += burst
                cas_ready[gb] = cas_at + tCCD
                if is_read:
                    p = cas_at + tRTP
                    if p > pre_ready[gb]:
                        pre_ready[gb] = p
                    read_bursts += 1
                    reads_served += 1
                    srl += data_end - arrival
                    # Read-part completion (inlined _read_part_done).
                    # ``dparts`` rides in the request tuple: 0 for
                    # write companions (nothing waits), 1 for a plain
                    # demand read (done right here), >1 for companion/
                    # serial fan-outs folded through the shared
                    # ``track`` ledger.  The _DONE payload is the ROB
                    # entry itself -- seq uniqueness means heap
                    # comparisons never reach it.
                    if dparts:
                        if dparts == 1:
                            seq += 4
                            push(heap, (data_end, seq + _DONE, track))
                        else:
                            track[0] -= 1.0
                            if data_end > track[1]:
                                track[1] = data_end
                            if track[0] <= 0.0:
                                seq += 4
                                push(heap, (
                                    track[1] + track[2], seq + _DONE,
                                    track[3],
                                ))
                else:
                    p = data_end + tWR
                    if p > pre_ready[gb]:
                        pre_ready[gb] = p
                    w = data_end + tWTR
                    if w > wtr_ready[r]:
                        wtr_ready[r] = w
                    write_bursts += 1
                    writes_served += 1
                if closed_page:
                    open_row[gb] = -1
                    a = pre_ready[gb] + tRP
                    if a > act_ready[gb]:
                        act_ready[gb] = a
                if lg is not None:
                    if act_at is not None:
                        lg.append(
                            (_ACT, act_at, rank_i, bank_i, row, 0.0, 0.0)
                        )
                    lg.append((
                        _READ if is_read else _WRITE,
                        cas_at, rank_i, bank_i, row, data_start, data_end,
                    ))
            if rh:
                del rq[:rh]
            if wh:
                del wq[:wh]
            bus_free[c] = bfree
            last_bus_rank[c] = lbr
            bus_busy[c] = bb
            sum_read_lat[c] = srl
            if wq_waiters[c] and len(wq) < wq_cap:
                waiters = wq_waiters[c]
                wq_waiters[c] = []
                for cid in waiters:
                    seq += 4
                    push(heap, (now, seq, cid))
            if wake is not None and (rq or wq) and not chan_scheduled[c]:
                chan_scheduled[c] = True
                seq += 4
                if not heap or heap[0][0] > wake:
                    next_event = (wake, seq + _CHAN, c)
                else:
                    push(heap, (wake, seq + _CHAN, c))
            continue
        if kind == _DONE:
            # ---- read completion (Core.on_read_done) ----
            entry = payload
            entry[1] = now
            cid = entry[2]
            out = outstanding[cid]
            rbp = retire_base_pos[cid]
            rbt = retire_base_time[cid]
            while out and out[0][1] is not None:
                head = out.popleft()
                hp = head[0]
                linear = rbt + (hp - rbp) / rate
                hd = head[1]
                rbt = hd if hd > linear else linear
                rbp = hp
            retire_base_pos[cid] = rbp
            retire_base_time[cid] = rbt
        else:
            cid = payload
        # ---- core advance (engine._advance_core) ----
        ops = core_ops[cid]
        n = trace_lens[cid]
        cur = cursor[cid]
        out = outstanding[cid]
        rbp = retire_base_pos[cid]
        rbt = retire_base_time[cid]
        fpos = front_pos[cid]
        ftime = front_time[cid]
        # Touched-channel tracking without a per-event set: ``t1`` is
        # the (usual) single channel; ``tmore`` materialises a set only
        # when one batch issues to several channels, built in the same
        # first-occurrence order as the scalar engine's set.
        t1 = -1
        tmore = None
        wake_t = -1.0
        while True:
            if cur >= n:
                break
            pos, wflag, ch, r, gb, rank_i, bank_i, row = ops[cur]
            wpos = pos - rob
            if wpos <= rbp:
                # window_ready_time is 0.0; the fetch constraint (>= 0)
                # dominates the max.
                ready = ftime + (pos - fpos) / rate
            elif out and out[0][0] <= wpos:
                break  # blocked on an incomplete read's retirement
            else:
                window_t = rbt + (wpos - rbp) / rate
                ready = ftime + (pos - fpos) / rate
                if window_t > ready:
                    ready = window_t
            if ready > now:
                # Self-wake at the issue-rate limit; pushed after the
                # channel kicks below.  (Safe to reorder the seq
                # assignment: ready > now strictly, so the wake never
                # ties with the kicks on time.)
                wake_t = ready
                break
            if wflag:
                wq = write_qs[ch]
                if len(wq) >= wq_cap:
                    wq_waiters[ch].append(cid)
                    break
                writes += 1
                wq.append(
                    (gb, r, rank_i, bank_i, row, ready, cid, 0, 0)
                )
                if extra_wr > 0.0 and (
                    extra_wr >= 1.0 or rng_random() < extra_wr
                ):
                    # LOT-ECC checksum update; companions are typed
                    # READ (scalar parity) so it joins the read queue.
                    read_qs[ch].append(
                        (gb, r, rank_i, bank_i, row, ready, cid, 0, 0)
                    )
                    companion_writes += 1
            else:
                reads += 1
                parts = 1
                penalty = 0.0
                if extra_rd > 0.0 and (
                    extra_rd >= 1.0 or rng_random() < extra_rd
                ):
                    parts += 1
                    companion_reads += 1
                if serial_rate > 0.0 and rng_random() < serial_rate:
                    parts += 1
                    penalty = SERIAL_MODE_PENALTY_BUS_CYCLES
                    serial_entries += 1
                entry = [pos, None, cid]
                out.append(entry)
                if parts > 1:
                    track = [float(parts), 0.0, penalty, entry]
                else:
                    track = entry
                rq = read_qs[ch]
                req = (
                    gb, r, rank_i, bank_i, row, ready, cid, track, parts,
                )
                rq.append(req)
                # Companion requests differ from the demand read only
                # in fields the channel ignores (column, flag), so the
                # tuple is shared.  Push order matches the scalar
                # engine: demand, extra-read companion, serial re-read.
                if parts == 3:
                    rq.append(req)
                    rq.append(req)
                elif parts == 2:
                    rq.append(req)
            if tmore is not None:
                tmore.add(ch)
            elif t1 != ch:
                if t1 < 0:
                    t1 = ch
                else:
                    tmore = {t1, ch}
            fpos = pos
            ftime = ready
            cur += 1
        cursor[cid] = cur
        front_pos[cid] = fpos
        front_time[cid] = ftime
        if tmore is None:
            # Overwhelmingly common: the batch issued to one channel.
            # The kick lands at ``now`` and can run inline when nothing
            # in the heap is due at or before it.
            if t1 >= 0 and not chan_scheduled[t1]:
                chan_scheduled[t1] = True
                seq += 4
                if not heap or heap[0][0] > now:
                    next_event = (now, seq + _CHAN, t1)
                else:
                    push(heap, (now, seq + _CHAN, t1))
        else:
            for idx in tmore:
                if not chan_scheduled[idx]:
                    chan_scheduled[idx] = True
                    seq += 4
                    push(heap, (now, seq + _CHAN, idx))
        if wake_t >= 0.0:
            seq += 4
            if next_event is None and (not heap or heap[0][0] > wake_t):
                next_event = (wake_t, seq, cid)
            else:
                push(heap, (wake_t, seq, cid))

    # -- finalisation -------------------------------------------------------
    finish_times = []
    for cid in range(ncores):
        if cursor[cid] < trace_lens[cid] or outstanding[cid]:
            raise RuntimeError(  # pragma: no cover - simulation invariant
                f"core {cid} never finished "
                f"(outstanding={len(outstanding[cid])})"
            )
        finish_times.append(
            retire_base_time[cid]
            + (instructions - retire_base_pos[cid]) / rate
        )

    # Merge per-channel float accumulators in channel order -- the same
    # summation order as the scalar engine's merge loop.
    bus_total = 0.0
    lat_total = 0.0
    for c in range(nch):
        bus_total += bus_busy[c]
        lat_total += sum_read_lat[c]
    merged = ChannelStats(
        activates=activates,
        row_hits=row_hits,
        row_misses=row_misses,
        row_conflicts=row_conflicts,
        read_bursts=read_bursts,
        write_bursts=write_bursts,
        bus_busy_cycles=bus_total,
        refreshes=refreshes,
        reads_served=reads_served,
        writes_served=writes_served,
        sum_read_latency=lat_total,
    )

    result = SimulationResult(
        workload=workload_name,
        scheme_key=config.key,
        num_cores=ncores,
        instructions_per_core=instructions,
        exec_bus_cycles=max(finish_times),
        channel_stats=merged,
        reads=reads,
        writes=writes,
        companion_reads=companion_reads,
        companion_writes=companion_writes,
        serial_mode_entries=serial_entries,
        core_finish_times=finish_times,
        bus_cycle_ns=t.tCK_ns,
    )
    if logs is not None:
        from repro.perfsim.command_log import Cmd, CommandLog, LoggedCommand

        cmd_map = (Cmd.ACT, Cmd.READ, Cmd.WRITE, Cmd.REFRESH)
        command_logs = []
        for rec in logs:
            cl = CommandLog()
            cl.commands = [
                LoggedCommand(cmd_map[k], *rest) for (k, *rest) in rec
            ]
            command_logs.append(cl)
        result.command_logs = command_logs
    if OBS.enabled:
        for c in range(nch):
            with span(
                "perfsim.pipeline.channel_s",
                channel=c, bus_busy_cycles=round(bus_busy[c], 3),
            ):
                pass
    return result
