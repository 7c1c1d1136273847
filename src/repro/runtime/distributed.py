"""Distributed campaign coordinator and worker (multi-machine shards).

The paper's headline numbers come from ~1e9-system Monte-Carlo
populations; one machine cannot hold that.  This module scales the
resilient executor *out*: a **coordinator** owns the deterministic
shard plan of one experiment and leases index ranges to any number of
**workers** over the length-prefixed JSON protocol of
:mod:`repro.runtime.protocol`; each worker executes its leased shards
through the existing :func:`repro.runtime.executor.run_resilient`
machinery and streams back checkpoint-format records.

The design inherits every guarantee the single-machine runtime already
proves:

* **Bit-identity.**  Workers execute subsets of the *same* shard plan
  and ``SeedSequence`` children a single-machine run would build
  (:func:`repro.faultsim.simulator.simulate_shard_range`), and the
  coordinator merges records in plan-index order, so the merged
  :class:`~repro.faultsim.simulator.ReliabilityResult` is bit-identical
  to ``simulate()`` on one machine -- the differential harness asserts
  it in the chaos tests.
* **Transfer integrity.**  Every result frame carries the checkpoint
  format's per-record SHA-256 digest and is re-verified on receipt
  (:func:`repro.runtime.checkpoint._parse_shard_line`); a corrupted
  transfer is rejected and the shard simply re-runs.
* **Fault tolerance.**  Leases expire on a deadline; expired or failed
  shards requeue with the executor's exponential-backoff retry policy,
  poison shards quarantine under ``keep_going``, worker disconnects
  requeue their outstanding shards, and SIGINT/SIGTERM drains to a
  resumable checkpoint exactly like the in-process executor
  (``repro coordinate --resume`` continues where it stopped).
* **Identity.**  The job handshake ships the coordinator's
  :class:`~repro.runtime.checkpoint.RunFingerprint`; each worker
  recomputes the fingerprint from the spec locally and refuses on any
  mismatch, so config or code-version skew across machines is caught
  before a single shard runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct
import time
from dataclasses import dataclass
from time import perf_counter, time as wall_time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import OBS, events, get_logger
from repro.obs.events import SpanClosed
from repro.obs.tracing import TraceContext, current_context, span
from repro.runtime.chaos import CRASH_EXIT_CODE, ChaosPolicy
from repro.runtime.checkpoint import (
    CheckpointStore,
    LeaseBook,
    RunFingerprint,
    ShardLease,
    ShardRecord,
    _parse_shard_line,
)
from repro.runtime.executor import (
    RunInterrupted,
    RunOutcome,
    RuntimePolicy,
    ShardFailure,
    _open_checkpoint,
    _SignalGuard,
)
from repro.runtime.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_message,
    recv_message,
    send_message,
    write_message,
)

__all__ = [
    "JobSpec",
    "Coordinator",
    "WorkerSummary",
    "run_worker",
    "DEFAULT_LEASE_SHARDS",
    "DEFAULT_LEASE_TIMEOUT_S",
]

log = get_logger("runtime.distributed")

#: Shards handed out per lease by default: large enough to amortise a
#: round-trip, small enough that losing a worker loses little work.
DEFAULT_LEASE_SHARDS = 4

#: Default lease deadline.  A lease must comfortably cover
#: ``lease_shards`` shard executions; expiry is a safety net for lost
#: workers, not a pacing mechanism.
DEFAULT_LEASE_TIMEOUT_S = 120.0

#: Watchdog cadence for lease expiry / drain checks, seconds.
_TICK_S = 0.05

#: Scheme key -> repro.faultsim class name (the CLI's vocabulary).
SCHEME_CLASSES = {
    "non_ecc": "NonEccScheme",
    "ecc_dimm": "EccDimmScheme",
    "xed": "XedScheme",
    "chipkill": "ChipkillScheme",
    "xed_chipkill": "XedChipkillScheme",
    "double_chipkill": "DoubleChipkillScheme",
}


@dataclass(frozen=True)
class JobSpec:
    """Portable description of one distributed reliability experiment.

    This is everything a worker needs to rebuild the exact scheme,
    config and shard plan the coordinator holds; it travels in the
    ``job`` handshake message.  The spec deliberately speaks the CLI's
    vocabulary (scheme keys and flag values) rather than pickled
    objects, so coordinator and workers can run different builds and
    still *detect* divergence via the fingerprint check instead of
    silently diverging.
    """

    scheme: str
    num_systems: int
    shard_size: int
    seed: int = 2016
    years: float = 7.0
    scaling_rate: float = 0.0
    scrub_hours: Optional[float] = None
    device_width: int = 8

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for the ``job`` message."""
        return {
            "scheme": self.scheme,
            "num_systems": self.num_systems,
            "shard_size": self.shard_size,
            "seed": self.seed,
            "years": self.years,
            "scaling_rate": self.scaling_rate,
            "scrub_hours": self.scrub_hours,
            "device_width": self.device_width,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec from a ``job`` message payload."""
        return cls(
            scheme=str(data["scheme"]),
            num_systems=int(data["num_systems"]),
            shard_size=int(data["shard_size"]),
            seed=int(data["seed"]),
            years=float(data["years"]),
            scaling_rate=float(data["scaling_rate"]),
            scrub_hours=(
                None if data.get("scrub_hours") is None
                else float(data["scrub_hours"])
            ),
            device_width=int(data["device_width"]),
        )

    def build(self) -> Tuple[Any, Any]:
        """Instantiate ``(scheme, MonteCarloConfig)`` for this spec.

        Imports lazily: :mod:`repro.faultsim.simulator` itself imports
        :mod:`repro.runtime`, so a module-level import here would be
        circular.
        """
        import repro.faultsim as faultsim
        from repro.faultsim.simulator import MonteCarloConfig

        class_name = SCHEME_CLASSES.get(self.scheme)
        if class_name is None:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; "
                f"expected one of {sorted(SCHEME_CLASSES)}"
            )
        scheme = getattr(faultsim, class_name)()
        config = MonteCarloConfig(
            num_systems=self.num_systems,
            years=self.years,
            seed=self.seed,
            scaling_rate=self.scaling_rate,
            scrub_hours=self.scrub_hours,
            device_width=self.device_width,
        )
        return scheme, config

    def fingerprint(self) -> RunFingerprint:
        """The run fingerprint this spec resolves to *on this build*.

        Workers compare their locally computed fingerprint against the
        coordinator's; any field diff (config hash, code version...)
        refuses the job.
        """
        from repro.faultsim.simulator import reliability_fingerprint

        scheme, config = self.build()
        return reliability_fingerprint(scheme, config, self.shard_size)

    def num_shards(self) -> int:
        """Number of shards in the deterministic plan."""
        from repro.faultsim.parallel import plan_shards

        return len(plan_shards(self.num_systems, self.shard_size))


class _Connection:
    """Coordinator-side state of one worker connection."""

    __slots__ = ("name", "writer", "leases")

    def __init__(self, name: str, writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.writer = writer
        self.leases: set = set()


class Coordinator:
    """Serve one experiment's shard plan to remote workers as leases.

    The coordinator is the distributed twin of the resilient executor:
    :class:`~repro.runtime.checkpoint.LeaseBook` replaces the local
    retry queue, worker connections replace the process pool, and the
    same checkpoint file / :class:`RunOutcome` / exit-code contract
    applies, so ``repro coordinate`` composes with ``--resume``,
    ``--keep-going`` and the provenance export unchanged.

    The listening socket binds in the constructor, so :attr:`address`
    is usable (e.g. to start loopback workers) before :meth:`run` is
    called.  ``run()`` owns an asyncio event loop for the duration and
    returns the merged, plan-ordered result.
    """

    def __init__(
        self,
        spec: JobSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_shards: int = DEFAULT_LEASE_SHARDS,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        policy: Optional[RuntimePolicy] = None,
    ) -> None:
        self.spec = spec
        self.policy = policy or RuntimePolicy()
        self.lease_shards = int(lease_shards)
        self.lease_timeout_s = float(lease_timeout_s)
        self.fingerprint = spec.fingerprint()
        self._sock = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self.outcome = RunOutcome(
            kind=self.fingerprint.kind, total_shards=spec.num_shards()
        )
        self._book: Optional[LeaseBook] = None
        self._store: Optional[CheckpointStore] = None
        self._records: Dict[int, ShardRecord] = {}
        self._lease_started: Dict[int, Tuple[float, float]] = {}
        self._lease_sizes: Dict[int, int] = {}
        self._connections: List[_Connection] = []
        self._finished: Optional[asyncio.Event] = None
        self._stop_signal: Optional[str] = None
        self._abort: Optional[ShardFailure] = None
        self._draining = False
        self._ctx: Optional[TraceContext] = None

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> Any:
        """Serve leases until the plan completes; return the merged result.

        Raises :class:`ShardFailure` when a shard exhausts its retry
        budget without ``keep_going`` and :class:`RunInterrupted` after
        a signal-triggered drain -- both with the checkpoint flushed,
        exactly like :func:`run_resilient`.  The final
        :class:`RunOutcome` is appended to ``policy.outcomes`` either
        way.
        """
        try:
            with span(
                "runtime.coordinate",
                scheme=self.spec.scheme,
                systems=self.spec.num_systems,
                shards=self.outcome.total_shards,
            ):
                self._ctx = current_context()
                self._open_book()
                with _SignalGuard(self._on_signal):
                    asyncio.run(self._serve())
                return self._finish()
        finally:
            self._sock.close()

    def _open_book(self) -> None:
        """Create/resume the checkpoint and seed the lease ledger."""
        self._store, self._records = _open_checkpoint(
            self.policy, self.fingerprint, self.outcome
        )
        completed = list(self._records)
        self.outcome.resumed_shards = len(completed)
        # Mirror run_resilient: resumed shards count as completed, so
        # completeness reflects the whole plan.
        self.outcome.completed_shards = len(completed)
        self._book = LeaseBook(
            self.outcome.total_shards,
            seed=self.fingerprint.seed,
            lease_shards=self.lease_shards,
            lease_timeout_s=self.lease_timeout_s,
            max_retries=self.policy.max_retries,
            keep_going=self.policy.keep_going,
            backoff_base_s=self.policy.backoff_base_s,
            backoff_cap_s=self.policy.backoff_cap_s,
            completed=completed,
        )

    def _on_signal(self, name: str) -> None:
        """First SIGINT/SIGTERM: stop granting and drain to checkpoint."""
        self._stop_signal = name
        if OBS.enabled:
            OBS.registry.counter("runtime.interrupts").inc()
            OBS.trace.record(events.RunSignalled(name))
        log.warning("received %s: draining distributed run", name)

    async def _serve(self) -> None:
        """Accept workers and tick the watchdog until the run finishes."""
        self._finished = asyncio.Event()
        self._sock.setblocking(False)
        server = await asyncio.start_server(self._handle, sock=self._sock)
        watchdog = asyncio.ensure_future(self._watchdog())
        try:
            await self._finished.wait()
        finally:
            watchdog.cancel()
            server.close()
            for conn in list(self._connections):
                self._close_connection(conn)
            # The server owns self._sock now; wait_closed after close()
            # releases it cleanly on every supported Python.
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    async def _watchdog(self) -> None:
        """Expire leases, honour signals, and detect completion."""
        assert self._book is not None
        while True:
            for lease, indices in self._book.expire():
                self._expire_lease(lease, indices, "timeout")
            if self._stop_signal is not None and not self._draining:
                self._draining = True
            if self._abort is not None or self._book.done:
                break
            if self._draining and not self._book.active_leases:
                break
            await asyncio.sleep(_TICK_S)
        assert self._finished is not None
        self._finished.set()

    # -- per-connection protocol -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one worker connection: handshake, then the lease loop."""
        assert self._book is not None
        conn: Optional[_Connection] = None
        try:
            hello = await read_message(reader)
            if hello is None or hello.get("type") != "hello":
                await write_message(
                    writer, {"type": "error", "reason": "expected hello"}
                )
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                await write_message(
                    writer,
                    {
                        "type": "error",
                        "reason": (
                            f"protocol {hello.get('protocol')!r} != "
                            f"{PROTOCOL_VERSION}"
                        ),
                    },
                )
                return
            conn = _Connection(str(hello.get("worker", "worker")), writer)
            self._connections.append(conn)
            if OBS.enabled:
                OBS.registry.counter("runtime.workers_connected").inc()
            job: Dict[str, object] = {
                "type": "job",
                "protocol": PROTOCOL_VERSION,
                "spec": self.spec.to_dict(),
                "fingerprint": self.fingerprint.to_dict(),
                "obs": OBS.enabled,
            }
            await write_message(writer, job)
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                if not await self._dispatch(conn, message):
                    break
        except (ProtocolError, ConnectionError, OSError) as exc:
            log.warning(
                "worker connection %s dropped: %s",
                conn.name if conn else "?", exc,
            )
        except asyncio.CancelledError:
            # Loop teardown after the run finished.  Completing normally
            # (rather than ending cancelled) matters on Python < 3.12:
            # asyncio.streams' done-callback calls task.exception() on
            # the handler task, which *raises* for cancelled tasks and
            # spams "Exception in callback" at shutdown.
            pass
        finally:
            if conn is not None:
                self._drop_connection(conn)
            else:
                # Refused at the handshake: an error frame ends the
                # connection, so close it rather than leave the peer
                # waiting until the whole run finishes.
                writer.close()

    async def _dispatch(
        self, conn: _Connection, message: Dict[str, object]
    ) -> bool:
        """Handle one worker message; ``False`` ends the connection."""
        mtype = message.get("type")
        if mtype == "ready":
            return await self._grant(conn)
        if mtype == "result":
            self._receive_result(conn, message)
            return True
        if mtype == "shard_failed":
            index = message.get("index")
            reason = str(message.get("reason", "fault"))
            if isinstance(index, int):
                self.outcome.faults += 1
                self._fail_shard(index, reason)
            return True
        if mtype == "lease_done":
            self._lease_done(conn, message)
            return True
        await write_message(
            conn.writer,
            {"type": "error", "reason": f"unexpected message {mtype!r}"},
        )
        return False

    async def _grant(self, conn: _Connection) -> bool:
        """Answer a ``ready`` with a lease, a wait hint, or drain."""
        assert self._book is not None
        if self._draining or self._abort is not None or self._book.done:
            await write_message(conn.writer, {"type": "drain"})
            return True
        lease = self._book.grant(conn.name)
        if lease is None:
            delay = self._book.next_ready_in()
            if delay is None and not self._book.active_leases:
                # Nothing pending, nothing active, yet not done: every
                # remaining shard is quarantined; tell workers to go.
                await write_message(conn.writer, {"type": "drain"})
                return True
            await write_message(
                conn.writer,
                {"type": "wait", "delay_s": max(_TICK_S, delay or _TICK_S)},
            )
            return True
        conn.leases.add(lease.lease_id)
        self._lease_started[lease.lease_id] = (wall_time(), perf_counter())
        self._lease_sizes[lease.lease_id] = len(lease.shards)
        if OBS.enabled:
            OBS.registry.counter("runtime.leases_granted").inc()
            OBS.trace.record(
                events.LeaseGranted(
                    lease.lease_id, conn.name, len(lease.shards),
                    lease.shards[0],
                )
            )
        message = {
            "type": "lease",
            "lease_id": lease.lease_id,
            "shards": list(lease.shards),
            "attempts": list(lease.attempts),
            "deadline_s": self.lease_timeout_s,
        }
        if self._ctx is not None:
            message["trace"] = {
                "trace_id": self._ctx.trace_id,
                "span_id": self._ctx.child_id(f"L{lease.lease_id}"),
            }
        await write_message(conn.writer, message)
        return True

    def _receive_result(
        self, conn: _Connection, message: Dict[str, object]
    ) -> None:
        """Digest-verify one shard record and bank it."""
        assert self._book is not None
        record = message.get("record")
        shard = (
            _parse_shard_line(record) if isinstance(record, dict) else None
        )
        if shard is None:
            # Corrupted in transit (or a lying worker): reject.  The
            # shard stays outstanding and requeues on lease expiry.
            if OBS.enabled:
                OBS.registry.counter("runtime.transfer_rejects").inc()
            log.warning(
                "rejected undecodable/corrupt shard record from %s", conn.name
            )
            return
        if not 0 <= shard.index < self.outcome.total_shards:
            if OBS.enabled:
                OBS.registry.counter("runtime.transfer_rejects").inc()
            return
        held = self._records.get(shard.index)
        if held is not None:
            if held.to_line() == shard.to_line():
                if OBS.enabled:
                    OBS.registry.counter("runtime.duplicate_results").inc()
            else:
                # Two digest-valid records disagreeing about one shard
                # means non-deterministic workers -- surface loudly.
                if OBS.enabled:
                    OBS.registry.counter("runtime.conflicting_records").inc()
                log.error(
                    "conflicting record for shard %d from %s (kept first)",
                    shard.index, conn.name,
                )
            return
        if self._book.complete(shard.index):
            self._records[shard.index] = shard
            self.outcome.completed_shards += 1
            if self._store is not None:
                self._store.add(
                    shard.index, shard.payload, shard.metrics, shard.trace
                )
                if OBS.enabled:
                    OBS.registry.counter("runtime.checkpoint_writes").inc()

    def _lease_done(self, conn: _Connection, message: Dict[str, object]) -> None:
        """Close out a lease: fold telemetry, requeue whatever is left."""
        assert self._book is not None
        lease_id = message.get("lease_id")
        if not isinstance(lease_id, int):
            return
        conn.leases.discard(lease_id)
        if OBS.enabled:
            metrics = message.get("metrics")
            trace = message.get("trace")
            if isinstance(metrics, dict):
                OBS.registry.merge_state(metrics)
            if isinstance(trace, list):
                OBS.trace.merge_records(trace)
        outstanding = self._book.release(lease_id)
        for index in outstanding:
            # The worker closed the lease without accounting for these
            # (e.g. its result frame was rejected): treat as faults.
            self.outcome.faults += 1
            self._fail_shard(index, "fault")
        if OBS.enabled:
            OBS.trace.record(
                events.LeaseCompleted(
                    lease_id, conn.name, self._lease_sizes.get(lease_id, 0)
                )
            )
        self._lease_sizes.pop(lease_id, None)
        self._close_lease_span(lease_id, "done" if not outstanding else "partial")

    def _close_lease_span(self, lease_id: int, status: str) -> None:
        """Record the per-lease span (manual: the lease isn't a frame)."""
        started = self._lease_started.pop(lease_id, None)
        if started is None or self._ctx is None or not OBS.enabled:
            return
        start_wall, start_perf = started
        OBS.trace.record(
            SpanClosed(
                name="runtime.lease",
                trace_id=self._ctx.trace_id,
                span_id=self._ctx.child_id(f"L{lease_id}"),
                parent_id=self._ctx.span_id,
                start_ts=start_wall,
                duration_s=perf_counter() - start_perf,
                pid=os.getpid(),
                attrs={"lease_id": lease_id, "status": status},
            )
        )

    # -- failure routing ----------------------------------------------------

    def _fail_shard(self, index: int, reason: str) -> None:
        """Route one shard failure through the book's retry contract."""
        assert self._book is not None
        action = self._book.fail(index, reason)
        if action == "retry":
            self.outcome.retries += 1
            count = self._book.failures.get(index, 0)
            if OBS.enabled:
                OBS.registry.counter("runtime.lease_requeues").inc()
                OBS.trace.record(
                    events.ShardRetried(index, count, reason, 0.0)
                )
        elif action == "quarantine":
            self.outcome.quarantined_shards = tuple(self._book.quarantined)
            if OBS.enabled:
                OBS.registry.counter("runtime.shards_quarantined").inc()
                OBS.trace.record(
                    events.ShardQuarantined(
                        index, self._book.failures.get(index, 0), reason
                    )
                )
        elif action == "abort" and self._abort is None:
            self._abort = ShardFailure(
                f"shard {index} failed permanently ({reason}) after "
                f"{self._book.failures.get(index, 0)} attempts",
                shard_index=index,
                reason=reason,
                checkpoint_path=self.outcome.checkpoint_path,
            )

    def _expire_lease(
        self, lease: ShardLease, indices: Tuple[int, ...], reason: str
    ) -> None:
        """Requeue an expired/lost lease's outstanding shards."""
        if OBS.enabled:
            OBS.registry.counter("runtime.leases_expired").inc()
            OBS.trace.record(
                events.LeaseExpired(
                    lease.lease_id, lease.worker, len(indices), reason
                )
            )
        for index in indices:
            if reason == "timeout":
                self.outcome.timeouts += 1
                if OBS.enabled:
                    OBS.registry.counter("runtime.shard_timeouts").inc()
            else:
                self.outcome.crashes += 1
                if OBS.enabled:
                    OBS.registry.counter("runtime.worker_crashes").inc()
            self._fail_shard(index, reason)
        self._close_lease_span(lease.lease_id, reason)

    def _drop_connection(self, conn: _Connection) -> None:
        """A worker vanished: requeue every lease it still held."""
        assert self._book is not None
        if conn in self._connections:
            self._connections.remove(conn)
        if OBS.enabled:
            OBS.registry.counter("runtime.workers_disconnected").inc()
        for lease_id in list(conn.leases):
            lease = next(
                (
                    item for item in self._book.active_leases
                    if item.lease_id == lease_id
                ),
                None,
            )
            indices = self._book.release(lease_id)
            if lease is not None and indices:
                self._expire_lease(lease, indices, "crash")
        conn.leases.clear()
        self._close_connection(conn)

    def _close_connection(self, conn: _Connection) -> None:
        """Best-effort close of one worker connection."""
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    # -- completion ---------------------------------------------------------

    def _finish(self) -> Any:
        """Flush, account the outcome, and merge (or raise)."""
        from repro.faultsim.simulator import ReliabilityResult

        assert self._book is not None
        self.outcome.quarantined_shards = tuple(self._book.quarantined)
        if self._store is not None:
            self._store.flush()
            if OBS.enabled:
                OBS.trace.record(
                    events.CheckpointWritten(
                        str(self._store.path), len(self._records)
                    )
                )
        self.outcome.interrupted = self._stop_signal is not None
        self.outcome.signal_name = self._stop_signal
        self.policy.outcomes.append(self.outcome)
        if self._abort is not None:
            raise self._abort
        if self._stop_signal is not None and not self._book.done:
            raise RunInterrupted(
                f"run interrupted by {self._stop_signal} after "
                f"{len(self._records)}/{self.outcome.total_shards} shards",
                signal_name=self._stop_signal,
                checkpoint_path=self.outcome.checkpoint_path,
            )
        decoded = [
            ReliabilityResult.from_payload(self._records[index].payload)
            for index in sorted(self._records)
        ]
        if not decoded:
            scheme, config = self.spec.build()
            return ReliabilityResult(
                scheme_name=scheme.name,
                num_systems=0,
                years=config.years,
                failure_times_hours=[],
                kinds=[],
            )
        return ReliabilityResult.merge(decoded)


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

@dataclass
class WorkerSummary:
    """What one worker process did before draining."""

    worker: str
    leases: int = 0
    shards_completed: int = 0
    shards_failed: int = 0
    reconnects: int = 0
    drained: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image (printed by ``repro work``)."""
        return {
            "worker": self.worker,
            "leases": self.leases,
            "shards_completed": self.shards_completed,
            "shards_failed": self.shards_failed,
            "reconnects": self.reconnects,
            "drained": self.drained,
        }


class _SeverConnection(Exception):
    """Internal: chaos asked the worker to sever its connection."""


def _connect(
    host: str, port: int, timeout_s: float
) -> Optional[socket.socket]:
    """Dial the coordinator, retrying until ``timeout_s`` elapses.

    Workers routinely start before the coordinator (CI launches them in
    parallel) and reconnect after chaos-injected partitions, so refusal
    here is retried, not fatal.  Returns ``None`` when the deadline
    passes without a connection.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout_s)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.1)


def run_worker(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    workers: int = 1,
    chaos: Optional[ChaosPolicy] = None,
    shard_timeout_s: Optional[float] = None,
    max_retries: int = 3,
    connect_timeout_s: float = 30.0,
) -> WorkerSummary:
    """Serve one coordinator until drained; returns a summary.

    The worker dials ``host:port``, verifies the job fingerprint
    against its own build, then loops lease -> execute -> stream
    results.  Leased shards run through
    :func:`~repro.faultsim.simulator.simulate_shard_range` (and thus
    ``run_resilient``) with ``workers`` local processes; each result
    crosses the wire as a digest-carrying checkpoint record.

    ``chaos`` applies the *network* verbs at the protocol layer, keyed
    by the campaign-global shard index and the lease's attempt number:
    ``partition`` severs before running, ``crash`` kills the worker
    process (``os._exit``), ``hang`` sleeps past the lease deadline,
    ``fault`` reports the shard failed without running it, ``drop``
    severs instead of sending a computed result, ``delay`` sends late
    and ``duplicate`` sends the frame twice.  Severed connections are
    re-dialled, so one worker survives its own chaos -- exactly what
    the recovery tests need.
    """
    name = worker_id or f"worker-{os.getpid()}"
    summary = WorkerSummary(worker=name)
    first_connect = True
    while True:
        sock = _connect(host, port, connect_timeout_s)
        if sock is None:
            if first_connect:
                raise ConnectionError(
                    f"could not reach coordinator at {host}:{port} "
                    f"within {connect_timeout_s}s"
                )
            return summary  # coordinator gone after a drop: we're done
        if not first_connect:
            summary.reconnects += 1
        first_connect = False
        try:
            drained = _serve_connection(
                sock, name, summary,
                workers=workers,
                chaos=chaos,
                shard_timeout_s=shard_timeout_s,
                max_retries=max_retries,
            )
        except _SeverConnection:
            _abort_socket(sock)
            continue
        except (ProtocolError, ConnectionError, OSError):
            # Coordinator vanished mid-conversation; it may be downing
            # for good (drain) or we raced its shutdown -- either way
            # reconnect once more and exit cleanly if it stays gone.
            try:
                sock.close()
            except OSError:
                pass
            continue
        else:
            sock.close()
            if drained:
                summary.drained = True
                return summary


def _abort_socket(sock: socket.socket) -> None:
    """Sever a connection abruptly (RST, no FIN) for partition chaos."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:  # pragma: no cover - platform without SO_LINGER
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover
        pass


def _serve_connection(
    sock: socket.socket,
    name: str,
    summary: WorkerSummary,
    workers: int,
    chaos: Optional[ChaosPolicy],
    shard_timeout_s: Optional[float],
    max_retries: int,
) -> bool:
    """Handshake + lease loop over one live connection.

    Returns ``True`` when the coordinator drained us (clean exit),
    ``False`` never (errors raise).  Raises :class:`_SeverConnection`
    when chaos requires severing.
    """
    send_message(
        sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": name}
    )
    job = recv_message(sock)
    if job is None or job.get("type") == "drain":
        return True
    if job.get("type") == "error":
        raise ProtocolError(f"coordinator refused: {job.get('reason')}")
    if job.get("type") != "job":
        raise ProtocolError(f"expected job, got {job.get('type')!r}")
    spec = JobSpec.from_dict(job["spec"])
    theirs = job.get("fingerprint")
    mine = spec.fingerprint()
    diffs = mine.mismatches(theirs if isinstance(theirs, dict) else {})
    if diffs:
        send_message(
            sock,
            {
                "type": "error",
                "reason": "fingerprint mismatch: " + "; ".join(diffs),
            },
        )
        raise RuntimeError(
            "coordinator/worker fingerprint mismatch (different config "
            "or code version): " + "; ".join(diffs)
        )
    obs_enabled = bool(job.get("obs"))
    scheme, config = spec.build()
    local_policy = RuntimePolicy(
        shard_timeout_s=shard_timeout_s,
        max_retries=max_retries,
        keep_going=True,
    )
    while True:
        send_message(sock, {"type": "ready"})
        message = recv_message(sock)
        if message is None or message.get("type") == "drain":
            return True
        mtype = message.get("type")
        if mtype == "wait":
            time.sleep(min(1.0, float(message.get("delay_s", _TICK_S))))
            continue
        if mtype != "lease":
            raise ProtocolError(f"expected lease/wait/drain, got {mtype!r}")
        summary.leases += 1
        _execute_lease(
            sock, message, scheme, config, spec, summary,
            workers=workers,
            chaos=chaos,
            policy=local_policy,
            obs_enabled=obs_enabled,
        )


def _execute_lease(
    sock: socket.socket,
    lease: Dict[str, object],
    scheme: Any,
    config: Any,
    spec: JobSpec,
    summary: WorkerSummary,
    workers: int,
    chaos: Optional[ChaosPolicy],
    policy: RuntimePolicy,
    obs_enabled: bool,
) -> None:
    """Run one lease's shards and stream the records back."""
    from repro.faultsim.simulator import simulate_shard_range

    indices = [int(i) for i in lease.get("shards", [])]
    attempts = [int(a) for a in lease.get("attempts", [1] * len(indices))]
    lease_id = lease.get("lease_id")
    # Pre-run chaos verbs, keyed by (global shard index, attempt).
    if chaos is not None:
        for index, attempt in zip(indices, attempts):
            if chaos.should_partition(index, attempt):
                raise _SeverConnection()
        for index, attempt in zip(indices, attempts):
            if chaos.should_crash(index, attempt):
                os._exit(CRASH_EXIT_CODE)
        for index, attempt in zip(indices, attempts):
            if chaos.should_hang(index, attempt):
                time.sleep(chaos.hang_s)
    faulted = []
    if chaos is not None:
        faulted = [
            index
            for index, attempt in zip(indices, attempts)
            if chaos.should_fault(index, attempt)
        ]
    runnable = [i for i in indices if i not in faulted]

    OBS.reset()
    OBS.enabled = obs_enabled
    OBS.progress_enabled = False
    trace = lease.get("trace")
    lease_ctx = (
        TraceContext(str(trace["trace_id"]), str(trace["span_id"]))
        if isinstance(trace, dict)
        else None
    )
    try:
        with span(
            "runtime.worker_lease",
            ctx=lease_ctx,
            worker=summary.worker,
            shards=len(runnable),
        ):
            results = simulate_shard_range(
                scheme,
                config,
                indices=runnable,
                shard_size=spec.shard_size,
                workers=workers,
                runtime=policy,
            )
    except Exception as exc:  # a whole-lease failure: report every shard
        log.warning("lease %s failed wholesale: %s", lease_id, exc)
        results = {}
    attempt_of = dict(zip(indices, attempts))
    for index in indices:
        if index in results:
            record = ShardRecord(
                index=index, payload=results[index].to_payload()
            )
            frame = {
                "type": "result",
                "lease_id": lease_id,
                "record": json.loads(record.to_line()),
            }
            attempt = attempt_of.get(index, 1)
            if chaos is not None and chaos.should_delay(index, attempt):
                time.sleep(chaos.delay_s)
            if chaos is not None and chaos.should_drop(index, attempt):
                raise _SeverConnection()
            send_message(sock, frame)
            if chaos is not None and chaos.should_duplicate(index, attempt):
                send_message(sock, frame)
            summary.shards_completed += 1
        else:
            send_message(
                sock,
                {
                    "type": "shard_failed",
                    "lease_id": lease_id,
                    "index": index,
                    "reason": "fault",
                },
            )
            summary.shards_failed += 1
    done: Dict[str, object] = {"type": "lease_done", "lease_id": lease_id}
    if obs_enabled:
        done["metrics"] = OBS.registry.state()
        done["trace"] = OBS.trace.to_records()
    send_message(sock, done)
