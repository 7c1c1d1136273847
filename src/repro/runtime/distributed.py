"""Distributed campaign coordinator and worker (multi-machine shards).

The paper's headline numbers come from ~1e9-system Monte-Carlo
populations; one machine cannot hold that.  This module scales the
resilient executor *out*: a **coordinator** owns the deterministic
shard plan of one experiment and leases index ranges to any number of
**workers** over the length-prefixed JSON protocol of
:mod:`repro.runtime.protocol`.  A worker is a plain lease taker: it
runs every leased shard once, in its own process, through the
executor's per-shard capture, and streams back each shard's record as
a local checkpoint would hold it: the payload plus that shard's own
metrics and trace.  A host uses N cores by running N workers.

The run keeps one set of books, the executor's: the coordinator
completes, checkpoints, charges and finishes shards through the same
:class:`~repro.runtime.executor._RunBooks` as a local run, and so
inherits every guarantee the single-machine runtime already proves:

* **Bit-identity.**  Workers execute subsets of the *same* shard plan
  and ``SeedSequence`` children a single-machine run would build
  (:func:`repro.faultsim.simulator._shard_plan`), and the coordinator
  merges records in plan-index order, so the merged
  :class:`~repro.faultsim.simulator.ReliabilityResult` is bit-identical
  to ``simulate()`` on one machine -- the differential harness asserts
  it in the chaos tests.
* **Exactly-once telemetry.**  A shard's telemetry rides its record
  and is folded once, in plan order, for the record the coordinator
  accepted; a late duplicate of a re-run shard is dropped with its
  telemetry, and a resumed run replays the checkpointed telemetry the
  way a local resume does.
* **Transfer integrity.**  Every result frame carries the checkpoint
  format's per-record SHA-256 digest and is re-verified on receipt
  (:func:`repro.runtime.checkpoint._parse_shard_line`); a corrupted
  transfer is rejected and the shard simply re-runs.
* **Fault tolerance.**  The executor's own scheduler
  (:class:`~repro.runtime.checkpoint.LeaseBook`) and failure path
  charge expired, failed and orphaned shards, so retries, quarantine
  and counters match a local run, and the coordinator's
  ``--max-retries`` is the whole budget (a worker never retries).
  The lease deadline is the one bound on a hung shard.  Worker
  disconnects requeue their outstanding shards, only the connection
  holding a lease may report on it, a failure reported after its
  lease expired is not charged twice, the run ends only once every
  granted lease is closed, and SIGINT/SIGTERM drains to a resumable
  checkpoint exactly like the in-process executor
  (``repro coordinate --resume``).  A worker stopped the same way
  lets its running shard finish and send its record, then exits 130;
  the coordinator requeues the rest as a dropped connection's.
* **Identity.**  The job handshake ships the coordinator's one-scheme
  :class:`~repro.runtime.spec.ExperimentSpec` and its
  :class:`~repro.runtime.checkpoint.RunFingerprint`; each worker parses
  the spec with the constructor the HTTP API uses, recomputes the
  fingerprint locally and refuses on any mismatch, so config or
  code-version skew across machines is caught before a single shard
  runs.  A refused handshake ends the worker with
  :class:`HandshakeError` rather than a re-dial.
"""

from __future__ import annotations

import asyncio
import json
import math
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
    _RunBooks,
    _run_shard_captured,
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
from repro.runtime.spec import ExperimentSpec, SpecError

__all__ = [
    "Coordinator",
    "HandshakeError",
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


class HandshakeError(RuntimeError):
    """A worker and its coordinator could not agree on a job.

    :func:`run_worker` raises it for any failure before the ``job`` is
    accepted (``repro work`` exits 2): re-dialling cannot mend it, as
    it mends a connection lost after the handshake.
    """


def _run_fingerprint(spec: ExperimentSpec) -> RunFingerprint:
    """The run fingerprint of a one-scheme spec on this build."""
    if len(spec.schemes) != 1:
        raise SpecError(
            f"a coordinated run takes exactly one scheme, "
            f"got {len(spec.schemes)}"
        )
    return spec.run_fingerprints()[0]


@dataclass(eq=False)
class _Connection:
    """Coordinator-side state of one worker connection."""

    name: str
    writer: asyncio.StreamWriter


class Coordinator:
    """Serve a one-scheme spec's shard plan to remote workers as leases.

    The coordinator is the distributed twin of the resilient executor
    and keeps the same books (:class:`~repro.runtime.executor._RunBooks`):
    worker connections replace the process pool, and the same
    checkpoint file / :class:`RunOutcome` / exit-code contract applies,
    so ``repro coordinate`` composes with ``--resume``,
    ``--keep-going`` and the provenance export unchanged.  What the
    coordinator keeps itself is wire code: frame validation, duplicate
    and conflict counting, leases, deadlines and connections.

    The listening socket binds in the constructor, so :attr:`address`
    is usable (e.g. to start loopback workers) before :meth:`run` is
    called.  ``run()`` owns an asyncio event loop for the duration and
    returns the merged, plan-ordered result.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
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
        self.fingerprint = _run_fingerprint(spec)
        self._sock = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self.outcome = RunOutcome(
            kind=self.fingerprint.kind, total_shards=spec.num_shards()
        )
        self._books: Optional[_RunBooks] = None
        #: Granted leases not yet closed: each lease, the connection
        #: holding it and its wall/perf start times.
        self._open: Dict[
            int, Tuple[ShardLease, _Connection, float, float]
        ] = {}
        self._connections: List[_Connection] = []
        self._finished: Optional[asyncio.Event] = None
        self._abort: Optional[ShardFailure] = None
        self._ctx: Optional[TraceContext] = None

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> Any:
        """Serve leases until the plan completes; return the merged result.

        The run finishes through the executor's own finish path: it
        raises :class:`ShardFailure` when a shard exhausts its retry
        budget without ``keep_going`` and :class:`RunInterrupted` after
        a signal, exactly like :func:`run_resilient`, and the final
        :class:`RunOutcome` is appended to ``policy.outcomes`` either
        way.
        """
        from repro.faultsim.simulator import ReliabilityResult, _merge_shards

        try:
            with span(
                "runtime.coordinate",
                scheme=self.spec.schemes[0],
                systems=self.spec.systems,
                shards=self.outcome.total_shards,
            ):
                self._ctx = current_context()
                self._books = _RunBooks(
                    self.policy, self.fingerprint, self.outcome,
                    lease_shards=self.lease_shards,
                    lease_timeout_s=self.lease_timeout_s,
                    encode=ReliabilityResult.to_payload,
                    decode=ReliabilityResult.from_payload,
                )
                results = self._books.run(lambda: asyncio.run(self._serve()))
                ((scheme, config),) = self.spec.build_runs()
                return _merge_shards(scheme, config, results)
        finally:
            self._sock.close()

    async def _serve(self) -> None:
        """Accept workers until the run ends; raise the abort that ended it."""
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
        if self._abort is not None:
            raise self._abort

    async def _watchdog(self) -> None:
        """Expire leases and detect the end of the run.

        A done book or a signal ends the run once every granted lease
        is closed (each wait bounded by that lease's deadline).
        """
        books = self._books
        while True:
            now = time.monotonic()
            for lease, _, _, _ in list(self._open.values()):
                if lease.deadline <= now:
                    self._expire_lease(lease, "timeout")
            if self._abort is not None:
                break
            if (books.book.done or books.stopping) and not self._open:
                break
            await asyncio.sleep(_TICK_S)
        assert self._finished is not None
        self._finished.set()

    # -- per-connection protocol -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one worker connection: handshake, then the lease loop."""
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
            # An expired lease's shards were charged at expiry.
            lease_id, index = message.get("lease_id"), message.get("index")
            if self._holds(conn, lease_id) and index in (
                self._books.book.outstanding(lease_id)
            ):
                self._charge(index, str(message.get("reason", "fault")))
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
        books = self._books
        if books.stopping or self._abort is not None or books.book.done:
            await write_message(conn.writer, {"type": "drain"})
            return True
        lease = books.grant(conn.name)
        if lease is None:
            delay = books.book.next_ready_in()
            await write_message(
                conn.writer,
                {"type": "wait", "delay_s": max(_TICK_S, delay or _TICK_S)},
            )
            return True
        self._open[lease.lease_id] = (
            lease, conn, wall_time(), perf_counter()
        )
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
        """Digest-verify one shard record and complete its shard."""
        books = self._books
        record = message.get("record")
        shard = (
            _parse_shard_line(record) if isinstance(record, dict) else None
        )
        result = None
        if shard is not None and 0 <= shard.index < self.outcome.total_shards:
            try:
                result = books.decode(shard.payload)
            except (KeyError, TypeError, ValueError):
                pass
        if result is None:
            # Corrupted in transit (or a lying worker): reject.  The
            # shard stays outstanding and requeues on lease expiry.
            if OBS.enabled:
                OBS.registry.counter("runtime.transfer_rejects").inc()
            log.warning(
                "rejected undecodable/corrupt shard record from %s", conn.name
            )
            return
        held = books.results.get(shard.index)
        if held is None:
            books.complete(shard.index, result, shard.metrics, shard.trace)
        elif books.encode(held) == shard.payload:
            # A re-run of a shard already in (an expired lease's late
            # result): its telemetry is not folded a second time.
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

    def _holds(self, conn: _Connection, lease_id: object) -> bool:
        """Whether ``conn`` holds the open lease ``lease_id``.

        Only the holder may report on a lease; an expired lease is no
        longer open, so its holder's late report is ignored too.
        """
        held = isinstance(lease_id, int) and lease_id in self._open
        return held and self._open[lease_id][1] is conn

    def _lease_done(self, conn: _Connection, message: Dict[str, object]) -> None:
        """Close out a lease; charge whatever it left unaccounted for."""
        lease_id = message.get("lease_id")
        if not self._holds(conn, lease_id):
            return
        outstanding = self._books.book.release(lease_id)
        for index in outstanding:
            # The worker closed the lease without accounting for these
            # (e.g. its result frame was rejected): treat as faults.
            self._charge(index, "fault")
        if OBS.enabled:
            lease = self._open[lease_id][0]
            OBS.trace.record(
                events.LeaseCompleted(lease_id, conn.name, len(lease.shards))
            )
        self._close_lease(lease_id, "done" if not outstanding else "partial")

    def _close_lease(self, lease_id: int, status: str) -> None:
        """Close an open lease; record its span (the lease isn't a frame)."""
        opened = self._open.pop(lease_id, None)
        if opened is None or self._ctx is None or not OBS.enabled:
            return
        _, _, start_wall, start_perf = opened
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

    def _charge(self, index: int, reason: str) -> None:
        """Charge a failed shard; the first exhausted budget aborts the run."""
        self._abort = self._abort or self._books.charge(index, reason)

    def _expire_lease(self, lease: ShardLease, reason: str) -> None:
        """Close an expired/lost lease and charge its outstanding shards."""
        indices = self._books.book.release(lease.lease_id)
        if OBS.enabled:
            OBS.registry.counter("runtime.leases_expired").inc()
            OBS.trace.record(
                events.LeaseExpired(
                    lease.lease_id, lease.worker, len(indices), reason
                )
            )
        for index in indices:
            self._charge(index, reason)
        self._close_lease(lease.lease_id, reason)

    def _drop_connection(self, conn: _Connection) -> None:
        """A worker vanished: close every lease it still held."""
        if conn in self._connections:
            self._connections.remove(conn)
        if OBS.enabled:
            OBS.registry.counter("runtime.workers_disconnected").inc()
        for lease, owner, _, _ in list(self._open.values()):
            if owner is conn:
                self._expire_lease(lease, "crash")
        self._close_connection(conn)

    def _close_connection(self, conn: _Connection) -> None:
        """Best-effort close of one worker connection."""
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


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
    chaos: Optional[ChaosPolicy] = None,
    connect_timeout_s: float = 30.0,
) -> WorkerSummary:
    """Serve one coordinator until drained; returns a summary.

    The worker dials ``host:port``, verifies the job fingerprint
    against its own build, then loops lease -> execute -> stream
    results.  It is a plain lease taker: each leased shard runs once,
    in this process, and the coordinator's books decide every retry,
    timeout and quarantine (its ``--lease-timeout`` reclaims a hung
    shard).  A completed shard's record -- its payload plus that
    shard's own metrics and trace, exactly as a local checkpoint holds
    it -- crosses the wire as soon as the shard completes, and a failed
    shard is reported after the lease's single pass, before its
    ``lease_done``.  A host uses N cores by running N workers.

    The first SIGINT/SIGTERM (in the main thread) drains: the running
    shard finishes and sends its record, the lease stops there, no
    further lease is requested, the connection closes (so the
    coordinator requeues the rest as a dropped connection's) and
    :class:`RunInterrupted` is raised.  A second signal aborts with
    ``KeyboardInterrupt``.

    ``chaos`` applies the *network* verbs at the protocol layer, keyed
    by the campaign-global shard index and the lease's attempt number:
    ``partition`` severs before running, ``crash`` kills the worker
    process (``os._exit``), ``hang`` sleeps past the lease deadline,
    ``fault`` reports the shard failed without running it, ``drop``
    severs instead of sending a computed result, ``delay`` sends late
    and ``duplicate`` sends the frame twice.  Severed connections are
    re-dialled, so one worker survives its own chaos -- exactly what
    the recovery tests need.  Only a connection lost after the
    handshake, or a frame that breaks the protocol, is re-dialled: a
    failed handshake raises :class:`HandshakeError`.
    """
    summary = WorkerSummary(worker=worker_id or f"worker-{os.getpid()}")
    stop: List[str] = []
    first_connect = True
    with _SignalGuard(stop.append):
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
                spec = _handshake(sock, summary.worker, f"{host}:{port}")
                if spec is not None:
                    _serve_connection(sock, spec, summary, chaos, stop)
            except _SeverConnection:
                _abort_socket(sock)
                continue
            except (ProtocolError, ConnectionError, OSError):
                # Coordinator vanished mid-conversation; it may be downing
                # for good (drain) or we raced its shutdown -- either way
                # reconnect once more and exit cleanly if it stays gone.
                continue
            finally:
                sock.close()
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


def _handshake(
    sock: socket.socket, worker: str, coordinator: str
) -> Optional[ExperimentSpec]:
    """Say hello and accept the coordinator's job; ``None`` if it drains.

    Returns the job's spec.  Any other end before the job is accepted
    raises :class:`HandshakeError` naming both sides: an ``error``
    frame, a reply that is not a ``job`` or does not decode, no reply
    within the socket's timeout, a spec
    :meth:`ExperimentSpec.from_dict` rejects, or a run fingerprint that
    differs from this build's.  The worker answers all but the
    ``error`` frame with an ``error`` frame where the socket still
    allows one.  A reset connection is left to the caller's re-dial.
    """
    try:
        send_message(
            sock,
            {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": worker},
        )
        job = recv_message(sock)
        if job is None or job.get("type") == "drain":
            return None
        if job.get("type") != "error":
            return _accept_job(job)
        reason = f"coordinator refused: {job.get('reason')}"
    except (ProtocolError, SpecError, socket.timeout) as exc:
        reason = str(exc)
        try:
            send_message(sock, {"type": "error", "reason": reason})
        except OSError:
            pass
    raise HandshakeError(
        f"handshake of worker {worker} with coordinator {coordinator} "
        f"failed: {reason}"
    )


def _accept_job(job: Dict[str, object]) -> ExperimentSpec:
    """The spec of a ``job`` frame whose fingerprint matches this build's.

    The spec goes through the constructor the HTTP API uses; its
    execution-only ``workers`` and ``chaos`` are ignored, as the
    fingerprint ignores them.
    """
    if job.get("type") != "job":
        raise ProtocolError(f"expected job, got {job.get('type')!r}")
    spec = ExperimentSpec.from_dict(job.get("spec"))
    mine = _run_fingerprint(spec)
    theirs = job.get("fingerprint")
    diffs = mine.mismatches(
        theirs if isinstance(theirs, dict) else {},
        mine="worker", theirs="coordinator",
    )
    if diffs:
        raise ProtocolError(
            "fingerprint mismatch (different config or code version): "
            + "; ".join(diffs)
        )
    if job.get("obs"):
        # Shards capture telemetry only while OBS is on.
        OBS.enabled = True
    return spec


def _serve_connection(
    sock: socket.socket,
    spec: ExperimentSpec,
    summary: WorkerSummary,
    chaos: Optional[ChaosPolicy],
    stop: List[str],
) -> None:
    """The lease loop over one connection past its handshake.

    Returns when the coordinator drains us; raises
    :class:`RunInterrupted` before asking for a lease once ``stop``
    holds a signal name, :class:`ProtocolError` for a malformed
    ``wait`` or ``lease`` frame, and :class:`_SeverConnection` when
    chaos requires severing.
    """
    from repro.faultsim.simulator import _shard_plan

    ((scheme, config),) = spec.build_runs()
    _, plan = _shard_plan(scheme, config, spec.shard_size)
    while True:
        if stop:
            raise RunInterrupted(
                f"worker {summary.worker} interrupted by {stop[0]} after "
                f"{summary.shards_completed} shard(s) over "
                f"{summary.leases} lease(s)",
                signal_name=stop[0],
            )
        send_message(sock, {"type": "ready"})
        message = recv_message(sock)
        if message is None or message.get("type") == "drain":
            return
        mtype = message.get("type")
        if mtype == "wait":
            delay = message.get("delay_s")
            if type(delay) not in (int, float) or not 0 <= delay < math.inf:
                raise ProtocolError(f"malformed wait delay {delay!r}")
            time.sleep(min(1.0, delay))
            continue
        if mtype != "lease":
            raise ProtocolError(f"expected lease/wait/drain, got {mtype!r}")
        summary.leases += 1
        _execute_lease(sock, message, plan, summary, chaos, stop)


def _ints(value: object, low: int, high: float) -> bool:
    """Whether a decoded JSON value is a list of ints in ``[low, high)``."""
    return isinstance(value, list) and all(
        type(item) is int and low <= item < high for item in value
    )


def _parse_lease(
    lease: Dict[str, object], total: int
) -> Tuple[int, List[int], List[int], Optional[TraceContext]]:
    """A ``lease`` frame's id, shard indices, attempts and trace parent.

    Raises :class:`ProtocolError` unless ``lease_id`` is an int,
    ``shards`` a list of indices into the ``total``-shard plan,
    ``attempts`` one positive int per shard and ``trace``, when sent,
    a trace id and a span id.
    """
    lease_id, shards, attempts, trace = (
        lease.get(key) for key in ("lease_id", "shards", "attempts", "trace")
    )
    if not (
        type(lease_id) is int
        and _ints(shards, 0, total)
        and _ints(attempts, 1, math.inf)
        and len(attempts) == len(shards)
        and (trace is None or isinstance(trace, dict) and all(
            isinstance(trace.get(key), str) for key in ("trace_id", "span_id")
        ))
    ):
        raise ProtocolError(
            f"malformed lease for a {total}-shard plan: {lease!r}"
        )
    ctx = TraceContext(trace["trace_id"], trace["span_id"]) if trace else None
    return lease_id, shards, attempts, ctx


def _execute_lease(
    sock: socket.socket,
    lease: Dict[str, object],
    plan: List[tuple],
    summary: WorkerSummary,
    chaos: Optional[ChaosPolicy],
    stop: List[str],
) -> None:
    """Run one lease's shards once each, in lease order, in this process.

    Each shard runs through the executor's per-shard capture with its
    plan index, the lease's attempt number and the lease's trace
    parent, and its record is sent the moment it completes; the capture
    then folds into this process's telemetry.  A shard that raises is
    logged and reported failed after the pass, before ``lease_done``.
    A signal (a name in ``stop``) ends the pass after the running
    shard: failures are still reported, ``lease_done`` is not.
    """
    from repro.faultsim.simulator import _simulate_shard

    lease_id, indices, attempts, ctx = _parse_lease(lease, len(plan))
    pairs = list(zip(indices, attempts))
    # Pre-run chaos verbs, keyed by (global shard index, attempt).
    failed: List[int] = []
    if chaos is not None:
        if any(chaos.should_partition(*pair) for pair in pairs):
            raise _SeverConnection()
        if any(chaos.should_crash(*pair) for pair in pairs):
            os._exit(CRASH_EXIT_CODE)
        for pair in pairs:
            if chaos.should_hang(*pair):
                time.sleep(chaos.hang_s)
        failed = [
            index for index, attempt in pairs
            if chaos.should_fault(index, attempt)
        ]
    for index, attempt in pairs:
        if index in failed:
            continue
        if stop:
            break
        try:
            result, metrics, trace = _run_shard_captured(
                _simulate_shard, plan[index], ctx, index, attempt
            )
        except Exception:
            # The worker outlives a failing shard: the coordinator's
            # books charge it from the shard_failed frame.
            log.warning(
                "shard %d (attempt %d) failed", index, attempt, exc_info=True
            )
            failed.append(index)
            continue
        record = ShardRecord(index, result.to_payload(), metrics, trace)
        frame = {
            "type": "result",
            "lease_id": lease_id,
            "record": json.loads(record.to_line()),
        }
        if chaos is not None and chaos.should_delay(index, attempt):
            time.sleep(chaos.delay_s)
        if chaos is not None and chaos.should_drop(index, attempt):
            raise _SeverConnection()
        send_message(sock, frame)
        if chaos is not None and chaos.should_duplicate(index, attempt):
            send_message(sock, frame)
        summary.shards_completed += 1
        if OBS.enabled:
            if metrics:
                OBS.registry.merge_state(metrics)
            if trace:
                OBS.trace.merge_records(trace)
            if OBS.sampler is not None:
                OBS.sampler.maybe_sample()
    for index in failed:
        send_message(
            sock,
            {"type": "shard_failed", "lease_id": lease_id, "index": index,
             "reason": "fault"},
        )
    summary.shards_failed += len(failed)
    if not stop:
        send_message(sock, {"type": "lease_done", "lease_id": lease_id})
