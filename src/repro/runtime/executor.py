"""The shard executor (retry, timeout, resume, drain).

:func:`run_resilient` is the one executor every engine runs its
deterministic shard plan through -- Monte-Carlo reliability,
behavioural campaigns, the perfsim grid, distributed worker leases and
service jobs -- in-process at ``workers=1`` or on a process pool,
taking single-shard leases from the distributed coordinator's
scheduler, :class:`~repro.runtime.checkpoint.LeaseBook`.  A run's
books (checkpoint, completion, failure charging, signal and finish)
are one :class:`_RunBooks`, which the distributed coordinator keeps as
well, so a coordinated run accounts for its shards exactly as a local
one.  Runs without an explicit or ambient :class:`RuntimePolicy` get
the defaults (no checkpoint, no timeout, 3 retries), so every run
survives the failure modes that kill a multi-hour campaign in
practice --

* **Worker crashes** (OOM kill, segfault, ``os._exit``) surface as
  ``BrokenProcessPool``; the pool is rebuilt and the affected shards
  retried with exponential backoff plus deterministic jitter, up to a
  per-shard retry budget; the other shards run meanwhile.
* **Hangs** are bounded by a per-shard timeout; a deadline miss
  terminates the pool (the only way to reclaim a truly wedged worker),
  re-queues the innocent in-flight shards without penalty, and charges
  a failure to the hung one.
* **Permanent failures** either abort the run with the checkpoint
  flushed (:class:`ShardFailure`) or -- under ``keep_going`` -- are
  quarantined so the run completes with an explicit completeness
  fraction instead of dying at 99%.
* **Signals**: SIGINT/SIGTERM stop dispatch, drain in-flight shards,
  flush a final checkpoint and raise :class:`RunInterrupted` (also when
  the signal lands after the last shard completed); a second signal
  aborts immediately.
* **Checkpoint/resume**: every completed shard is atomically persisted
  (result payload + obs delta) through
  :class:`repro.runtime.checkpoint.CheckpointStore`; a resumed run
  replays completed shards from disk and re-executes exactly the
  missing ones, so the merged result is bit-identical to an
  uninterrupted run.

Because shard outcomes depend only on the plan (never on scheduling,
retries, or which attempt finally succeeded), every recovery path
preserves bit-identical merged results -- the property the chaos suite
(:mod:`repro.runtime.chaos`) asserts end to end.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from time import time as wall_time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.obs import OBS, TelemetryScope, events
from repro.obs.tracing import TraceContext, current_context, shard_span
from repro.runtime.chaos import ChaosCrash, ChaosHang, ChaosPolicy
from repro.runtime.checkpoint import (
    CheckpointStore,
    LeaseBook,
    RunFingerprint,
    ShardLease,
    ShardRecord,
    backoff_delay,
)

if TYPE_CHECKING:  # pragma: no cover - loaded by pool runs only
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "RuntimePolicy",
    "RunOutcome",
    "ShardFailure",
    "RunInterrupted",
    "run_resilient",
    "use_policy",
    "current_policy",
]

#: Granularity of interruptible sleeps / future polling, seconds.
_POLL_S = 0.05


class ShardFailure(RuntimeError):
    """A shard exhausted its retry budget with ``keep_going`` off.

    By the time this propagates the checkpoint (if any) holds every
    shard that *did* complete, so the run is resumable after the root
    cause is fixed; ``checkpoint_path`` says from where.
    """

    def __init__(
        self,
        message: str,
        shard_index: int,
        reason: str,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.reason = reason
        self.checkpoint_path = checkpoint_path


class RunInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped a run after a clean drain and flush.

    ``checkpoint_path`` (when checkpointing was on) is the file a
    ``--resume`` can continue from; the CLI prints the exact command.
    """

    def __init__(
        self,
        message: str,
        signal_name: str,
        checkpoint_path: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.signal_name = signal_name
        self.checkpoint_path = checkpoint_path


@dataclass
class RunOutcome:
    """What actually happened to one resilient run.

    ``completeness`` is the fraction of planned shards whose results
    made it into the merged output -- 1.0 for a clean or fully-recovered
    run, less when ``keep_going`` quarantined permanently-failing
    shards.  Counters mirror the ``runtime.*`` metrics.
    """

    kind: str
    total_shards: int
    completed_shards: int = 0
    resumed_shards: int = 0
    quarantined_shards: Tuple[int, ...] = ()
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    faults: int = 0
    interrupted: bool = False
    signal_name: Optional[str] = None
    checkpoint_path: Optional[str] = None
    discarded_records: int = 0

    @property
    def completeness(self) -> float:
        """Completed fraction of the shard plan (1.0 when nothing lost)."""
        if self.total_shards == 0:
            return 1.0
        return self.completed_shards / self.total_shards

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready image (exported as result provenance)."""
        return {
            "kind": self.kind,
            "total_shards": self.total_shards,
            "completed_shards": self.completed_shards,
            "resumed_shards": self.resumed_shards,
            "quarantined_shards": list(self.quarantined_shards),
            "completeness": self.completeness,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "faults": self.faults,
            "interrupted": self.interrupted,
            "signal": self.signal_name,
            "checkpoint": self.checkpoint_path,
            "discarded_records": self.discarded_records,
        }


@dataclass
class RuntimePolicy:
    """Fault-tolerance knobs for a run (the CLI's runtime flag bundle).

    ``checkpoint_dir``/``resume_dir`` name a *directory*; each sub-run
    (one scheme of a reliability sweep, one campaign) derives its own
    file inside it from its :meth:`RunFingerprint.slug`, so one
    ``--checkpoint`` flag covers multi-run commands.  When only
    ``resume_dir`` is given, new checkpoints keep flowing to the same
    directory so an interrupted resume is itself resumable.  Completed
    runs append their :class:`RunOutcome` to ``outcomes`` for exit-code
    and provenance reporting.

    ``on_shard_complete``/``on_shard_retry`` are live progress hooks
    for a supervising caller (the campaign service's job status
    endpoint): the executor invokes them in the dispatching process --
    never in pool workers -- as ``(shard_index, completed_count,
    total_shards)`` after every completed or replayed shard and
    ``(shard_index, failure_count, reason)`` after every scheduled
    retry.  Hooks must be fast and must not raise; they observe the
    run, they do not steer it.
    """

    checkpoint_dir: Optional[str] = None
    resume_dir: Optional[str] = None
    shard_timeout_s: Optional[float] = None
    max_retries: int = 3
    keep_going: bool = False
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    chaos: Optional[ChaosPolicy] = None
    outcomes: List[RunOutcome] = field(default_factory=list)
    on_shard_complete: Optional[Callable[[int, int, int], None]] = None
    on_shard_retry: Optional[Callable[[int, int, str], None]] = None

    @property
    def storage_dir(self) -> Optional[str]:
        """Directory that receives checkpoints (checkpoint or resume)."""
        return self.checkpoint_dir or self.resume_dir

    def checkpoint_path_for(self, fingerprint: RunFingerprint) -> Optional[Path]:
        """This run's checkpoint file, or ``None`` when not persisting."""
        directory = self.storage_dir
        if directory is None:
            return None
        return Path(directory) / f"{fingerprint.slug()}.ckpt"

    @property
    def quarantined_total(self) -> int:
        """Quarantined shard count across every recorded outcome."""
        return sum(len(o.quarantined_shards) for o in self.outcomes)

    @property
    def worst_completeness(self) -> float:
        """Lowest completeness across recorded outcomes (1.0 if none)."""
        if not self.outcomes:
            return 1.0
        return min(o.completeness for o in self.outcomes)


#: Ambient policy installed by :func:`use_policy` (None = no ambient
#: policy: :func:`run_resilient` then runs under ``RuntimePolicy()``).
_AMBIENT: List[Optional[RuntimePolicy]] = [None]


class use_policy:
    """Context manager installing an ambient :class:`RuntimePolicy`.

    :func:`run_resilient` resolves its policy as ``explicit argument or
    ambient or RuntimePolicy()``; the CLI wraps a whole command in
    ``use_policy`` so nested experiment runners (which call
    :func:`simulate` many levels down) inherit the checkpoint/retry
    flags without threading a parameter through every signature.
    """

    def __init__(self, policy: Optional[RuntimePolicy]) -> None:
        self.policy = policy

    def __enter__(self) -> Optional[RuntimePolicy]:
        """Install the policy; returns it for convenience."""
        _AMBIENT.append(self.policy)
        return self.policy

    def __exit__(self, *exc_info: object) -> None:
        """Restore the previously ambient policy."""
        _AMBIENT.pop()


def current_policy() -> Optional[RuntimePolicy]:
    """The ambient :class:`RuntimePolicy`, or ``None`` outside one."""
    return _AMBIENT[-1]


# ---------------------------------------------------------------------------
# Worker entry points
# ---------------------------------------------------------------------------

def _run_shard_captured(
    shard_fn: Callable[..., Any],
    args: Tuple[Any, ...],
    ctx: Optional[TraceContext] = None,
    index: int = 0,
    attempt: int = 1,
) -> Tuple[Any, Optional[Dict], Optional[List[Dict]]]:
    """Run one shard, capturing its obs delta in isolation.

    Both execution paths run every attempt through here (pool workers
    via :func:`_resilient_worker`): the shard runs in its own
    :class:`~repro.obs.TelemetryScope` and returns that delta, so (a)
    checkpoints carry exactly this shard's telemetry and (b) a failed
    attempt's partial metrics are discarded rather than double-counted
    on retry -- the same all-or-nothing semantics as a crashed worker
    process.  The shard's :func:`~repro.obs.tracing.shard_span` opens
    inside the scope so only successful attempts contribute spans.
    """
    if not OBS.enabled:
        return shard_fn(*args), None, None
    with TelemetryScope(trace_capacity=OBS.trace.capacity) as scope:
        with shard_span(ctx, index, attempt=attempt):
            result = shard_fn(*args)
    return result, scope.registry.state(), scope.trace.to_records()


def _resilient_worker(
    payload: Tuple,
) -> Tuple[Any, Optional[Dict], Optional[List[Dict]]]:
    """Pool entry point: run one shard (after any chaos injection).

    The worker's observability mirrors the parent's ``enabled`` flag at
    dispatch time; progress is parent-owned and therefore disabled
    here.  The shard's plan index and attempt number let a
    :class:`ChaosPolicy` target "shard 3, first attempt"
    deterministically, and the capture is the in-process one, so both
    paths return the same ``(result, metrics, trace)`` delta.
    """
    index, attempt, shard_fn, args, obs_enabled, chaos, ctx = payload
    OBS.reset()
    OBS.enabled = obs_enabled
    OBS.progress_enabled = False
    if chaos is not None:
        chaos.apply_in_worker(index, attempt)
    return _run_shard_captured(shard_fn, args, ctx, index, attempt)


def _terminate_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down hard, reclaiming hung or crashed workers.

    ``ProcessPoolExecutor`` has no supported way to cancel a *running*
    task, so a deadline miss can only be enforced by killing the worker
    processes; the executor object is discarded afterwards and a fresh
    pool built for the retries.
    """
    processes = list(getattr(executor, "_processes", {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - terminate nearly always lands
            proc.kill()
            proc.join(timeout=1.0)


class _SignalGuard:
    """Installs drain-and-flush SIGINT/SIGTERM handlers around a run.

    The first signal invokes ``on_signal(name)`` (the executor stops
    dispatching and drains); a second signal raises
    ``KeyboardInterrupt`` for an immediate abort.  Handlers are only
    installed in the main thread (Python forbids otherwise) and always
    restored on exit.
    """

    def __init__(self, on_signal: Callable[[str], None]) -> None:
        self._on_signal = on_signal
        self._previous: Dict[int, object] = {}
        self._fired = False

    def __enter__(self) -> "_SignalGuard":
        """Install handlers (no-op off the main thread)."""
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[sig] = signal.signal(sig, self._handle)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def _handle(self, signum: int, frame: object) -> None:
        if self._fired:
            raise KeyboardInterrupt
        self._fired = True
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        self._on_signal(name)

    def __exit__(self, *exc_info: object) -> None:
        """Restore whatever handlers were active before the run."""
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)


# ---------------------------------------------------------------------------
# The books of a run
# ---------------------------------------------------------------------------

class _RunBooks:
    """One sharded run's books, kept alike by executor and coordinator.

    Construction creates or resumes the run's checkpoint, seeds its
    :class:`LeaseBook` under ``policy`` and replays the resumed records
    (counting ``runtime.shards_resumed``/``runtime.checkpoint_discarded``
    and setting the outcome's ``checkpoint_path``, ``discarded_records``
    and ``resumed_shards``).  After that the books own every shard's
    fate: :meth:`grant` counts one attempt per granted shard,
    :meth:`complete` and :meth:`charge` are the one completion and
    failure paths, :meth:`on_signal` is the one signal handler and
    :meth:`run` the one finish path.  A dispatcher -- the executor's
    inline or pool loop, or the coordinator's connections -- only
    hands the books what happened to the shards it was granted.
    """

    def __init__(
        self,
        policy: RuntimePolicy,
        fingerprint: RunFingerprint,
        outcome: RunOutcome,
        lease_shards: int,
        lease_timeout_s: float,
        encode: Callable[[Any], Dict],
        decode: Callable[[Dict], Any],
        on_shard_done: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.policy = policy
        self.outcome = outcome
        self.encode = encode
        self.decode = decode
        self.on_shard_done = on_shard_done
        self.results: Dict[int, Any] = {}
        #: Each banked shard's (metrics, trace) capture.
        self.telemetry: Dict[int, Tuple[Optional[Dict], Optional[List]]] = {}
        self.stop_signal: Optional[str] = None
        self._signalled_at = 0.0
        self.store: Optional[CheckpointStore] = None
        records: Dict[int, ShardRecord] = {}
        path = policy.checkpoint_path_for(fingerprint)
        if path is not None:
            outcome.checkpoint_path = str(path)
            if policy.resume_dir is None or not path.exists():
                self.store = CheckpointStore.create(path, fingerprint)
            else:
                self.store = CheckpointStore.resume(path, fingerprint)
                outcome.discarded_records = self.store.discarded
                records = {
                    index: self.store.records[index]
                    for index in sorted(self.store.records)
                    if 0 <= index < outcome.total_shards
                }
                if OBS.enabled:
                    resumed = OBS.registry.counter("runtime.shards_resumed")
                    resumed.inc(len(records))
                    if self.store.discarded:
                        discarded = "runtime.checkpoint_discarded"
                        OBS.registry.counter(discarded).inc(
                            self.store.discarded
                        )
        outcome.resumed_shards = len(records)
        self.book = LeaseBook(
            outcome.total_shards,
            seed=fingerprint.seed,
            lease_shards=lease_shards,
            lease_timeout_s=lease_timeout_s,
            max_retries=policy.max_retries,
            keep_going=policy.keep_going,
            backoff_base_s=policy.backoff_base_s,
            backoff_cap_s=policy.backoff_cap_s,
            completed=list(records),
        )
        for index, record in records.items():
            self.results[index] = decode(record.payload)
            self.telemetry[index] = (record.metrics, record.trace)
            self._announce(index)

    @property
    def stopping(self) -> bool:
        """Whether a signal asked the run to drain."""
        return self.stop_signal is not None

    def on_signal(self, name: str) -> None:
        """First SIGINT/SIGTERM: stop granting and drain.

        Only the name and the instant are kept: the handler may run
        while a shard's telemetry capture is installed, so :meth:`run`
        records the signal in the run's own telemetry.
        """
        self.stop_signal = name
        self._signalled_at = wall_time()

    def grant(self, worker: str) -> Optional[ShardLease]:
        """Lease ready shards to ``worker``; each counts one attempt."""
        lease = self.book.grant(worker)
        if lease is not None and OBS.enabled:
            attempts = OBS.registry.counter("runtime.shard_attempts")
            attempts.inc(len(lease.shards))
        return lease

    def complete(
        self,
        index: int,
        result: Any,
        metrics: Optional[Dict],
        trace: Optional[List[Dict]],
    ) -> bool:
        """Bank shard ``index`` with its telemetry and checkpoint it.

        Returns ``False`` (and banks nothing) when the book already
        holds the shard as completed or quarantined.
        """
        if not self.book.complete(index):
            return False
        self.results[index] = result
        self.telemetry[index] = (metrics, trace)
        if self.store is not None:
            self.store.add(index, self.encode(result), metrics, trace)
            if OBS.enabled:
                OBS.registry.counter("runtime.checkpoint_writes").inc()
        self._announce(index)
        return True

    def _announce(self, index: int) -> None:
        self.outcome.completed_shards = len(self.results)
        if self.on_shard_done is not None:
            self.on_shard_done(index)
        # One time-series tick per completed shard, after the engine's
        # callback has counted the shard's work.
        if OBS.enabled and OBS.sampler is not None:
            OBS.sampler.maybe_sample()
        if self.policy.on_shard_complete is not None:
            self.policy.on_shard_complete(
                index, len(self.results), self.outcome.total_shards
            )

    def charge(self, index: int, reason: str) -> Optional[ShardFailure]:
        """Charge a failed attempt of shard ``index`` and record what follows.

        Counts the ``"timeout"``, ``"crash"`` or fault, lets
        :meth:`LeaseBook.fail` decide, then records a retry (with the
        book's backoff delay and ``policy.on_shard_retry``) or a
        quarantine.  Returns the :class:`ShardFailure` the caller must
        raise when the budget is exhausted without ``keep_going``.
        """
        outcome, book = self.outcome, self.book
        if reason == "timeout":
            outcome.timeouts += 1
            counter = "runtime.shard_timeouts"
        elif reason == "crash":
            outcome.crashes += 1
            counter = "runtime.worker_crashes"
        else:
            outcome.faults += 1
            counter = "runtime.shard_faults"
        if OBS.enabled:
            OBS.registry.counter(counter).inc()
        decision = book.fail(index, reason)
        count = book.failures.get(index, 0)
        if decision == "retry":
            outcome.retries += 1
            if OBS.enabled:
                delay = backoff_delay(
                    book.seed, index, count,
                    book.backoff_base_s, book.backoff_cap_s,
                )
                OBS.registry.counter("runtime.shard_retries").inc()
                OBS.trace.record(
                    events.ShardRetried(index, count, reason, delay)
                )
            if self.policy.on_shard_retry is not None:
                self.policy.on_shard_retry(index, count, reason)
        elif decision == "quarantine":
            if OBS.enabled:
                OBS.registry.counter("runtime.shards_quarantined").inc()
                OBS.trace.record(events.ShardQuarantined(index, count, reason))
        else:
            return ShardFailure(
                f"shard {index} failed {count} time(s) ({reason}) and "
                f"--max-retries={book.max_retries} is exhausted",
                shard_index=index,
                reason=reason,
                checkpoint_path=outcome.checkpoint_path,
            )
        return None

    def run(self, dispatch: Callable[[], None]) -> List[Any]:
        """Drive ``dispatch`` under the signal guard, then finish the run.

        Telemetry folds in a ``finally``, so an aborted run keeps its
        partial telemetry.  The outcome then gets the sorted quarantine
        and the signal, a ``checkpoint_written`` event is recorded and
        the outcome is appended to ``policy.outcomes``.  A
        :class:`ShardFailure` raised by ``dispatch`` is re-raised; a
        signal raises :class:`RunInterrupted`, even one that landed
        after the last shard completed.  Otherwise returns the results
        in plan order.
        """
        error: Optional[ShardFailure] = None
        with _SignalGuard(self.on_signal):
            try:
                dispatch()
            except ShardFailure as exc:
                error = exc
            finally:
                self._fold_telemetry()
        if self.stopping and OBS.enabled:
            OBS.registry.counter("runtime.interrupts").inc()
            OBS.trace.record_at(
                self._signalled_at, events.RunSignalled(self.stop_signal)
            )
        outcome = self.outcome
        outcome.completed_shards = len(self.results)
        outcome.quarantined_shards = tuple(sorted(self.book.quarantined))
        outcome.interrupted = self.stopping and error is None
        outcome.signal_name = self.stop_signal
        if OBS.enabled and self.store is not None:
            OBS.trace.record(
                events.CheckpointWritten(
                    str(self.store.path), len(self.store.records)
                )
            )
        self.policy.outcomes.append(outcome)
        if error is not None:
            raise error
        if self.stopping:
            raise RunInterrupted(
                f"run interrupted by {self.stop_signal} after "
                f"{len(self.results)}/{outcome.total_shards} shards",
                signal_name=self.stop_signal or "signal",
                checkpoint_path=outcome.checkpoint_path,
            )
        return [self.results[index] for index in sorted(self.results)]

    def _fold_telemetry(self) -> None:
        """Merge per-shard obs deltas into the live OBS, in plan order.

        Folding in plan order (not completion order) keeps the merged
        trace/metrics identical across worker counts, retries and
        resumes.
        """
        if not OBS.enabled:
            return
        for index in sorted(self.telemetry):
            metrics, trace = self.telemetry[index]
            if metrics:
                OBS.registry.merge_state(metrics)
            if trace:
                OBS.trace.merge_records(trace)


# ---------------------------------------------------------------------------
# The resilient run
# ---------------------------------------------------------------------------

class _ResilientRun:
    """Dispatch loop of one :func:`run_resilient` invocation.

    Its :class:`_RunBooks` own the checkpoint, shard order, attempts,
    retries, quarantine, telemetry and the finish; the run keeps the
    per-shard capture, the inline or pool dispatch and pool teardown.
    """

    def __init__(
        self,
        shard_fn: Callable[..., Any],
        shard_args: Sequence[Tuple[Any, ...]],
        workers: int,
        fingerprint: RunFingerprint,
        policy: RuntimePolicy,
        encode: Callable[[Any], Dict],
        decode: Callable[[Dict], Any],
        on_shard_done: Optional[Callable[[int], None]],
    ) -> None:
        # Imported here: repro.faultsim imports this module.
        from repro.faultsim.parallel import validate_workers

        self.shard_fn = shard_fn
        self.shard_args = [tuple(args) for args in shard_args]
        self.workers = validate_workers(workers)
        self.policy = policy
        self.outcome = RunOutcome(
            kind=fingerprint.kind, total_shards=len(self.shard_args)
        )
        # In-process shards have no deadline (chaos raises ChaosHang).
        timeout = policy.shard_timeout_s
        if self.workers == 1 or timeout is None:
            timeout = math.inf
        self.books = _RunBooks(
            policy, fingerprint, self.outcome,
            lease_shards=1, lease_timeout_s=timeout,
            encode=encode, decode=decode, on_shard_done=on_shard_done,
        )
        #: Trace parent for every shard span, captured at construction
        #: (dispatch) time so both execution paths and every retry graft
        #: onto the same node of the caller's trace tree.
        self.trace_ctx = current_context()
        self.pool: Optional[ProcessPoolExecutor] = None
        self.inflight: Dict[Future, ShardLease] = {}
        self.slots = 1

    def _fail(
        self,
        lease: ShardLease,
        reason: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Charge a failed attempt; raise when the run must abort."""
        error = self.books.charge(lease.shards[0], reason)
        if error is not None:
            raise error from cause

    def _sleep(self, seconds: float) -> None:
        """Interruptible sleep (wakes early when a signal arrived)."""
        deadline = time.monotonic() + seconds
        while not self.books.stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(_POLL_S, remaining))

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Run leases until the book is done, a signal drained it, or abort.

        ``workers=1`` runs each granted shard inline; more workers keep
        up to that many on the pool.  The loop sleeps only when nothing
        is ready and nothing is running.
        """
        books, book = self.books, self.books.book
        self.slots = min(self.workers, max(1, book.pending_count))
        try:
            while not book.done and (self.inflight or not books.stopping):
                while not books.stopping and len(self.inflight) < self.slots:
                    lease = books.grant("local")
                    if lease is None:
                        break
                    if self.workers == 1:
                        self._run_inline(lease)
                    else:
                        self._submit(lease)
                if self.inflight:
                    self._collect()
                elif not book.done and not books.stopping:
                    self._sleep(book.next_ready_in() or 0.0)
        finally:
            if self.pool is not None:
                _terminate_executor(self.pool)

    def _run_inline(self, lease: ShardLease) -> None:
        index, attempt = lease.shards[0], lease.attempts[0]
        try:
            if self.policy.chaos is not None:
                self.policy.chaos.apply_in_process(index, attempt)
            result, metrics, trace = _run_shard_captured(
                self.shard_fn,
                self.shard_args[index],
                ctx=self.trace_ctx,
                index=index,
                attempt=attempt,
            )
        except ChaosHang as exc:
            self._fail(lease, "timeout", exc)
        except ChaosCrash as exc:
            self._fail(lease, "crash", exc)
        except Exception as exc:
            self._fail(lease, "fault", exc)
        else:
            self.books.complete(index, result, metrics, trace)

    def _submit(self, lease: ShardLease) -> None:
        # The pool machinery loads here, so an inline run never pays
        # for it.
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        if self.pool is None:
            from repro.faultsim.parallel import pool_context

            self.pool = ProcessPoolExecutor(
                max_workers=self.slots, mp_context=pool_context()
            )
        index, attempt = lease.shards[0], lease.attempts[0]
        payload = (
            index, attempt, self.shard_fn, self.shard_args[index],
            OBS.enabled, self.policy.chaos, self.trace_ctx,
        )
        try:
            self.inflight[self.pool.submit(_resilient_worker, payload)] = lease
        except BrokenProcessPool as exc:
            # A worker died between wait() rounds: this shard and
            # everything in flight are doomed with the pool.
            self._fail(lease, "crash", exc)
            self._reset_pool(crash=exc)

    def _collect(self) -> None:
        """Settle finished futures, then a crashed pool or missed deadline."""
        from concurrent.futures.process import BrokenProcessPool

        next_deadline = min(lease.deadline for lease in self.inflight.values())
        wait_s = min(max(0.0, next_deadline - time.monotonic()), _POLL_S * 2)
        done, _ = wait(
            set(self.inflight), timeout=wait_s, return_when=FIRST_COMPLETED
        )
        broken: Optional[BrokenProcessPool] = None
        for future in done:
            lease = self.inflight.pop(future)
            try:
                result, metrics, trace = future.result()
            except BrokenProcessPool as exc:
                broken = exc
                self._fail(lease, "crash", exc)
            except Exception as exc:
                self._fail(lease, "fault", exc)
            else:
                self.books.complete(lease.shards[0], result, metrics, trace)
        if broken is not None:
            self._reset_pool(crash=broken)
            return
        expired = {lease.lease_id for lease, _ in self.books.book.expire()}
        if expired:
            self._reset_pool(expired=expired)

    def _reset_pool(
        self,
        crash: Optional[BaseException] = None,
        expired: Set[int] = frozenset(),
    ) -> None:
        """Kill the pool (the only way to reclaim a hung worker).

        After a crash every in-flight shard is charged one (which worker
        died is unknown); after a missed deadline the expired shards
        are charged a timeout and the innocent ones requeued uncharged.
        """
        leases = list(self.inflight.values())
        self.inflight.clear()
        _terminate_executor(self.pool)
        self.pool = None
        for lease in leases:
            if crash is not None:
                self._fail(lease, "crash", crash)
            elif lease.lease_id in expired:
                self._fail(lease, "timeout")
            else:
                self.books.book.requeue(lease.lease_id)

    # -- driver -------------------------------------------------------------

    def run(self) -> Tuple[List[Any], RunOutcome]:
        """Execute the plan; returns (plan-ordered results, outcome)."""
        return self.books.run(self._dispatch), self.outcome


def run_resilient(
    shard_fn: Callable[..., Any],
    shard_args: Sequence[Tuple[Any, ...]],
    *,
    workers: int,
    fingerprint: RunFingerprint,
    policy: Optional[RuntimePolicy] = None,
    encode: Callable[[Any], Dict],
    decode: Callable[[Dict], Any],
    on_shard_done: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Any], RunOutcome]:
    """Run ``shard_fn(*args)`` for every entry of ``shard_args``.

    Returns the results in plan order (minus any quarantined shards --
    check the returned :class:`RunOutcome`) whatever order the workers
    finish in; ``on_shard_done(shard_index)`` fires in the calling
    process after each completed or replayed shard.  ``workers=1``
    runs the plan in-process, more workers on a process pool.
    Checkpoint/resume, retry with backoff, per-shard timeouts,
    quarantine and signal draining follow ``policy``; without one the
    ambient policy (:func:`use_policy`) applies, else
    ``RuntimePolicy()``.  ``encode``/``decode`` convert a shard result
    to/from its JSON checkpoint payload and must round-trip
    bit-identically (that property is what makes resume exact).
    """
    if policy is None:
        policy = current_policy() or RuntimePolicy()
    return _ResilientRun(
        shard_fn,
        shard_args,
        workers,
        fingerprint,
        policy,
        encode,
        decode,
        on_shard_done,
    ).run()
