"""The shard executor (retry, timeout, resume, drain).

:func:`run_resilient` is the one executor every engine runs its
deterministic shard plan through -- Monte-Carlo reliability,
behavioural campaigns, the perfsim grid, distributed worker leases and
service jobs -- in-process at ``workers=1`` or on a process pool.  Runs
without an explicit or ambient :class:`RuntimePolicy` get the defaults
(no checkpoint, no timeout, 3 retries), so every run survives the
failure modes that kill a multi-hour campaign in practice --

* **Worker crashes** (OOM kill, segfault, ``os._exit``) surface as
  ``BrokenProcessPool``; the pool is rebuilt and the affected shards
  retried with exponential backoff plus deterministic jitter, up to a
  per-shard retry budget.
* **Hangs** are bounded by a per-shard timeout; a deadline miss
  terminates the pool (the only way to reclaim a truly wedged worker),
  re-queues the innocent in-flight shards without penalty, and charges
  a failure to the hung one.
* **Permanent failures** either abort the run with the checkpoint
  flushed (:class:`ShardFailure`) or -- under ``keep_going`` -- are
  quarantined so the run completes with an explicit completeness
  fraction instead of dying at 99%.
* **Signals**: SIGINT/SIGTERM stop dispatch, drain in-flight shards,
  flush a final checkpoint and raise :class:`RunInterrupted`; a second
  signal aborts immediately.
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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import OBS, events
from repro.obs.events import EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import TraceContext, current_context, shard_span
from repro.runtime.chaos import ChaosCrash, ChaosHang, ChaosPolicy
from repro.runtime.checkpoint import (
    CheckpointStore,
    RunFingerprint,
    ShardRecord,
    backoff_delay,
)

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
    via :func:`_resilient_worker`): the shard runs against a fresh
    registry/trace and returns its delta, so (a) checkpoints carry
    exactly this shard's telemetry and (b) a failed attempt's partial
    metrics are discarded rather than double-counted on retry -- the
    same all-or-nothing semantics as a crashed worker process.  The
    shard's :func:`~repro.obs.tracing.shard_span` opens inside the
    captured delta so only successful attempts contribute spans.
    """
    if not OBS.enabled:
        return shard_fn(*args), None, None
    saved_registry, saved_trace = OBS.registry, OBS.trace
    OBS.registry = MetricsRegistry()
    OBS.trace = EventTrace(capacity=saved_trace.capacity)
    try:
        with shard_span(ctx, index, attempt=attempt):
            result = shard_fn(*args)
        return result, OBS.registry.state(), OBS.trace.to_records()
    finally:
        OBS.registry, OBS.trace = saved_registry, saved_trace


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


def _open_checkpoint(
    policy: RuntimePolicy, fingerprint: RunFingerprint, outcome: RunOutcome
) -> Tuple[Optional[CheckpointStore], Dict[int, ShardRecord]]:
    """Create or resume a run's checkpoint under ``policy``.

    Returns the store (``None`` when not persisting) and the resumed
    records whose index lies inside the plan of
    ``outcome.total_shards``, in index order.  Sets the outcome's
    ``checkpoint_path`` and ``discarded_records`` and counts
    ``runtime.shards_resumed``/``runtime.checkpoint_discarded``; the
    executor and the distributed coordinator both open through here.
    """
    path = policy.checkpoint_path_for(fingerprint)
    if path is None:
        return None, {}
    outcome.checkpoint_path = str(path)
    if policy.resume_dir is None or not path.exists():
        return CheckpointStore.create(path, fingerprint), {}
    store = CheckpointStore.resume(path, fingerprint)
    outcome.discarded_records = store.discarded
    records = {
        index: store.completed[index]
        for index in sorted(store.completed)
        if 0 <= index < outcome.total_shards
    }
    if OBS.enabled:
        OBS.registry.counter("runtime.shards_resumed").inc(len(records))
        if store.discarded:
            OBS.registry.counter("runtime.checkpoint_discarded").inc(
                store.discarded
            )
    return store, records


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
# The resilient run
# ---------------------------------------------------------------------------

class _ResilientRun:
    """State machine for one :func:`run_resilient` invocation."""

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
        self.fingerprint = fingerprint
        self.policy = policy
        self.encode = encode
        self.decode = decode
        self.on_shard_done = on_shard_done
        self.outcome = RunOutcome(
            kind=fingerprint.kind, total_shards=len(self.shard_args)
        )
        #: Trace parent for every shard span, captured at construction
        #: (dispatch) time so both execution paths and every retry graft
        #: onto the same node of the caller's trace tree.
        self.trace_ctx = current_context()
        self.results: Dict[int, Any] = {}
        self.telemetry: Dict[int, Tuple[Optional[Dict], Optional[List[Dict]]]] = {}
        self.failures: Dict[int, int] = {}
        self.quarantined: List[int] = []
        self.store: Optional[CheckpointStore] = None
        self.stop_signal: Optional[str] = None

    # -- checkpoint plumbing ------------------------------------------------

    def _open_store(self) -> List[int]:
        """Create/resume the checkpoint; returns replayed shard indices."""
        self.store, records = _open_checkpoint(
            self.policy, self.fingerprint, self.outcome
        )
        for index, record in records.items():
            self.results[index] = self.decode(record.payload)
            self.telemetry[index] = (record.metrics, record.trace)
        return list(records)

    # -- bookkeeping --------------------------------------------------------

    def _on_signal(self, name: str) -> None:
        self.stop_signal = name
        if OBS.enabled:
            OBS.registry.counter("runtime.interrupts").inc()
            OBS.trace.record(events.RunSignalled(name))

    @property
    def _stopping(self) -> bool:
        return self.stop_signal is not None

    def _count_attempt(self) -> None:
        if OBS.enabled:
            OBS.registry.counter("runtime.shard_attempts").inc()

    def _register_failure(
        self, index: int, reason: str, cause: Optional[BaseException] = None
    ) -> Optional[float]:
        """Account one failed attempt; returns the retry delay.

        Returns ``None`` when the shard was quarantined instead
        (``keep_going``); raises :class:`ShardFailure` chained to
        ``cause`` (the attempt's own error, if it raised one) when the
        budget is exhausted without ``keep_going``.
        """
        self.failures[index] = self.failures.get(index, 0) + 1
        count = self.failures[index]
        if OBS.enabled:
            if reason == "timeout":
                OBS.registry.counter("runtime.shard_timeouts").inc()
            elif reason == "crash":
                OBS.registry.counter("runtime.worker_crashes").inc()
            else:
                OBS.registry.counter("runtime.shard_faults").inc()
        if reason == "timeout":
            self.outcome.timeouts += 1
        elif reason == "crash":
            self.outcome.crashes += 1
        else:
            self.outcome.faults += 1
        if count > self.policy.max_retries:
            if self.policy.keep_going:
                self.quarantined.append(index)
                if OBS.enabled:
                    OBS.registry.counter("runtime.shards_quarantined").inc()
                    OBS.trace.record(
                        events.ShardQuarantined(index, count, reason)
                    )
                return None
            raise ShardFailure(
                f"shard {index} failed {count} time(s) ({reason}) and "
                f"--max-retries={self.policy.max_retries} is exhausted",
                shard_index=index,
                reason=reason,
                checkpoint_path=self.outcome.checkpoint_path,
            ) from cause
        delay = backoff_delay(
            self.fingerprint.seed, index, count,
            self.policy.backoff_base_s, self.policy.backoff_cap_s,
        )
        self.outcome.retries += 1
        if OBS.enabled:
            OBS.registry.counter("runtime.shard_retries").inc()
            OBS.trace.record(events.ShardRetried(index, count, reason, delay))
        if self.policy.on_shard_retry is not None:
            self.policy.on_shard_retry(index, count, reason)
        return delay

    def _complete(self, index: int, result: Any, metrics, trace) -> None:
        self.results[index] = result
        self.telemetry[index] = (metrics, trace)
        if self.store is not None:
            self.store.add(index, self.encode(result), metrics, trace)
            if OBS.enabled:
                OBS.registry.counter("runtime.checkpoint_writes").inc()
        if self.on_shard_done is not None:
            self.on_shard_done(index)
        if self.policy.on_shard_complete is not None:
            self.policy.on_shard_complete(
                index, len(self.results), self.outcome.total_shards
            )

    def _sleep(self, seconds: float) -> None:
        """Interruptible sleep (wakes early when a signal arrived)."""
        deadline = time.monotonic() + seconds
        while not self._stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(_POLL_S, remaining))

    # -- in-process execution (workers == 1) --------------------------------

    def _run_inproc(self, pending: List[int]) -> None:
        chaos = self.policy.chaos
        for index in pending:
            while not self._stopping:
                attempt = self.failures.get(index, 0) + 1
                self._count_attempt()
                try:
                    if chaos is not None:
                        chaos.apply_in_process(index, attempt)
                    result, metrics, trace = _run_shard_captured(
                        self.shard_fn,
                        self.shard_args[index],
                        ctx=self.trace_ctx,
                        index=index,
                        attempt=attempt,
                    )
                except ChaosHang as exc:
                    delay = self._register_failure(index, "timeout", exc)
                except ChaosCrash as exc:
                    delay = self._register_failure(index, "crash", exc)
                except Exception as exc:
                    delay = self._register_failure(index, "fault", exc)
                else:
                    self._complete(index, result, metrics, trace)
                    break
                if delay is None:
                    break  # quarantined
                self._sleep(delay)

    # -- pool execution (workers > 1) ---------------------------------------

    def _submit(self, executor: ProcessPoolExecutor, index: int):
        attempt = self.failures.get(index, 0) + 1
        self._count_attempt()
        future = executor.submit(
            _resilient_worker,
            (
                index,
                attempt,
                self.shard_fn,
                self.shard_args[index],
                OBS.enabled,
                self.policy.chaos,
                self.trace_ctx,
            ),
        )
        timeout = self.policy.shard_timeout_s
        deadline = (
            time.monotonic() + timeout if timeout is not None else math.inf
        )
        return future, deadline

    def _run_pool(self, pending: List[int]) -> None:
        from repro.faultsim.parallel import pool_context

        context = pool_context()
        processes = min(self.workers, max(1, len(pending)))
        queue = deque(pending)
        retry_at: Dict[int, float] = {}
        inflight: Dict[Any, Tuple[int, float]] = {}
        executor: Optional[ProcessPoolExecutor] = None
        try:
            while queue or retry_at or inflight:
                now = time.monotonic()
                for index, ready in sorted(retry_at.items()):
                    if ready <= now:
                        del retry_at[index]
                        queue.append(index)
                if self._stopping:
                    queue.clear()
                    retry_at.clear()
                    if not inflight:
                        break
                while queue and len(inflight) < processes:
                    if executor is None:
                        executor = ProcessPoolExecutor(
                            max_workers=processes, mp_context=context
                        )
                    index = queue.popleft()
                    try:
                        future, deadline = self._submit(executor, index)
                    except BrokenProcessPool as exc:
                        # A worker died between wait() rounds and the
                        # pool noticed before we resubmitted.  Charge a
                        # crash to this shard and everything in flight
                        # (their futures are doomed with the pool),
                        # then rebuild on the next pass.
                        self._retry_or_quarantine(
                            index, "crash", retry_at, exc
                        )
                        for _f, (i, _d) in list(inflight.items()):
                            self._retry_or_quarantine(
                                i, "crash", retry_at, exc
                            )
                        inflight.clear()
                        _terminate_executor(executor)
                        executor = None
                        break
                    inflight[future] = (index, deadline)
                if not inflight:
                    if not retry_at:
                        break
                    self._sleep(
                        max(0.0, min(retry_at.values()) - time.monotonic())
                        or _POLL_S
                    )
                    continue
                next_deadline = min(d for _, d in inflight.values())
                wait_s = min(
                    max(0.0, next_deadline - time.monotonic()), _POLL_S * 2
                )
                done, _ = wait(
                    set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED
                )
                broken: Optional[BrokenProcessPool] = None
                for future in done:
                    index, _deadline = inflight.pop(future)
                    try:
                        result, metrics, trace = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        self._retry_or_quarantine(
                            index, "crash", retry_at, exc
                        )
                    except Exception as exc:
                        self._retry_or_quarantine(
                            index, "fault", retry_at, exc
                        )
                    else:
                        self._complete(index, result, metrics, trace)
                if broken is not None:
                    # Every other in-flight future is doomed with the
                    # pool; they also count a crash failure (we cannot
                    # know which worker died) and get rescheduled.
                    for future, (index, _deadline) in list(inflight.items()):
                        self._retry_or_quarantine(
                            index, "crash", retry_at, broken
                        )
                    inflight.clear()
                    if executor is not None:
                        _terminate_executor(executor)
                        executor = None
                    continue
                now = time.monotonic()
                timed_out = [
                    future
                    for future, (_index, deadline) in inflight.items()
                    if deadline <= now
                ]
                if timed_out:
                    # Killing the pool is the only way to reclaim a hung
                    # worker; innocent in-flight shards are re-queued
                    # with no failure charged.
                    for future in timed_out:
                        index, _deadline = inflight.pop(future)
                        self._retry_or_quarantine(index, "timeout", retry_at)
                    for future, (index, _deadline) in list(inflight.items()):
                        queue.appendleft(index)
                    inflight.clear()
                    if executor is not None:
                        _terminate_executor(executor)
                        executor = None
        finally:
            if executor is not None:
                _terminate_executor(executor)

    def _retry_or_quarantine(
        self,
        index: int,
        reason: str,
        retry_at: Dict[int, float],
        cause: Optional[BaseException] = None,
    ) -> None:
        delay = self._register_failure(index, reason, cause)
        if delay is not None and not self._stopping:
            retry_at[index] = time.monotonic() + delay

    # -- driver -------------------------------------------------------------

    def run(self) -> Tuple[List[Any], RunOutcome]:
        """Execute the plan; returns (plan-ordered results, outcome)."""
        replayed = self._open_store()
        self.outcome.resumed_shards = len(replayed)
        for position, index in enumerate(replayed):
            if self.on_shard_done is not None:
                self.on_shard_done(index)
            if self.policy.on_shard_complete is not None:
                self.policy.on_shard_complete(
                    index, position + 1, self.outcome.total_shards
                )
        pending = [
            i for i in range(len(self.shard_args)) if i not in self.results
        ]
        error: Optional[ShardFailure] = None
        with _SignalGuard(self._on_signal):
            try:
                if self.workers == 1:
                    self._run_inproc(pending)
                else:
                    self._run_pool(pending)
            except ShardFailure as exc:
                error = exc
            finally:
                self._fold_telemetry()
        self.outcome.completed_shards = len(self.results)
        self.outcome.quarantined_shards = tuple(sorted(self.quarantined))
        self.outcome.interrupted = self._stopping and error is None
        self.outcome.signal_name = self.stop_signal
        if OBS.enabled and self.store is not None:
            OBS.trace.record(
                events.CheckpointWritten(
                    str(self.store.path), len(self.store.completed)
                )
            )
        self.policy.outcomes.append(self.outcome)
        if error is not None:
            raise error
        if self._stopping:
            raise RunInterrupted(
                f"run interrupted by {self.stop_signal} after "
                f"{len(self.results)}/{len(self.shard_args)} shards",
                signal_name=self.stop_signal or "signal",
                checkpoint_path=self.outcome.checkpoint_path,
            )
        ordered = [
            self.results[i]
            for i in range(len(self.shard_args))
            if i in self.results
        ]
        return ordered, self.outcome

    def _fold_telemetry(self) -> None:
        """Merge per-shard obs deltas into the live OBS, in plan order.

        Folding in plan order (not completion order) keeps the merged
        trace/metrics identical across worker counts, retries and
        resumes; folding in a ``finally`` keeps partial telemetry from
        an aborted run.
        """
        if not OBS.enabled:
            return
        for index in sorted(self.telemetry):
            metrics, trace = self.telemetry[index]
            if metrics:
                OBS.registry.merge_state(metrics)
            if trace:
                OBS.trace.merge_records(trace)


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
