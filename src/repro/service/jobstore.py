"""In-memory job registry with single-flight submission semantics.

The store owns the service's concurrency discipline:

* **One lock, one condition.**  Every mutation -- submission, state
  transition, progress update -- happens under ``_lock``; the executor
  thread blocks on ``_cond`` until work arrives or shutdown drains it.
* **Single-flight.**  ``by_fingerprint`` maps each job fingerprint to
  its job, so N concurrent submissions of one experiment yield exactly
  one :class:`Job` (and exactly one execution); later submitters are
  *coalesced* onto it.  The fingerprint index is permanent: a finished
  job keeps answering for its fingerprint, and resubmission after a
  cache eviction **requeues the same job** rather than minting a new
  identity.
* **Observable lifecycle.**  ``queued -> running -> done`` with
  ``retrying`` excursions and ``failed`` as the terminal error state;
  every transition is appended to ``states_seen`` so tests (and
  operators) can assert a job really did pass through ``retrying``
  during a chaos run.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.service.spec import ExperimentSpec

__all__ = ["Job", "JobStore", "ACTIVE_STATES", "JOB_STATES"]

#: Every state a job may occupy, in canonical lifecycle order.
JOB_STATES = ("queued", "running", "retrying", "done", "failed")

#: States in which a job is still owed an execution; submissions that
#: match an active job coalesce instead of enqueueing new work.
ACTIVE_STATES = frozenset({"queued", "running", "retrying"})


@dataclass
class Job:
    """One submitted experiment and its observable execution state."""

    job_id: str
    fingerprint: str
    spec: ExperimentSpec
    state: str = "queued"
    states_seen: List[str] = field(default_factory=lambda: ["queued"])
    completed_shards: int = 0
    total_shards: int = 0
    retries: int = 0
    attempts: int = 0
    coalesced: int = 0
    error: Optional[str] = None
    metrics: Optional[Dict[str, object]] = None

    def to_status(self) -> Dict[str, object]:
        """JSON-ready status document (``GET /v1/jobs/<id>``)."""
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "states_seen": list(self.states_seen),
            "spec": self.spec.to_dict(),
            "progress": {
                "completed_shards": self.completed_shards,
                "total_shards": self.total_shards,
                "retries": self.retries,
                "attempts": self.attempts,
            },
            "coalesced": self.coalesced,
            "error": self.error,
            "metrics": self.metrics,
        }


class JobStore:
    """Thread-safe job registry, queue, and fingerprint index."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._by_fingerprint: Dict[str, Job] = {}
        self._queue: Deque[str] = deque()
        self._seq = 0
        self._closed = False

    # -- submission ---------------------------------------------------

    def submit(self, spec: ExperimentSpec, fingerprint: str) -> "tuple[Job, bool]":
        """Register a submission; returns ``(job, created)``.

        ``created`` is ``True`` only when this call enqueued new work.
        A matching *active* job absorbs the submission (single-flight);
        a matching *terminal* job is returned as-is -- the service then
        decides whether its cached result still stands or the job must
        be requeued via :meth:`requeue`.
        """
        with self._cond:
            existing = self._by_fingerprint.get(fingerprint)
            if existing is not None:
                if existing.state in ACTIVE_STATES:
                    existing.coalesced += 1
                return existing, False
            self._seq += 1
            job = Job(
                job_id=f"job-{self._seq:08d}",
                fingerprint=fingerprint,
                spec=spec,
            )
            self._jobs[job.job_id] = job
            self._by_fingerprint[fingerprint] = job
            self._queue.append(job.job_id)
            self._cond.notify_all()
            return job, True

    def requeue(self, job: Job) -> None:
        """Put a terminal job back in the queue for re-execution.

        Used when a done job's cache entry failed verification (the
        result must be recomputed) or a failed job is resubmitted; the
        job keeps its identity and its ``states_seen`` history.
        """
        with self._cond:
            if job.state in ACTIVE_STATES:
                return
            self._transition(job, "queued")
            job.completed_shards = 0
            job.error = None
            self._queue.append(job.job_id)
            self._cond.notify_all()

    # -- executor side ------------------------------------------------

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a queued job is available (or the store closes).

        Returns ``None`` on close-with-empty-queue or timeout; jobs
        already queued are still handed out after :meth:`close` so a
        graceful shutdown drains instead of dropping.
        """
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None
            job = self._jobs[self._queue.popleft()]
            self._transition(job, "running")
            job.attempts += 1
            return job

    def close(self) -> None:
        """Stop handing out new work once the queue drains."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- state transitions -------------------------------------------

    def _transition(self, job: Job, state: str) -> None:
        """Record a state change (caller holds the lock)."""
        if state not in JOB_STATES:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown job state {state!r}")
        if job.state != state:
            job.state = state
            job.states_seen.append(state)

    def begin_run(self, job: Job, total_shards: int) -> None:
        """Announce the shard plan before execution starts."""
        with self._cond:
            job.total_shards = total_shards
            job.completed_shards = 0

    def note_progress(self, job: Job, completed_shards: int) -> None:
        """Record shard completion (also ends a ``retrying`` excursion)."""
        with self._cond:
            job.completed_shards = completed_shards
            if job.state == "retrying":
                self._transition(job, "running")

    def note_retry(self, job: Job) -> None:
        """Record a scheduled shard retry; the job is now ``retrying``."""
        with self._cond:
            job.retries += 1
            if job.state == "running":
                self._transition(job, "retrying")

    def finish(self, job: Job, metrics: Optional[Dict[str, object]] = None) -> None:
        """Mark a job done (its result is in the cache by now)."""
        with self._cond:
            job.metrics = metrics
            self._transition(job, "done")
            self._cond.notify_all()

    def fail(self, job: Job, error: str) -> None:
        """Mark a job failed with an operator-readable reason."""
        with self._cond:
            job.error = error
            self._transition(job, "failed")
            self._cond.notify_all()

    # -- queries ------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this ID, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the ``/v1/stats`` jobs block)."""
        with self._lock:
            counts = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["queued_depth"] = len(self._queue)
            return counts
