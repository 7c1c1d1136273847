"""Durable, self-validating checkpoints for sharded campaigns.

A multi-hour Monte-Carlo or behavioural campaign must survive the
process that runs it.  This module persists every completed shard --
its result payload plus the shard's observability delta -- to a single
JSON-lines checkpoint file that a later process can resume from and
reproduce the merged result *bit for bit* (the shard plan and the
per-shard seeds depend only on the run parameters, never on the
execution history).

File format (one JSON object per line)::

    {"record": "header", "version": 1, "fingerprint": {...}, "digest": ...}
    {"record": "shard", "index": 0, "payload": {...},
     "metrics": {...}|null, "trace": [...]|null, "digest": "..."}
    ...

* **Run identity.**  The header carries a :class:`RunFingerprint`
  (kind, seed, population, shard size, config hash, code version); a
  resume against a checkpoint whose fingerprint differs in any field is
  refused with :class:`CheckpointMismatch` -- silently merging shards
  of a *different* experiment would be corruption, not recovery.
* **Record integrity.**  Every line ends with a SHA-256 digest of its
  canonical-JSON body.  :func:`load_checkpoint` stops at the first
  truncated or corrupted record and discards only that tail; every
  intact prefix record is still usable, so a crash mid-write (or a
  chaos-injected corruption) costs at most the shards behind it.
* **Atomicity.**  Full rewrites (header creation, resume cleanups) go
  through :func:`repro.obs.fsio.atomic_write_text` (write a temp file,
  ``fsync``, ``os.replace``), so a reader never observes a half-written
  header and a rewrite is as durable as an append.  Completed shards
  are *appended* (one fsynced line each) rather than rewriting the
  whole file -- O(1) bytes per shard instead of O(shards) -- and a
  crash mid-append leaves at most one torn tail line, which
  :func:`load_checkpoint` already discards.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.fsio import atomic_write_text

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointMismatch",
    "CheckpointLoad",
    "RunFingerprint",
    "ShardRecord",
    "ShardLease",
    "LeaseBook",
    "CheckpointStore",
    "backoff_delay",
    "canonical_json",
    "config_digest",
    "load_checkpoint",
    "sha256_hex",
]

#: On-disk format version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is unusable (unreadable header, bad version)."""


class CheckpointMismatch(CheckpointError):
    """A resume was attempted against a different run's checkpoint."""


def canonical_json(obj: object) -> str:
    """Canonical JSON text: sorted keys, no whitespace.

    The one encoding of every byte-sensitive document -- checkpoint
    records, run and cache fingerprints, cache entries, result digests
    and wire frames -- so equal values always give equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of ``text`` (UTF-8), usually a canonical JSON."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digested_line(body: Dict[str, object]) -> str:
    """``body`` with its ``"digest"`` added, as one canonical line.

    ``"digest"`` sorts before every key of a header or shard record, so
    the canonical text of the digest-carrying record is the body's own
    canonical text with the digest spliced in first: one encoding
    serves both the hash and the line.
    """
    text = canonical_json(body)
    return '{"digest":"' + sha256_hex(text) + '",' + text[1:]


def backoff_delay(
    seed: int, index: int, failure_count: int, base_s: float, cap_s: float
) -> float:
    """Retry delay of a shard: exponential backoff with seeded jitter.

    The delay doubles per failure from ``base_s`` up to ``cap_s``, then
    gains up to 25% jitter drawn from ``(seed, index, failure_count)``,
    so the same failure history always schedules the same retries.
    """
    delay = min(cap_s, base_s * (2.0 ** max(0, failure_count - 1)))
    rng = random.Random((seed << 24) ^ (index << 8) ^ failure_count)
    return delay * (1.0 + 0.25 * rng.random())


def config_digest(description: Dict[str, object]) -> str:
    """Hash an experiment description dict into a fingerprint field.

    Callers put every knob that affects shard *contents* into the
    description (scheme name, FIT rates, scrub interval ...);
    two runs share a ``config_hash`` iff their shards are interchangeable.
    """
    return sha256_hex(canonical_json(description))


@dataclass(frozen=True)
class RunFingerprint:
    """Identity of one sharded run, embedded in its checkpoint header.

    Two runs may exchange checkpoints only when every field matches:
    ``kind`` names the engine and experiment (``reliability.<scheme>``,
    ``campaign.xed``), ``seed``/``total``/``shard_size`` pin the
    deterministic shard plan, ``config_hash`` covers every remaining
    behaviour knob, and ``code_version`` guards against resuming across
    releases whose shard semantics may have changed.
    """

    kind: str
    seed: int
    total: int
    shard_size: int
    config_hash: str
    code_version: str

    def to_dict(self) -> Dict[str, object]:
        """The fingerprint as a JSON-ready dict (header payload)."""
        return asdict(self)

    def slug(self) -> str:
        """Filesystem-safe checkpoint file stem for this run.

        Combines the human-readable kind with a config-hash prefix so
        multiple runs (e.g. every scheme of ``repro reliability``) can
        checkpoint into one directory without colliding.
        """
        safe = "".join(
            ch if ch.isalnum() or ch in "._-" else "_" for ch in self.kind
        )
        return f"{safe}-{self.config_hash[:12]}"

    def mismatches(
        self,
        other: Dict[str, object],
        mine: str = "run",
        theirs: str = "checkpoint",
    ) -> List[str]:
        """Human-readable field diffs vs. another fingerprint's dict.

        Each diff labels this fingerprint's value ``mine`` and the
        other's ``theirs``: a run against its checkpoint by default.
        """
        own = self.to_dict()
        return [
            f"{field}: {mine}={own[field]!r} {theirs}={other.get(field)!r}"
            for field in own
            if own[field] != other.get(field)
        ]


@dataclass
class ShardRecord:
    """One completed shard as persisted in the checkpoint.

    ``payload`` is the engine-specific serialised result
    (:meth:`ReliabilityResult.to_payload` / ``CampaignResult``);
    ``metrics`` and ``trace`` are the shard's observability delta
    (:meth:`MetricsRegistry.state` / :meth:`EventTrace.to_records`) so a
    resumed run can replay telemetry and end with the same metrics as
    an uninterrupted one.
    """

    index: int
    payload: Dict[str, object]
    metrics: Optional[Dict[str, object]] = None
    trace: Optional[List[Dict[str, object]]] = None

    def to_line(self) -> str:
        """Serialise to one digest-carrying checkpoint line."""
        return _digested_line({
            "record": "shard",
            "index": self.index,
            "payload": self.payload,
            "metrics": self.metrics,
            "trace": self.trace,
        })


def _parse_shard_line(record: Dict[str, object]) -> Optional[ShardRecord]:
    """Validate one parsed shard record; ``None`` if corrupt."""
    if record.get("record") != "shard":
        return None
    digest = record.get("digest")
    body = {k: v for k, v in record.items() if k != "digest"}
    if digest != sha256_hex(canonical_json(body)):
        return None
    index = record.get("index")
    payload = record.get("payload")
    metrics = record.get("metrics")
    trace = record.get("trace")
    if (
        not isinstance(index, int)
        or not isinstance(payload, dict)
        or not isinstance(metrics, (dict, type(None)))
        or not isinstance(trace, (list, type(None)))
    ):
        return None
    return ShardRecord(
        index=index, payload=payload, metrics=metrics, trace=trace
    )


@dataclass(frozen=True)
class CheckpointLoad:
    """What :func:`load_checkpoint` read from one checkpoint file.

    ``fingerprint`` is the digest-verified header fingerprint dict,
    ``records`` the valid shard records by index (first occurrence
    wins) and ``discarded`` the count of records dropped from the
    corrupt or truncated tail.  A file is outside input, so the loader
    also counts how repeated shard indices were resolved:

    * ``duplicates`` -- records whose index was already present with
      the *same* digest (a byte-identical repeat: benign, dropped);
    * ``conflicts`` -- records whose index was already present with a
      *different* digest.  Resolution is deterministic: the first valid
      record wins, the conflicting later record is dropped, and the
      event is counted here so ``repro obs inspect`` can surface it
      rather than silently merging whichever record happened to be
      written last.
    """

    fingerprint: Dict[str, object]
    records: Dict[int, ShardRecord]
    discarded: int
    duplicates: int = 0
    conflicts: int = 0


def load_checkpoint(path: "str | os.PathLike[str]") -> CheckpointLoad:
    """Read a checkpoint's fingerprint, shard records and discards.

    The header must be intact (digest-verified) or the whole file is
    rejected with :class:`CheckpointError` -- without a trustworthy
    fingerprint no shard can be attributed to a run.  Shard records are
    then read in order until the first truncated/corrupted line; that
    record and everything after it are discarded (the count is
    returned) and the valid prefix is kept.  A shard index recorded
    twice keeps its first valid occurrence deterministically; the
    returned :class:`CheckpointLoad` counts byte-identical repeats
    (``duplicates``) separately from digest conflicts (``conflicts``).
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not lines:
        raise CheckpointError(f"checkpoint {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path} has an unreadable header: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("record") != "header":
        raise CheckpointError(f"checkpoint {path} has no header record")
    digest = header.get("digest")
    body = {k: v for k, v in header.items() if k != "digest"}
    if digest != sha256_hex(canonical_json(body)):
        raise CheckpointError(f"checkpoint {path} header failed its digest")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {header.get('version')!r}; "
            f"this code reads version {CHECKPOINT_VERSION}"
        )
    fingerprint = header.get("fingerprint")
    if not isinstance(fingerprint, dict):
        raise CheckpointError(f"checkpoint {path} header has no fingerprint")

    records: Dict[int, ShardRecord] = {}
    discarded = 0
    duplicates = 0
    conflicts = 0
    for pos, line in enumerate(lines[1:]):
        line = line.strip()
        if not line:
            continue
        shard: Optional[ShardRecord]
        try:
            parsed = json.loads(line)
            shard = (
                _parse_shard_line(parsed) if isinstance(parsed, dict) else None
            )
        except ValueError:
            shard = None
        if shard is None:
            # Corrupted/truncated record: everything from here on is an
            # untrustworthy tail.  Count it and stop.
            discarded = len([l for l in lines[1 + pos:] if l.strip()])
            break
        held = records.get(shard.index)
        if held is None:
            records[shard.index] = shard
        elif held.to_line() == shard.to_line():
            duplicates += 1
        else:
            # Same index, different digest-verified content: both lines
            # are individually valid, so this is a writer bug or a
            # replayed stale record, never bit rot.  Keep the first
            # (deterministic for any reader) and surface the conflict.
            conflicts += 1
    return CheckpointLoad(fingerprint, records, discarded, duplicates, conflicts)


class CheckpointStore:
    """Owns one checkpoint file for the duration of a run.

    ``add()`` registers a completed shard and durably *appends* its
    line (write + fsync): completion-order appends keep every earlier
    byte of the file stable, which makes per-shard persistence O(1)
    instead of rewriting the whole file.  Full atomic rewrites (temp
    file + ``fsync`` + ``os.replace``) still happen where the file's
    existing content must change: header creation and resume-time
    cleanup of corrupt/duplicate lines.  Use
    :meth:`CheckpointStore.create` for a fresh run and
    :meth:`CheckpointStore.resume` to adopt (and keep extending) an
    existing file; both leave the file equal to :attr:`records`, ready
    for appends.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        fingerprint: RunFingerprint,
        records: Optional[Dict[int, ShardRecord]] = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.records: Dict[int, ShardRecord] = dict(records or {})
        self.discarded = 0

    # -- constructors -------------------------------------------------------

    @classmethod
    def create(
        cls, path: "str | os.PathLike[str]", fingerprint: RunFingerprint
    ) -> "CheckpointStore":
        """Start a fresh checkpoint (header flushed immediately).

        Flushing the header up front means even a run interrupted
        before its first shard leaves a valid, resumable file behind.
        """
        store = cls(path, fingerprint)
        store.flush()
        return store

    @classmethod
    def resume(
        cls, path: "str | os.PathLike[str]", fingerprint: RunFingerprint
    ) -> "CheckpointStore":
        """Adopt an existing checkpoint after validating its identity.

        Raises :class:`CheckpointMismatch` when any fingerprint field
        differs, and :class:`CheckpointError` when the file itself is
        unusable.  Corrupted tail records are dropped (``discarded``
        records how many) -- the shards they covered simply re-run.
        """
        loaded = load_checkpoint(path)
        diffs = fingerprint.mismatches(loaded.fingerprint)
        if diffs:
            raise CheckpointMismatch(
                f"checkpoint {path} belongs to a different run: "
                + "; ".join(diffs)
            )
        store = cls(path, fingerprint, loaded.records)
        store.discarded = loaded.discarded
        if loaded.discarded or loaded.duplicates or loaded.conflicts:
            # Rewrite immediately so the corrupt tail / duplicate lines
            # are gone on disk.  Otherwise the file already equals the
            # loaded records verbatim (they were read in file order).
            store.flush()
        return store

    # -- persistence --------------------------------------------------------

    def add(
        self,
        index: int,
        payload: Dict[str, object],
        metrics: Optional[Dict[str, object]] = None,
        trace: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Record one completed shard and append it durably.

        Appends one fsynced line to the file (O(1) per shard).  Each
        index is added once: the run's :class:`LeaseBook`, seeded with
        every resumed record, accepts each shard's completion once.
        """
        record = ShardRecord(
            index=index, payload=payload, metrics=metrics, trace=trace
        )
        self.records[index] = record
        try:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(record.to_line() + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            # The file vanished or the append failed part-way; a full
            # rewrite restores a consistent state.
            self.flush()

    def _header_line(self) -> str:
        return _digested_line({
            "record": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint.to_dict(),
        })

    def flush(self) -> None:
        """Rewrite the full checkpoint durably and atomically.

        The text goes through :func:`repro.obs.fsio.atomic_write_text`
        (temp file, ``fsync``, ``os.replace``), so a rewrite never
        replaces fsynced appends with bytes not yet on disk.

        Records are written in insertion (completion) order, never
        re-sorted, so the rewritten file is byte-for-byte what appending
        the same records one by one would have produced: a later
        :meth:`add` can append after it without reordering anything.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [self._header_line()]
        lines.extend(record.to_line() for record in self.records.values())
        atomic_write_text(str(self.path), "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ShardLease:
    """A bounded grant of shard indices to the executor or a worker.

    ``attempts`` carries the per-shard attempt number (1-based,
    parallel to ``shards``) so chaos injection keys on ``(global shard
    index, attempt)`` wherever the shard runs.  ``deadline`` is a
    scheduler-clock instant; a lease not fully accounted for by then is
    expired and its unfinished shards requeued.
    """

    lease_id: int
    shards: Tuple[int, ...]
    attempts: Tuple[int, ...]
    worker: str
    deadline: float


class LeaseBook:
    """Deterministic shard-lease ledger: the one shard scheduler.

    Tracks every shard index of a run through the lease lifecycle::

        pending -> leased -> completed
                      |          ^
                      v          |   (retry after exponential
                   failed --------    backoff + seeded jitter)
                      |
                      v
                quarantined (``keep_going``) / abort

    :func:`~repro.runtime.executor.run_resilient` (one shard per
    lease) and the distributed coordinator both schedule through it.
    The book is pure bookkeeping -- no I/O, no clock reads of its own
    (an injectable ``clock`` makes expiry testable) -- and entirely
    deterministic: grants hand out the lowest ready shard indices in
    order, retry delays come from :func:`backoff_delay`, so two
    schedulers fed the same failure sequence make identical decisions.
    A grant costs O(log n): a min-heap of ready indices plus a heap of
    backing-off ones keyed on the instant their window opens.
    """

    def __init__(
        self,
        total_shards: int,
        *,
        seed: int,
        lease_shards: int = 4,
        lease_timeout_s: float = 60.0,
        max_retries: int = 3,
        keep_going: bool = False,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 8.0,
        completed: Optional[List[int]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total_shards < 0:
            raise ValueError("total_shards must be >= 0")
        if lease_shards < 1:
            raise ValueError("lease_shards must be >= 1")
        self.total_shards = total_shards
        self.seed = seed
        self.lease_shards = lease_shards
        self.lease_timeout_s = lease_timeout_s
        self.max_retries = max_retries
        self.keep_going = keep_going
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.clock = clock
        self.completed: set = set(completed or ())
        self.quarantined: List[int] = []
        self.failures: Dict[int, int] = {}
        self.retry_at: Dict[int, float] = {}
        #: Shards waiting for a lease.  A heap entry whose shard left
        #: this set or was failed again is stale, dropped on sight.
        self._pending = set(range(total_shards)) - self.completed
        self._ready: List[int] = sorted(self._pending)
        self._backoff: List[Tuple[float, int]] = []
        self._active: Dict[int, ShardLease] = {}
        self._outstanding: Dict[int, set] = {}
        self._lease_of: Dict[int, int] = {}
        self._next_lease_id = 0

    # -- queries ------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Shards waiting (or backing off) for a lease."""
        return len(self._pending)

    @property
    def done(self) -> bool:
        """True when every shard is completed or quarantined."""
        return (
            len(self.completed) + len(self.quarantined) >= self.total_shards
            and not self._active
            and not self._pending
        )

    def outstanding(self, lease_id: int) -> Tuple[int, ...]:
        """Shard indices of a lease not yet completed/failed."""
        return tuple(sorted(self._outstanding.get(lease_id, ())))

    def _ready_top(self, now: float) -> Optional[int]:
        """Lowest pending index whose backoff window has opened."""
        while self._backoff and self._backoff[0][0] <= now:
            ready_at, index = heapq.heappop(self._backoff)
            if index in self._pending and self.retry_at.get(index) == ready_at:
                heapq.heappush(self._ready, index)
        while self._ready:
            index = self._ready[0]
            if index in self._pending and self.retry_at.get(index, 0.0) <= now:
                return index
            heapq.heappop(self._ready)
        return None

    # -- lease lifecycle ----------------------------------------------------

    def grant(self, worker: str) -> Optional[ShardLease]:
        """Lease up to ``lease_shards`` ready indices to ``worker``.

        Indices are handed out lowest-first among those whose backoff
        window has elapsed; returns ``None`` when nothing is ready yet
        (distinguish via :attr:`pending_count` whether the caller
        should wait for a backoff window or for active leases).
        """
        now = self.clock()
        ready: List[int] = []
        while len(ready) < self.lease_shards:
            index = self._ready_top(now)
            if index is None:
                break
            heapq.heappop(self._ready)
            self._pending.discard(index)
            ready.append(index)
        if not ready:
            return None
        lease = ShardLease(
            lease_id=self._next_lease_id,
            shards=tuple(ready),
            attempts=tuple(self.failures.get(i, 0) + 1 for i in ready),
            worker=worker,
            deadline=now + self.lease_timeout_s,
        )
        self._next_lease_id += 1
        self._active[lease.lease_id] = lease
        self._outstanding[lease.lease_id] = set(ready)
        for i in ready:
            self._lease_of[i] = lease.lease_id
        return lease

    def _detach(self, index: int) -> None:
        lease_id = self._lease_of.pop(index, None)
        if lease_id is None:
            return
        outstanding = self._outstanding.get(lease_id)
        if outstanding is not None:
            outstanding.discard(index)
            if not outstanding:
                self._outstanding.pop(lease_id, None)
                self._active.pop(lease_id, None)

    def complete(self, index: int) -> bool:
        """Mark a shard completed; ``False`` for a duplicate/stale result."""
        if index in self.completed or index in self.quarantined:
            return False
        self.completed.add(index)
        self.retry_at.pop(index, None)
        self._detach(index)
        self._pending.discard(index)  # completed while queued for retry
        return True

    def fail(self, index: int, reason: str) -> str:
        """Account one shard failure; returns the scheduling decision.

        ``"retry"``: the shard re-enters the pending queue behind a
        deterministic backoff window.  ``"quarantine"``: the retry
        budget is exhausted under ``keep_going``; the shard is parked.
        ``"abort"``: budget exhausted without ``keep_going`` -- the
        caller must stop the run (the book itself keeps the shard out
        of the queue either way).
        """
        if index in self.completed:
            return "retry"  # stale failure for an already-done shard
        self._detach(index)
        count = self.failures.get(index, 0) + 1
        self.failures[index] = count
        if count > self.max_retries:
            self._pending.discard(index)
            self.retry_at.pop(index, None)
            if self.keep_going:
                if index not in self.quarantined:
                    self.quarantined.append(index)
                return "quarantine"
            return "abort"
        ready_at = self.clock() + backoff_delay(
            self.seed, index, count, self.backoff_base_s, self.backoff_cap_s
        )
        self.retry_at[index] = ready_at
        self._pending.add(index)
        heapq.heappush(self._backoff, (ready_at, index))
        return "retry"

    def expire(self) -> List[Tuple[ShardLease, Tuple[int, ...]]]:
        """Pop leases whose deadline has passed.

        Returns ``(lease, outstanding_indices)`` pairs; the caller
        decides each outstanding shard's fate via :meth:`fail` (so it
        can emit events and honour the abort contract).
        """
        now = self.clock()
        expired = [
            lease
            for lease in self._active.values()
            if lease.deadline <= now and self._outstanding.get(lease.lease_id)
        ]
        results: List[Tuple[ShardLease, Tuple[int, ...]]] = []
        for lease in expired:
            indices = self.release(lease.lease_id)
            results.append((lease, indices))
        return results

    def release(self, lease_id: int) -> Tuple[int, ...]:
        """Drop a lease (worker gone); returns its unfinished indices.

        The indices are *not* requeued automatically -- the caller
        routes each through :meth:`fail` with a reason (or uses
        :meth:`requeue`).
        """
        self._active.pop(lease_id, None)
        indices = tuple(sorted(self._outstanding.pop(lease_id, ())))
        for i in indices:
            self._lease_of.pop(i, None)
        return indices

    def requeue(self, lease_id: int) -> Tuple[int, ...]:
        """Drop a lease; its unfinished indices are ready again, uncharged.

        For shards that lost their worker with a torn-down pool: each
        reruns with the same attempt number.
        """
        indices = self.release(lease_id)
        for index in indices:
            self._pending.add(index)
            heapq.heappush(self._ready, index)
        return indices

    def next_ready_in(self) -> Optional[float]:
        """Seconds until the earliest backoff window opens (0 if ready).

        ``None`` when nothing is pending at all -- the caller should
        then wait on active leases instead.
        """
        if not self._pending:
            return None
        now = self.clock()
        if self._ready_top(now) is not None:
            return 0.0
        while self._backoff:
            ready_at, index = self._backoff[0]
            if index in self._pending and self.retry_at.get(index) == ready_at:
                return max(0.0, ready_at - now)
            heapq.heappop(self._backoff)
        return None
