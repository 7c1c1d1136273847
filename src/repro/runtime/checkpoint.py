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
  through write-temp-then-``os.replace``, so a reader never observes a
  half-written header.  Completed shards are *appended* (one fsynced
  line each) rather than rewriting the whole file -- O(1) bytes per
  shard instead of O(shards) -- and a crash mid-append leaves at most
  one torn tail line, which :func:`load_checkpoint` already discards.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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
    "config_digest",
    "load_checkpoint",
]

#: On-disk format version; bumped on incompatible layout changes.
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is unusable (unreadable header, bad version)."""


class CheckpointMismatch(CheckpointError):
    """A resume was attempted against a different run's checkpoint."""


def _canonical(obj: object) -> str:
    """Canonical JSON text (sorted keys, no whitespace) for digesting."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj: object) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


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
    return _digest(description)


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

    def mismatches(self, other: Dict[str, object]) -> List[str]:
        """Human-readable field diffs vs. a stored fingerprint dict."""
        mine = self.to_dict()
        return [
            f"{field}: run={mine[field]!r} checkpoint={other.get(field)!r}"
            for field in mine
            if mine[field] != other.get(field)
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
        body = {
            "record": "shard",
            "index": self.index,
            "payload": self.payload,
            "metrics": self.metrics,
            "trace": self.trace,
        }
        body["digest"] = _digest(
            {k: v for k, v in body.items() if k != "digest"}
        )
        return _canonical(body)


def _parse_shard_line(record: Dict[str, object]) -> Optional[ShardRecord]:
    """Validate one parsed shard record; ``None`` if corrupt."""
    if record.get("record") != "shard":
        return None
    digest = record.get("digest")
    body = {k: v for k, v in record.items() if k != "digest"}
    if digest != _digest(body):
        return None
    index = record.get("index")
    payload = record.get("payload")
    if not isinstance(index, int) or not isinstance(payload, dict):
        return None
    return ShardRecord(
        index=index,
        payload=payload,
        metrics=record.get("metrics"),
        trace=record.get("trace"),
    )


class CheckpointLoad(tuple):
    """Result of :func:`load_checkpoint`.

    Unpacks as the historical 3-tuple ``(fingerprint, records,
    discarded)`` so every existing call site keeps working, while also
    exposing how duplicate shard indices were resolved:

    * ``duplicates`` -- records whose index was already present with
      the *same* digest (idempotent re-delivery: benign, dropped);
    * ``conflicts`` -- records whose index was already present with a
      *different* digest.  Resolution is deterministic: the first valid
      record wins, the conflicting later record is dropped, and the
      event is counted here so callers (``repro obs inspect``, the
      distributed coordinator) can surface it rather than silently
      merging whichever record happened to be written last.
    """

    def __new__(
        cls,
        fingerprint: Dict[str, object],
        records: Dict[int, ShardRecord],
        discarded: int,
        duplicates: int = 0,
        conflicts: int = 0,
    ) -> "CheckpointLoad":
        self = super().__new__(cls, (fingerprint, records, discarded))
        self.duplicates = duplicates
        self.conflicts = conflicts
        return self

    @property
    def fingerprint(self) -> Dict[str, object]:
        """The digest-verified header fingerprint dict."""
        return self[0]

    @property
    def records(self) -> Dict[int, ShardRecord]:
        """Valid shard records by index (first occurrence wins)."""
        return self[1]

    @property
    def discarded(self) -> int:
        """Records dropped from the corrupt/truncated tail."""
        return self[2]


def load_checkpoint(path: "str | os.PathLike[str]") -> CheckpointLoad:
    """Read a checkpoint: ``(fingerprint, records_by_index, discarded)``.

    The header must be intact (digest-verified) or the whole file is
    rejected with :class:`CheckpointError` -- without a trustworthy
    fingerprint no shard can be attributed to a run.  Shard records are
    then read in order until the first truncated/corrupted line; that
    record and everything after it are discarded (the count is
    returned) and the valid prefix is kept.  A shard index recorded
    twice keeps its first valid occurrence deterministically; the
    returned :class:`CheckpointLoad` counts byte-identical re-deliveries
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
    if digest != _digest({k: v for k, v in header.items() if k != "digest"}):
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
    file + ``os.replace``) still happen where the file's existing
    content must change: header creation and resume-time cleanup of
    corrupt/duplicate lines.  Use
    :meth:`CheckpointStore.create` for a fresh run and
    :meth:`CheckpointStore.resume` to adopt (and keep extending) an
    existing file.
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
        self.duplicates = 0
        self.conflicts = 0
        #: Whether the on-disk file is known to equal our in-memory
        #: state, making a bare append of the next record sufficient.
        #: Cleared until the first full flush establishes that.
        self._appendable = False

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
        store.duplicates = loaded.duplicates
        store.conflicts = loaded.conflicts
        if loaded.discarded or loaded.duplicates or loaded.conflicts:
            # Rewrite immediately so the corrupt tail / duplicate lines
            # are gone on disk.
            store.flush()
        else:
            # The file already equals our in-memory state verbatim
            # (records were loaded in file order), so future adds may
            # append directly.
            store._appendable = True
        return store

    # -- persistence --------------------------------------------------------

    @property
    def completed(self) -> Dict[int, ShardRecord]:
        """Shard records currently held (index -> record)."""
        return self.records

    def add(
        self,
        index: int,
        payload: Dict[str, object],
        metrics: Optional[Dict[str, object]] = None,
        trace: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        """Record one completed shard and persist it durably.

        The common case appends one fsynced line to the existing file
        (O(1) per shard); a re-add of an index already held falls back
        to a full atomic rewrite so the file never accumulates stale
        duplicate lines.
        """
        record = ShardRecord(
            index=index, payload=payload, metrics=metrics, trace=trace
        )
        held = self.records.get(index)
        if held is not None and held.to_line() == record.to_line():
            return  # idempotent re-delivery; the file already has it
        rewrite = held is not None or not self._appendable
        if held is not None:
            # Re-insert at the end of the order, so file order stays
            # completion order: the replacement is the newest record.
            del self.records[index]
        self.records[index] = record
        if rewrite:
            self.flush()
            return
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
        body = {
            "record": "header",
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint.to_dict(),
        }
        body["digest"] = _digest(body)
        return _canonical(body)

    def flush(self) -> None:
        """Rewrite the full checkpoint via temp file + ``os.replace``.

        Records are written in insertion (completion) order, never
        re-sorted, so the rewritten file is byte-for-byte what appending
        the same records one by one would have produced: a later
        :meth:`add` can append after it without reordering anything.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f".{self.path.name}.tmp.{os.getpid()}"
        )
        lines = [self._header_line()]
        lines.extend(record.to_line() for record in self.records.values())
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        self._appendable = True


@dataclass(frozen=True)
class ShardLease:
    """A bounded grant of shard indices to one distributed worker.

    ``attempts`` carries the per-shard attempt number (1-based,
    parallel to ``shards``) so workers key deterministic chaos
    injection on ``(global shard index, attempt)`` exactly like the
    in-process executor.  ``deadline`` is a coordinator-clock instant;
    a lease not fully accounted for by then is expired and its
    unfinished shards requeued.
    """

    lease_id: int
    shards: Tuple[int, ...]
    attempts: Tuple[int, ...]
    worker: str
    deadline: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for the wire protocol's ``lease`` message."""
        return {
            "lease_id": self.lease_id,
            "shards": list(self.shards),
            "attempts": list(self.attempts),
            "worker": self.worker,
        }


class LeaseBook:
    """Deterministic shard-lease ledger for the distributed coordinator.

    Tracks every shard index of a run through the lease lifecycle::

        pending -> leased -> completed
                      |          ^
                      v          |   (retry with the executor's
                   failed --------    exponential backoff + jitter)
                      |
                      v
                quarantined (``keep_going``) / abort

    The book is pure bookkeeping -- no I/O, no clock reads of its own
    (an injectable ``clock`` makes expiry testable) -- and entirely
    deterministic: grants hand out the lowest ready shard indices in
    order, retry delays come from :func:`backoff_delay` (the executor's
    formula too), so two coordinators fed the same failure sequence
    make identical scheduling decisions.
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
        self._pending: List[int] = [
            i for i in range(total_shards) if i not in self.completed
        ]
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
    def active_leases(self) -> List[ShardLease]:
        """Currently outstanding leases."""
        return list(self._active.values())

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

    # -- lease lifecycle ----------------------------------------------------

    def grant(self, worker: str) -> Optional[ShardLease]:
        """Lease up to ``lease_shards`` ready indices to ``worker``.

        Indices are handed out lowest-first among those whose backoff
        window has elapsed; returns ``None`` when nothing is ready yet
        (distinguish via :attr:`pending_count` whether the caller
        should wait for a backoff window or for active leases).
        """
        now = self.clock()
        ready = [
            i for i in self._pending if self.retry_at.get(i, 0.0) <= now
        ][: self.lease_shards]
        if not ready:
            return None
        for i in ready:
            self._pending.remove(i)
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
        if index in self._pending:  # completed while queued for retry
            self._pending.remove(index)
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
            if index in self._pending:
                self._pending.remove(index)
            self.retry_at.pop(index, None)
            if self.keep_going:
                if index not in self.quarantined:
                    self.quarantined.append(index)
                return "quarantine"
            return "abort"
        self.retry_at[index] = self.clock() + backoff_delay(
            self.seed, index, count, self.backoff_base_s, self.backoff_cap_s
        )
        if index not in self._pending:
            self._pending.append(index)
            self._pending.sort()
        return "retry"

    def expire(self, now: Optional[float] = None) -> List[Tuple[ShardLease, Tuple[int, ...]]]:
        """Pop leases whose deadline has passed.

        Returns ``(lease, outstanding_indices)`` pairs; the caller
        decides each outstanding shard's fate via :meth:`fail` (so it
        can emit events and honour the abort contract).
        """
        now = self.clock() if now is None else now
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
        routes each through :meth:`fail` with a reason.
        """
        self._active.pop(lease_id, None)
        indices = tuple(sorted(self._outstanding.pop(lease_id, ())))
        for i in indices:
            self._lease_of.pop(i, None)
        return indices

    def next_ready_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest backoff window opens (0 if ready).

        ``None`` when nothing is pending at all -- the caller should
        then wait on active leases instead.
        """
        if not self._pending:
            return None
        now = self.clock() if now is None else now
        return max(
            0.0,
            min(self.retry_at.get(i, 0.0) for i in self._pending) - now,
        )
