"""Deterministic failure injection for the campaign runtime itself.

HARP and BEER's lesson -- error-mitigation infrastructure must be
validated under *injected* failures -- applies to this reproduction's
own harness: the retry, timeout, checkpoint and resume paths of
:mod:`repro.runtime` are only trustworthy if tests can crash a worker
on exactly shard 3, hang shard 5 past its deadline, or corrupt the
last checkpoint record, and then prove the recovered result is
bit-identical to an undisturbed run.

A :class:`ChaosPolicy` is a frozen, picklable set of per-shard-index
predicates.  Injection is fully deterministic: a shard either always or
never misbehaves for a given ``(index, attempt)``, so chaos tests are
exact, not probabilistic.  Faults trigger while ``attempt <=
trigger_attempts`` (default 1: fail once, then recover), which lets one
policy exercise both the retry-succeeds and the retries-exhausted
paths.

Worker-pool runs inject *real* failures (``os._exit`` for a crash, a
long sleep for a hang); in-process runs (``workers=1``) raise the
equivalent :class:`ChaosCrash` / :class:`ChaosHang` exceptions, which
the executor classifies exactly like their out-of-process twins.

Distributed runs add four *network* verbs -- ``drop``, ``delay``,
``duplicate`` and ``partition`` -- applied at the protocol layer by
:mod:`repro.runtime.distributed` workers rather than inside the shard
function.  They are keyed by the same deterministic ``(index,
attempt)`` predicate, where the index is the campaign-global shard
index carried in the lease, so a chaos test can sever a worker exactly
mid-lease and assert the coordinator requeues and recovers.

The CLI exposes this as the developer flag ``--chaos SPEC``; see
:func:`parse_chaos_spec` for the spec grammar.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "CRASH_EXIT_CODE",
    "ChaosCrash",
    "ChaosHang",
    "ChaosFault",
    "ChaosPolicy",
    "ChaosSpecError",
    "parse_chaos_spec",
    "corrupt_checkpoint_tail",
]

#: Exit status used by chaos-crashed workers (distinctive in ps output).
CRASH_EXIT_CODE = 86


class ChaosCrash(RuntimeError):
    """In-process stand-in for a worker dying abnormally."""


class ChaosHang(RuntimeError):
    """In-process stand-in for a worker hanging past its deadline."""


class ChaosFault(RuntimeError):
    """An injected ordinary exception inside a shard."""


@dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic per-shard failure injection plan.

    ``crash_shards`` / ``hang_shards`` / ``fault_shards`` name the shard
    indices that misbehave; each triggers while the shard's attempt
    number is ``<= trigger_attempts`` and recovers afterwards.  Setting
    ``trigger_attempts`` at or above the retry budget turns an injected
    failure permanent, which is how tests exercise quarantine and
    abort-with-checkpoint.
    """

    crash_shards: Tuple[int, ...] = ()
    hang_shards: Tuple[int, ...] = ()
    fault_shards: Tuple[int, ...] = ()
    drop_shards: Tuple[int, ...] = ()
    delay_shards: Tuple[int, ...] = ()
    duplicate_shards: Tuple[int, ...] = ()
    partition_shards: Tuple[int, ...] = ()
    trigger_attempts: int = 1
    hang_s: float = 3600.0
    delay_s: float = 0.25

    def _triggers(self, shards: Tuple[int, ...], index: int, attempt: int) -> bool:
        return index in shards and attempt <= self.trigger_attempts

    def should_crash(self, index: int, attempt: int) -> bool:
        """True when this (shard, attempt) must die abnormally."""
        return self._triggers(self.crash_shards, index, attempt)

    def should_hang(self, index: int, attempt: int) -> bool:
        """True when this (shard, attempt) must hang past any timeout."""
        return self._triggers(self.hang_shards, index, attempt)

    def should_fault(self, index: int, attempt: int) -> bool:
        """True when this (shard, attempt) must raise an exception."""
        return self._triggers(self.fault_shards, index, attempt)

    def should_drop(self, index: int, attempt: int) -> bool:
        """True when this shard's result frame must be silently dropped.

        The worker computes the shard, then closes the connection
        instead of sending the record -- the wire-level twin of a lost
        packet carrying completed work.
        """
        return self._triggers(self.drop_shards, index, attempt)

    def should_delay(self, index: int, attempt: int) -> bool:
        """True when this shard's result frame must be sent late."""
        return self._triggers(self.delay_shards, index, attempt)

    def should_duplicate(self, index: int, attempt: int) -> bool:
        """True when this shard's result frame must be sent twice.

        Exercises the coordinator's idempotent receive path: a
        byte-identical duplicate must be counted and discarded, never
        double-merged.
        """
        return self._triggers(self.duplicate_shards, index, attempt)

    def should_partition(self, index: int, attempt: int) -> bool:
        """True when the worker must sever the connection *before*
        running this shard, simulating a network partition mid-lease."""
        return self._triggers(self.partition_shards, index, attempt)

    def apply_in_worker(self, index: int, attempt: int) -> None:
        """Inject for real inside a pool worker process.

        A crash is ``os._exit`` (no cleanup, no exception propagation --
        exactly how an OOM kill looks to the parent); a hang is a sleep
        far past any sane shard timeout.
        """
        if self.should_crash(index, attempt):
            os._exit(CRASH_EXIT_CODE)
        if self.should_hang(index, attempt):
            time.sleep(self.hang_s)
        if self.should_fault(index, attempt):
            raise ChaosFault(
                f"chaos: injected fault in shard {index} (attempt {attempt})"
            )

    def apply_in_process(self, index: int, attempt: int) -> None:
        """Inject the exception equivalents for ``workers=1`` runs.

        Actually exiting or sleeping would take the *driver* process
        down with the shard, so the in-process executor receives typed
        exceptions and classifies them like the real thing.
        """
        if self.should_crash(index, attempt):
            raise ChaosCrash(
                f"chaos: injected crash in shard {index} (attempt {attempt})"
            )
        if self.should_hang(index, attempt):
            raise ChaosHang(
                f"chaos: injected hang in shard {index} (attempt {attempt})"
            )
        if self.should_fault(index, attempt):
            raise ChaosFault(
                f"chaos: injected fault in shard {index} (attempt {attempt})"
            )


class ChaosSpecError(ValueError):
    """A ``--chaos`` spec string could not be parsed."""


def parse_chaos_spec(spec: str) -> ChaosPolicy:
    """Parse the CLI's ``--chaos`` spec into a :class:`ChaosPolicy`.

    Grammar: semicolon-separated clauses, e.g.
    ``"crash=2,5;hang=3;fault=0;attempts=2;hang-s=30"``.

    * ``crash=I[,J...]`` -- worker crash on those shard indices;
    * ``hang=I[,J...]`` -- hang (exceeds any ``--shard-timeout``);
    * ``fault=I[,J...]`` -- raise an exception inside the shard;
    * ``drop=I[,J...]`` -- compute the shard but sever the connection
      instead of sending its result (distributed runs only);
    * ``delay=I[,J...]`` -- send the shard's result ``delay-s`` late;
    * ``duplicate=I[,J...]`` -- send the shard's result frame twice;
    * ``partition=I[,J...]`` -- sever the connection before running
      the shard, as a network partition mid-lease;
    * ``attempts=N`` -- misbehave on the first N attempts (default 1);
    * ``hang-s=S`` -- how long a hung worker sleeps (default 3600);
    * ``delay-s=S`` -- how late a delayed frame is sent (default 0.25).
    """
    index_sets = {
        "crash": (),
        "hang": (),
        "fault": (),
        "drop": (),
        "delay": (),
        "duplicate": (),
        "partition": (),
    }
    attempts = 1
    hang_s = 3600.0
    delay_s = 0.25
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ChaosSpecError(f"chaos clause {clause!r} is not key=value")
        try:
            if key in index_sets:
                index_sets[key] = tuple(int(v) for v in value.split(","))
            elif key == "attempts":
                attempts = int(value)
            elif key in ("hang-s", "hang_s"):
                hang_s = float(value)
            elif key in ("delay-s", "delay_s"):
                delay_s = float(value)
            else:
                raise ChaosSpecError(f"unknown chaos clause {key!r}")
        except ValueError as exc:
            if isinstance(exc, ChaosSpecError):
                raise
            raise ChaosSpecError(
                f"bad value in chaos clause {clause!r}: {exc}"
            ) from exc
    if attempts < 1:
        raise ChaosSpecError("chaos attempts must be >= 1")
    if delay_s < 0:
        raise ChaosSpecError("chaos delay-s must be >= 0")
    return ChaosPolicy(
        crash_shards=index_sets["crash"],
        hang_shards=index_sets["hang"],
        fault_shards=index_sets["fault"],
        drop_shards=index_sets["drop"],
        delay_shards=index_sets["delay"],
        duplicate_shards=index_sets["duplicate"],
        partition_shards=index_sets["partition"],
        trigger_attempts=attempts,
        hang_s=hang_s,
        delay_s=delay_s,
    )


def corrupt_checkpoint_tail(
    path: "str | os.PathLike[str]", nbytes: int = 8, seed: int = 0
) -> int:
    """Deterministically flip bits inside a checkpoint's last record.

    Simulates a torn write / bad sector on the most recent shard record
    so tests can prove :func:`repro.runtime.checkpoint.load_checkpoint`
    discards exactly the damaged tail.  Returns how many bytes were
    altered.  The corruption targets the final non-empty line's payload
    region, never the trailing newline, so the damage is content-level
    (digest mismatch), not merely a parse artefact -- though either
    must be survived.
    """
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    end = len(raw)
    while end > 0 and raw[end - 1 : end] in (b"\n", b"\r"):
        end -= 1
    start = raw.rfind(b"\n", 0, end) + 1
    if end <= start:
        return 0
    rng = random.Random(seed)
    span = end - start
    flipped = min(nbytes, span)
    for _ in range(flipped):
        pos = start + rng.randrange(span)
        raw[pos] ^= 0x55
    with open(path, "wb") as fh:
        fh.write(raw)
    return flipped
