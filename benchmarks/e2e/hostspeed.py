"""The host's speed, probed between chunks of timed work.

The benchmark runs on shared hosts whose speed is not constant: a
fixed CPU kernel's time swings by up to 2x within minutes, and by tens
of percent from one hour to the next, and the workloads' times swing
with it.  Longer runs do not remove that, because the swings outlast
any run.  So the compute-bound end-to-end times are reported at a
fixed reference speed instead:

- a *probe* times one run of a fixed kernel (pure Python plus numpy,
  nothing from ``repro``) with the garbage collector off;
- every timed chunk of work sits between two probes (:class:`Pacer`),
  and its time is scaled by ``REFERENCE_PROBE_S`` over the mean of
  those two probes.

The CPUs of one host run at different speeds at the same moment (one
can read 0.14 s while the other reads 0.08 s), so a probe speaks for
work on the CPU it ran on: in the same thread, or, for work in another
process, on the CPU that process is pinned to (:func:`pinned`).

On the host that set ``REFERENCE_PROBE_S`` a scaled time reads as
seconds on a quiet host.  A change to the code moves the scaled time
as it moves the raw one, because the probe runs none of it.  The raw
times and the median probe are kept in each run record.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import os
import random
import statistics
import time
from time import perf_counter
from typing import (
    AbstractSet, Callable, ContextManager, Iterator, List, Optional, Tuple,
    TypeVar,
)

#: A probe's time at the reference speed: about the 5th percentile of
#: 400 probes on a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_PROBE_S = 0.080

T = TypeVar("T")


def _kernel(np) -> None:
    rng = random.Random(1)
    heap: List[Tuple[float, int]] = []
    tally = {}
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
        tally[i & 1023] = tally.get(i & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    draws = np.random.default_rng(1)
    for _ in range(20):
        np.sort(draws.exponential(size=100_000))


def probe() -> float:
    """Seconds one run of the fixed kernel takes now.

    numpy is imported here, before the clock starts, rather than with
    this module, so that importing it stays part of the set-up the
    workloads time.
    """
    import numpy

    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel(numpy)
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale(seconds: float, *probes: float) -> float:
    """``seconds`` at the reference speed, given the probes around them."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


@contextlib.contextmanager
def pinned(cpus: Optional[AbstractSet[int]]) -> Iterator[None]:
    """Run the calling thread on ``cpus`` only, for the block.

    Threads and processes it starts meanwhile keep that affinity.  With
    ``None``, or where the platform cannot pin, it changes nothing.
    """
    if cpus is None or not hasattr(os, "sched_setaffinity"):
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Pacer:
    """Times chunks of work between probes; scales them to the reference.

    It probes once when made, and once after every chunk, so each
    chunk has a probe on either side.  With ``enabled=False`` it does
    not probe (a traced run, whose spans should hold no probes) and
    scaled times equal raw ones.  ``settle_s`` is a pause before each
    probe, for work that goes on in another process after the chunk
    returns (a server cleaning up after a job) and would slow the probe.
    ``gate`` is held over the pause and the probe; load running beside
    the chunks takes it around each of its steps, so it stands still
    while the host is probed.  Each probe is the median of ``repeats``,
    for chunks long enough that one probe's bursts would skew them.
    ``cpus`` pins the probes, for chunks run by a process pinned there.
    """

    def __init__(self, enabled: bool = True, settle_s: float = 0.0,
                 gate: ContextManager = contextlib.nullcontext(),
                 repeats: int = 1, cpus: Optional[AbstractSet[int]] = None):
        self.enabled = enabled
        self.settle_s = settle_s
        self.gate = gate
        self.repeats = repeats
        self.cpus = cpus
        self.probes: List[float] = []
        #: ``(raw seconds, reference seconds)`` per chunk.
        self.chunks: List[Tuple[float, float]] = []
        self.probe()

    def probe(self) -> float:
        if not self.enabled:
            seconds = REFERENCE_PROBE_S
        else:
            with self.gate, pinned(self.cpus):
                time.sleep(self.settle_s)
                seconds = statistics.median(
                    probe() for _ in range(self.repeats))
        self.probes.append(seconds)
        return seconds

    def time(self, fn: Callable[..., T], *args, **kwargs) -> T:
        """Call ``fn`` as one chunk, then probe."""
        before = self.probes[-1]
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        self.chunks.append((raw, scale(raw, before, self.probe())))
        return result

    def since(self, first: int) -> Tuple[float, float]:
        """Raw and reference seconds of the chunks from ``first`` on."""
        done = self.chunks[first:]
        return sum(c[0] for c in done), sum(c[1] for c in done)

    def slowdown(self) -> float:
        """The median probe over the reference: 1.5 is a 50% slower host."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S
