"""Synthetic memory-trace generation.

A trace is the sequence a Pinpoint slice would provide USIMM: memory
operations separated by counts of non-memory instructions.  The
generator turns a :class:`repro.perfsim.workloads.Workload` behaviour
model into a concrete per-core stream:

* gaps between misses are geometric, the ``int`` of an exponential
  with mean ``1000 / mpki`` (so each instruction is a miss with
  probability ``1 - exp(-mpki / 1000)``); a workload with ``mpki ==
  0`` (or so small that the mean gap overflows to infinity) never
  misses, so its trace is empty;
* with probability ``row_buffer_hit_rate`` the next access continues
  sequentially within the currently open row (a row hit under an
  open-page policy) while ``column + 1 < columns``; otherwise it jumps
  to a fresh row;
* jumps pick a new bank uniformly, except that ``bank_locality`` of
  them stay on the current bank (pointer-chasing bank pressure);
* ``write_fraction`` of operations are write-backs.

Traces are deterministic in (workload, core, seed), so every scheme
config replays *exactly* the same instruction stream -- the comparisons
in Figures 11-14 are paired.

**The word layout.**  A trace reads one Mersenne-Twister stream per
(workload, core), ``random.Random((seed << 16) ^ (core * 7919) ^
name_salt)``, as 32-bit words in a fixed layout.  Five words give the
starting channel, rank, bank, row and column.  Then every operation
takes exactly 13 words, whichever way it goes:

* words 0-7 are four ``genrand_res53`` pairs, CPython's ``random()``:
  the gap, the row hit, the bank locality and the write;
* words 8-12 are the channel, rank, bank, row and column a jump takes.

A word maps onto ``[0, n)`` as ``(word * n) >> 32``, its top bits when
``n`` is a power of two.  No draw is rejected and no branch decides
which word comes next, so numpy can build a whole trace at once, and
the words are the same for every geometry.

:class:`SyntheticTrace` is the scalar spec of that layout, and the
scalar engine iterates it.  :func:`build_trace_arrays` gives the
pipeline engine the same trace in bulk.  It caches one *generation*
per (workload, instructions, columns, core, seed) and maps it onto the
requested geometry on every call, so every geometry of a scheme grid
shares one generation per (workload, core).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from math import expm1, log, sqrt
from typing import TYPE_CHECKING, Iterator, List

from repro.perfsim.requests import RequestType
from repro.perfsim.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover - numpy loads lazily; typing only
    import numpy as np

#: Words before the first op: the starting channel, rank, bank, row
#: and column.
_START_WORDS = 5
#: Words every op takes (see the module docstring).
_OP_WORDS = 13
#: The word layout's tag in the perf-grid checkpoint fingerprint
#: (:func:`repro.perfsim.runner.suite_fingerprint`): a grid checkpointed
#: under another layout drew other traces and is never resumed.
TRACE_LAYOUT = "mt32-words-5+13"


@dataclass(frozen=True)
class TraceOp:
    """One memory operation in a core's instruction stream.

    ``position`` is the index of this operation in the core's committed
    instruction stream (used by the ROB window model); the address is
    pre-decomposed for the channel mapper.
    """

    position: int
    req_type: RequestType
    channel: int
    rank: int
    bank: int
    row: int
    column: int


def _mean_gap(mpki: float, instructions: int) -> float:
    """Mean instructions between misses; ``inf`` if there are none.

    A finite gap is capped at ``max(instructions, 1) * 2**54``.  The
    smallest nonzero exponential draw is ``-log(1 - 2**-53)``, about
    ``2**-53``, so with the cap any nonzero draw already jumps past the
    end of the stream, as it would with the uncapped gap.  The cap only
    stops the product from overflowing to infinity when ``mpki`` is
    tiny.
    """
    gap = 1000.0 / mpki if mpki > 0 else float("inf")
    if gap == float("inf"):
        return gap
    return min(gap, max(instructions, 1) * 2.0**54)


def _stream(workload: Workload, core: int, seed: int) -> random.Random:
    """The Mersenne-Twister stream of one (workload, core) trace."""
    # zlib.crc32 (not hash()) keeps traces identical across
    # processes regardless of PYTHONHASHSEED.
    name_salt = zlib.crc32(workload.name.encode()) & 0xFFFF
    return random.Random((seed << 16) ^ (core * 7919) ^ name_salt)


def _check_moduli(*moduli: int) -> None:
    """Reject a geometry that a 32-bit word cannot map onto."""
    for n in moduli:
        if not 1 <= n <= 2**32:
            raise ValueError(f"trace geometry {n} outside 1..2**32")


class SyntheticTrace:
    """Deterministic synthetic trace for one (workload, core) pair.

    The scalar spec of the word layout (see the module docstring): one
    ``random()`` call per ``genrand_res53`` pair and one
    ``getrandbits(32)`` per location word, 13 words per op.

    Parameters
    ----------
    workload:
        The behaviour model.
    instructions:
        Length of the instruction stream to synthesise.
    channels, ranks, banks, rows, columns:
        Geometry the addresses are drawn over (logical values -- the
        engine passes post-lockstep counts so traffic spreads over the
        resources the scheme actually exposes), each in ``1..2**32``.
    core, seed:
        Determinism knobs; different cores get decorrelated streams.
    """

    def __init__(
        self,
        workload: Workload,
        instructions: int,
        channels: int,
        ranks: int,
        banks: int,
        rows: int,
        columns: int,
        core: int = 0,
        seed: int = 2016,
    ) -> None:
        _check_moduli(channels, ranks, banks, rows, columns)
        self.workload = workload
        self.instructions = instructions
        self.channels = channels
        self.ranks = ranks
        self.banks = banks
        self.rows = rows
        self.columns = columns
        self.core = core
        self.seed = seed

    def __iter__(self) -> Iterator[TraceOp]:
        w = self.workload
        mean_gap = _mean_gap(w.mpki, self.instructions)
        if mean_gap == float("inf"):
            return  # no misses ever: an empty trace
        rng = _stream(w, self.core, self.seed)
        uniform = rng.random
        word = rng.getrandbits
        moduli = (self.channels, self.ranks, self.banks, self.rows,
                  self.columns)
        channel, rank, bank, row, column = [
            (word(32) * n) >> 32 for n in moduli
        ]

        position = 0
        while True:
            gap_u, hit_u, local_u, write_u = (
                uniform(), uniform(), uniform(), uniform()
            )
            jump = [(word(32) * n) >> 32 for n in moduli]
            # Geometric gap to the next memory operation.
            position += int(-log(1.0 - gap_u) * mean_gap) + 1
            if position >= self.instructions:
                return
            if hit_u < w.row_buffer_hit_rate and column + 1 < self.columns:
                # Sequential advance within the open row: a row hit.
                column += 1
            else:
                # Fresh row; possibly a fresh bank/rank/channel.
                if local_u >= w.bank_locality:
                    channel, rank, bank = jump[:3]
                row, column = jump[3:]
            req_type = (
                RequestType.WRITE
                if write_u < w.write_fraction
                else RequestType.READ
            )
            yield TraceOp(position, req_type, channel, rank, bank, row, column)


# ---------------------------------------------------------------------------
# Bulk trace generation for the pipeline backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TraceArrays:
    """A whole (workload, core) trace in the form the pipeline consumes.

    Entry ``i`` of every list describes the ``i``-th memory operation.
    ``writes`` holds 0/1 ints (1 = write-back).  ``ops`` carries the
    whole trace as per-op row tuples ``(position, write, channel,
    global_rank, global_bank, rank, bank, row)`` with the flattened
    indices the event loop consumes precomputed (``global_rank =
    channel * ranks + rank``; ``global_bank = global_rank * banks +
    bank``), so issuing one request costs a single list index instead
    of six.

    :func:`build_trace_arrays` derives a new instance on every call,
    but ``positions`` and ``writes`` are the cached generation's own
    lists, shared by every geometry derived from it: callers must
    treat them as read-only.
    """

    positions: List[int]
    writes: List[int]
    ops: List[tuple]

    def __len__(self) -> int:
        """Number of memory operations in the trace."""
        return len(self.positions)


@dataclass(frozen=True, eq=False)
class _Generation:
    """One (workload, core) trace before any geometry.

    ``positions`` and ``writes`` are a trace's first two columns.  Row
    ``i`` of ``words`` (``uint32``, shape ``(ops, 4)``) holds the words
    op ``i``'s channel, rank, bank and row map from.
    """

    positions: List[int]
    writes: List[int]
    words: "np.ndarray"


def _pull(rng: random.Random, count: int) -> "np.ndarray":
    """The next ``count`` words of ``rng``'s stream as ``uint32``, in order.

    One ``getrandbits`` call, read back little-endian, as
    :func:`repro.mtwords.pull_words` explains; ``rng`` ends where
    ``count`` calls of ``getrandbits(32)`` would leave it.
    """
    import numpy as np

    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        dtype="<u4",
    )


def _ops_estimate(mean_gap: float, instructions: int) -> int:
    """Ops to pull words for at first: the expected count plus 6 sd.

    Gaps are ``int`` of an exponential, so each instruction after the
    first is an op independently with probability ``p = 1 -
    exp(-1 / mean_gap)``, and the op count is binomial.  A trace that
    outruns the estimate pulls more words from the same stream.
    """
    trials = max(instructions - 1, 0)
    p = -expm1(-1.0 / mean_gap) if mean_gap > 0 else 1.0
    mean = trials * p
    return int(mean + 6.0 * sqrt(mean * (1.0 - p))) + 16


def _uniforms(ops: "np.ndarray", first: int) -> "np.ndarray":
    """``random()`` of every op's words ``first`` and ``first + 1``.

    CPython's ``genrand_res53``; every step is exact in float64.
    """
    return (
        (ops[:, first] >> 5) * 67108864.0 + (ops[:, first + 1] >> 6)
    ) * (1.0 / 9007199254740992.0)


@lru_cache(maxsize=512)
def _generate(
    workload: Workload,
    instructions: int,
    columns: int,
    core: int,
    seed: int,
) -> _Generation:
    """Build one (workload, core) trace, for every geometry, in bulk.

    The walk of :class:`SyntheticTrace` as array passes.  The column
    rule is the one step that depends on geometry, through ``columns``
    alone: the channel, rank, bank and row stay words here.
    """
    import numpy as np

    w = workload
    mean_gap = _mean_gap(w.mpki, instructions)
    if mean_gap == float("inf"):
        return _Generation([], [], np.empty((0, 4), dtype=np.uint32))
    rng = _stream(w, core, seed)
    estimate = _ops_estimate(mean_gap, instructions)
    words = _pull(rng, _START_WORDS + _OP_WORDS * estimate)
    start = words[:_START_WORDS]
    chunks = [words[_START_WORDS:].reshape(-1, _OP_WORDS)]

    # Positions.  math.log, not np.log, so each gap equals the spec's;
    # a gap clipped at ``instructions`` still ends the trace, and the
    # clip keeps the int64 cast exact.
    steps = []
    end = 0
    while True:
        rest = 1.0 - _uniforms(chunks[-1], 0)
        gaps = -np.fromiter(map(log, rest.tolist()), float, len(rest))
        step = np.minimum(gaps * mean_gap, instructions).astype(np.int64) + 1
        steps.append(step)
        end += int(step.sum())
        if end >= instructions:
            break
        chunks.append(_pull(rng, _OP_WORDS * estimate).reshape(-1, _OP_WORDS))
    positions = np.cumsum(np.concatenate(steps))
    n = int(np.searchsorted(positions, instructions))
    ops = np.concatenate(chunks)[:n]

    # The column rule.  A run of row hits opened at column c by a jump
    # (or the start) steps past the last column on its (columns - c)th
    # op, which jumps instead and opens a new run.  Each pass turns the
    # first such hit of every open run into a jump.
    jump = _uniforms(ops, 2) >= w.row_buffer_hit_rate
    # Widened first: a uint32 product would wrap under numpy 1.x's
    # value-based casting.
    jump_column = (
        (ops[:, 12].astype(np.uint64) * columns) >> 32
    ).astype(np.int64)
    at = np.flatnonzero(jump)
    cursor = np.concatenate(([-1], at))
    column = np.concatenate((
        [(int(start[4]) * columns) >> 32], jump_column[at]
    ))
    run_end = np.concatenate((at, [n]))
    while cursor.size:
        cursor = cursor + columns - column
        open_runs = cursor < run_end
        cursor, run_end = cursor[open_runs], run_end[open_runs]
        jump[cursor] = True
        column = jump_column[cursor]

    # Each op keeps the channel, rank and bank words of the last
    # new-bank jump and the row word of the last jump (row 0: the start).
    new_bank = jump & (_uniforms(ops, 4) >= w.bank_locality)
    location = np.concatenate((start[None, :4], ops[:, 8:12]))
    index = np.arange(1, n + 1)
    bank_from = np.maximum.accumulate(np.where(new_bank, index, 0))
    row_from = np.maximum.accumulate(np.where(jump, index, 0))
    out = location[bank_from]
    out[:, 3] = location[row_from, 3]
    writes = _uniforms(ops, 6) < w.write_fraction
    return _Generation(
        positions[:n].tolist(), writes.astype(np.int64).tolist(), out
    )


def build_trace_arrays(
    workload: Workload,
    instructions: int,
    channels: int,
    ranks: int,
    banks: int,
    rows: int,
    columns: int,
    core: int = 0,
    seed: int = 2016,
) -> TraceArrays:
    """Generate one (workload, core) trace as :class:`TraceArrays`.

    Equal, field for field, to iterating :class:`SyntheticTrace` with
    the same parameters, so both engines see the same instruction
    stream.  The generation pulls all its words with one
    ``getrandbits`` call and builds the trace with array passes (see
    :func:`_generate`); it is LRU-cached on (workload, instructions,
    columns, core, seed) and keeps positions, write flags and each
    op's channel, rank, bank and row *words*.  Each call maps those
    words onto its geometry, ``(word * n) >> 32``, and returns a new
    :class:`TraceArrays`, so one generation per (workload, core)
    serves every geometry of a grid, whatever its moduli.
    ``build_trace_arrays.cache_info()`` and ``cache_clear()`` describe
    and empty that cache: its misses count generations.
    """
    import numpy as np

    _check_moduli(channels, ranks, banks, rows, columns)
    if channels * ranks * banks > 2**63:
        raise ValueError(
            f"{channels * ranks * banks} banks overflow int64 bank indices"
        )
    generation = _generate(workload, instructions, columns, core, seed)
    moduli = np.array([channels, ranks, banks, rows], dtype=np.uint64)
    ch, rk, bk, row = (
        ((generation.words * moduli) >> 32).astype(np.int64).T
    )
    global_rank = ch * ranks + rk
    global_bank = global_rank * banks + bk
    return TraceArrays(
        positions=generation.positions,
        writes=generation.writes,
        ops=list(zip(generation.positions, generation.writes, ch.tolist(),
                     global_rank.tolist(), global_bank.tolist(),
                     rk.tolist(), bk.tolist(), row.tolist())),
    )


build_trace_arrays.cache_info = _generate.cache_info  # type: ignore[attr-defined]
build_trace_arrays.cache_clear = _generate.cache_clear  # type: ignore[attr-defined]
