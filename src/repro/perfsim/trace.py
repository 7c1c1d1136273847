"""Synthetic memory-trace generation.

A trace is the sequence a Pinpoint slice would provide USIMM: memory
operations separated by counts of non-memory instructions.  The
generator turns a :class:`repro.perfsim.workloads.Workload` behaviour
model into a concrete per-core stream:

* gaps between misses are geometric with mean ``1000 / mpki``; a
  workload with ``mpki == 0`` (or so small that the mean gap overflows
  to infinity) never misses, so its trace is empty;
* with probability ``row_buffer_hit_rate`` the next access continues
  sequentially within the currently open row (a row hit under an
  open-page policy); otherwise it jumps to a fresh row;
* jumps pick a new bank uniformly, except that ``bank_locality`` of
  them stay on the current bank (pointer-chasing bank pressure);
* ``write_fraction`` of operations are write-backs.

Traces are deterministic in (workload, core, seed), so every scheme
config replays *exactly* the same instruction stream -- the comparisons
in Figures 11-14 are paired.

:class:`SyntheticTrace` is the reference generator the scalar engine
iterates.  :func:`build_trace_arrays` gives the pipeline engine the same
trace in bulk.  It caches one *parse* of the Mersenne-Twister word
stream per (workload, instructions, columns, core, seed, draw classes)
and derives a fresh trace for the requested geometry from it on every
call, so all lockstep geometries of a scheme grid share one parse per
(workload, core).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import lru_cache
from math import log
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.mtwords import pull_words
from repro.perfsim.requests import RequestType
from repro.perfsim.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover - numpy loads lazily; typing only
    import numpy as np


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


class SyntheticTrace:
    """Deterministic synthetic trace for one (workload, core) pair.

    Parameters
    ----------
    workload:
        The behaviour model.
    instructions:
        Length of the instruction stream to synthesise.
    channels, ranks, banks, rows, columns:
        Geometry the addresses are drawn over (logical values -- the
        engine passes post-lockstep counts so traffic spreads over the
        resources the scheme actually exposes).
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
        # zlib.crc32 (not hash()) keeps traces identical across
        # processes regardless of PYTHONHASHSEED.
        name_salt = zlib.crc32(w.name.encode()) & 0xFFFF
        rng = random.Random((self.seed << 16) ^ (self.core * 7919) ^ name_salt)
        mean_gap = _mean_gap(w.mpki, self.instructions)
        if mean_gap == float("inf"):
            return  # no misses ever: an empty trace

        position = 0
        channel = rng.randrange(self.channels)
        rank = rng.randrange(self.ranks)
        bank = rng.randrange(self.banks)
        row = rng.randrange(self.rows)
        column = rng.randrange(self.columns)

        while position < self.instructions:
            # Geometric gap to the next memory operation.
            gap = int(rng.expovariate(1.0) * mean_gap) if mean_gap > 0 else 0
            position += gap + 1
            if position >= self.instructions:
                return
            if rng.random() < w.row_buffer_hit_rate and column + 1 < self.columns:
                # Sequential advance within the open row: a row hit.
                column += 1
            else:
                # Fresh row; possibly a fresh bank/rank/channel.
                if rng.random() >= w.bank_locality:
                    channel = rng.randrange(self.channels)
                    rank = rng.randrange(self.ranks)
                    bank = rng.randrange(self.banks)
                row = rng.randrange(self.rows)
                column = rng.randrange(self.columns)
            req_type = (
                RequestType.WRITE
                if rng.random() < w.write_fraction
                else RequestType.READ
            )
            yield TraceOp(position, req_type, channel, rank, bank, row, column)


# ---------------------------------------------------------------------------
# Bulk trace generation for the pipeline backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TraceArrays:
    """A whole (workload, core) trace as parallel column arrays.

    The struct-of-arrays form the pipeline backend consumes: entry ``i``
    of every list describes the ``i``-th memory operation.  ``writes``
    holds 0/1 ints (1 = write-back).  ``ops`` carries the same trace as
    per-op row tuples ``(position, write, channel, global_rank,
    global_bank, rank, bank, row)`` with the flattened indices the
    event loop consumes precomputed (``global_rank = channel * ranks +
    rank``; ``global_bank = global_rank * banks + bank``), so issuing
    one request costs a single list index instead of six.

    :func:`build_trace_arrays` derives a new instance on every call,
    but ``positions`` and ``writes`` are the cached parse's own lists,
    shared by every geometry derived from that parse: callers must
    treat them as read-only.
    """

    positions: List[int]
    writes: List[int]
    channels: List[int]
    ranks: List[int]
    banks: List[int]
    rows: List[int]
    ops: List[tuple]

    def __len__(self) -> int:
        """Number of memory operations in the trace."""
        return len(self.positions)


#: Unconsumed raw words kept ahead of the replay cursor.  One trace
#: iteration draws 8 words plus five ``randrange`` draws, each accepted
#: with probability at least one half per word, so no iteration
#: outruns this margin short of a 2**-200 event.
_WORD_MARGIN = 256

#: Words pulled at a time once the trace's own estimate is used up.
_REFILL_WORDS = 16384


def _draw_bound(n: int) -> int:
    """The draw class of ``randrange(n)``: it accepts words below this.

    CPython's ``randrange(n)`` takes ``getrandbits(n.bit_length())``,
    the top bits of one 32-bit word, until the value is below ``n``,
    that is until the word itself is below ``n << (32 -
    n.bit_length())``.  Moduli with one bound accept the same words in
    the same order and differ only in how many top bits they keep.
    Every power of two has the bound ``2**31`` (the word's top bit is
    clear); another modulus shares its bound only with its power-of-two
    multiples, such as 3 and 6.
    """
    return n << (32 - n.bit_length())


@dataclass(frozen=True, eq=False)
class _Parse:
    """One walk of a (workload, core) word stream, before any geometry.

    ``positions`` and ``writes`` are a trace's first two columns.  Row
    ``i`` of ``words`` (``uint32``, shape ``(ops, 4)``) holds the
    accepted words behind op ``i``'s channel, rank, bank and row.
    """

    positions: List[int]
    writes: List[int]
    words: "np.ndarray"


@lru_cache(maxsize=512)
def _parse(
    workload: Workload,
    instructions: int,
    columns: int,
    core: int,
    seed: int,
    bounds: Tuple[int, int, int, int],
) -> _Parse:
    """Walk the word stream under the channel/rank/bank/row ``bounds``.

    Control flow reads only the random floats, the column and
    ``columns``, so the walk is the same for every geometry whose
    moduli share ``bounds`` (see :func:`_draw_bound`).
    """
    import numpy as np

    w = workload
    mean_gap = _mean_gap(w.mpki, instructions)
    if mean_gap == float("inf"):
        return _Parse([], [], np.empty((0, 4), dtype=np.uint32))
    name_salt = zlib.crc32(w.name.encode()) & 0xFFFF
    rng = random.Random((seed << 16) ^ (core * 7919) ^ name_salt)
    est_words = int(instructions / (1.0 + mean_gap)) * 16 + 256
    words = pull_words(rng, est_words + _WORD_MARGIN)
    limit = est_words
    idx = 0
    # random.random() reconstructed from two raw words (CPython's
    # genrand_res53); the multiply by an exact power of two equals
    # CPython's division by 2**53 bit for bit.
    inv53 = 1.0 / 9007199254740992.0
    b_ch, b_rk, b_bk, b_row = bounds
    b_col = _draw_bound(columns)
    sh_col = 32 - columns.bit_length()

    def draw(bound: int) -> int:
        nonlocal idx
        word = words[idx]
        idx += 1
        while word >= bound:
            word = words[idx]
            idx += 1
        return word

    position = 0
    ch = draw(b_ch)
    rk = draw(b_rk)
    bk = draw(b_bk)
    loc = (ch, rk, bk, draw(b_row))
    column = draw(b_col) >> sh_col

    rbhr = w.row_buffer_hit_rate
    locality = w.bank_locality
    wf = w.write_fraction
    out_pos: List[int] = []
    out_wr: List[int] = []
    out_loc: List[Tuple[int, int, int, int]] = []
    pos_append = out_pos.append
    wr_append = out_wr.append
    loc_append = out_loc.append

    # The hot loop replays the draws inline (no helper calls): each
    # random() is two raw words, each randrange one word per attempt
    # -- the exact CPython consumption order.
    while True:
        if idx > limit:
            words = words[idx:] + pull_words(rng, _REFILL_WORDS)
            idx = 0
            limit = len(words) - _WORD_MARGIN
        u = ((words[idx] >> 5) * 67108864.0 + (words[idx + 1] >> 6)) * inv53
        idx += 2
        position += int(-log(1.0 - u) * mean_gap) + 1
        if position >= instructions:
            break
        u = ((words[idx] >> 5) * 67108864.0 + (words[idx + 1] >> 6)) * inv53
        idx += 2
        if u < rbhr and column + 1 < columns:
            column += 1
        else:
            u = ((words[idx] >> 5) * 67108864.0
                 + (words[idx + 1] >> 6)) * inv53
            idx += 2
            if u >= locality:
                ch = words[idx]
                idx += 1
                while ch >= b_ch:
                    ch = words[idx]
                    idx += 1
                rk = words[idx]
                idx += 1
                while rk >= b_rk:
                    rk = words[idx]
                    idx += 1
                bk = words[idx]
                idx += 1
                while bk >= b_bk:
                    bk = words[idx]
                    idx += 1
            r = words[idx]
            idx += 1
            while r >= b_row:
                r = words[idx]
                idx += 1
            loc = (ch, rk, bk, r)
            r = words[idx]
            idx += 1
            while r >= b_col:
                r = words[idx]
                idx += 1
            column = r >> sh_col
        u = ((words[idx] >> 5) * 67108864.0 + (words[idx + 1] >> 6)) * inv53
        idx += 2
        pos_append(position)
        wr_append(1 if u < wf else 0)
        loc_append(loc)

    return _Parse(
        out_pos, out_wr,
        np.array(out_loc, dtype=np.uint32).reshape(-1, 4),
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

    Bit-identical to iterating :class:`SyntheticTrace` with the same
    parameters: the Mersenne-Twister word stream is pulled in bulk
    (:func:`repro.mtwords.pull_words`) and the CPython consumption
    pattern -- ``expovariate``'s two words, ``random``'s two words and
    ``randrange``'s reject loop -- is replayed exactly, so every scheme
    config (and both engine backends) sees the same instruction stream.

    The replay is a *parse*, LRU-cached on (workload, instructions,
    columns, core, seed) and the draw class of each of channels, ranks,
    banks and rows.  It keeps positions, write flags and the raw
    accepted word behind every channel/rank/bank/row draw.  Each call
    derives its geometry from a parse by keeping each word's top
    ``n.bit_length()`` bits, as ``randrange(n)`` does, and returns a
    new :class:`TraceArrays`.  All power-of-two moduli share one
    class, so the lockstep geometries of a scheme grid (4x2, 4x1 and
    2x1 channels x ranks) share one parse per (workload, core).
    ``build_trace_arrays.cache_info()`` and ``cache_clear()`` describe
    and empty that parse cache: its misses count parses.
    """
    import numpy as np

    if channels * ranks * banks > 2**63:
        raise ValueError(
            f"{channels * ranks * banks} banks overflow int64 bank indices"
        )
    moduli = (channels, ranks, banks, rows)
    parse = _parse(workload, instructions, columns, core, seed,
                   tuple(_draw_bound(n) for n in moduli))
    shifts = np.array([32 - n.bit_length() for n in moduli], dtype=np.uint32)
    ch, rk, bk, row = (parse.words >> shifts).T
    global_rank = ch.astype(np.int64) * ranks + rk
    global_bank = global_rank * banks + bk
    out_ch = ch.tolist()
    out_rk = rk.tolist()
    out_bk = bk.tolist()
    out_row = row.tolist()
    return TraceArrays(
        positions=parse.positions,
        writes=parse.writes,
        channels=out_ch,
        ranks=out_rk,
        banks=out_bk,
        rows=out_row,
        ops=list(zip(parse.positions, parse.writes, out_ch,
                     global_rank.tolist(), global_bank.tolist(),
                     out_rk, out_bk, out_row)),
    )


build_trace_arrays.cache_info = _parse.cache_info  # type: ignore[attr-defined]
build_trace_arrays.cache_clear = _parse.cache_clear  # type: ignore[attr-defined]
