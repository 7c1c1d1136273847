"""Batch lifetime-adjudication kernels over struct-of-arrays shards.

The reference Monte-Carlo adjudicator materialises a list of
:class:`~repro.faultsim.fault.ChipFault` objects per sample system and
walks them through ``ProtectionScheme.evaluate`` one system at a time.
This module keeps whole shards in numpy arrays instead: fault arrival
times, granularities, chip/rank coordinates and scaling-promotion draws
live in flat column arrays (:class:`FaultShard`), and one batch kernel
per scheme classifies every system of the shard into
NoFailure/DUE/SDC -- with first-failure times -- using array operations.

Bit-identity with the scalar golden model is a hard requirement (the
differential harness in :mod:`repro.faultsim.differential` enforces it),
which dictates the design:

* Sampling draws are shared verbatim: :class:`FaultShard` is produced
  by ``FaultSampler.sample_shard_arrays``, and the reference
  materialises its ChipFault objects from the same shard.
* Deterministic failure mechanisms -- pair and triple collisions within
  a rank -- vectorise exactly: the mask/value address-intersection test
  and the interval-overlap test are bitwise/compare expressions, the
  failure time is a max over arrival times, and the earliest failure is
  a minimum per system.
* Probabilistic tails draw from a counter-based stream: a system's
  k-th draw is a pure function of ``(experiment seed, global system
  index, k)`` (Philox4x64-10, see :func:`system_rng`), so the kernels
  evaluate the draws of a whole shard as one array call
  (:func:`system_uniforms`) while the reference walks the same numbers
  one ``rng.random()`` at a time.  Only XED+Chipkill, whose draws
  decide whether the next one happens, still replays its (rare) risky
  systems through a scalar-equivalent loop over the stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.faultsim.fault_models import FailureMode
from repro.obs import OBS, span
from repro.faultsim.schemes import (
    ChipkillScheme,
    DoubleChipkillScheme,
    EccDimmScheme,
    FailureKind,
    NonEccScheme,
    ProtectionScheme,
    XedChipkillScheme,
    XedScheme,
)

#: Recognised fault-simulation backends.  ``vectorized`` is the
#: Monte-Carlo sampler, bit-identical to the ``scheme.evaluate``
#: reference; ``analytical`` is the closed-form Markov solver
#: (:mod:`repro.faultsim.markov`), cross-validated against it within
#: Wilson score intervals rather than bit-identical.
FAULTSIM_BACKENDS = ("vectorized", "analytical")

#: Integer code per failure mode, for array comparisons.
MODE_CODES: Dict[FailureMode, int] = {
    mode: i for i, mode in enumerate(FailureMode)
}

_WORD = MODE_CODES[FailureMode.SINGLE_WORD]
_COLUMN = MODE_CODES[FailureMode.SINGLE_COLUMN]
_ROW = MODE_CODES[FailureMode.SINGLE_ROW]
_BANK = MODE_CODES[FailureMode.SINGLE_BANK]

_KIND_NONE = 0
_KIND_DUE = 1
_KIND_SDC = 2
#: The failure kind of each int8 kind code the kernels emit.
KIND_OF_CODE = (None, FailureKind.DUE, FailureKind.SDC)
#: The kind code of each failure kind.
CODE_OF_KIND = {FailureKind.DUE: _KIND_DUE, FailureKind.SDC: _KIND_SDC}

#: Tag of the per-system draw stream.  ``reliability_fingerprint``
#: hashes it, so checkpoints and cached results drawn from another
#: stream are never mixed with this one's.
SYSTEM_STREAM = "philox4x64-10"

_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: Philox4x64 round multipliers and key increments (Salmon et al.,
#: SC'11), the constants of numpy's ``Philox`` bit generator.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
#: Scale of a 53-bit integer onto [0, 1), as ``random.random()`` does.
_UNIT = 2.0 ** -53


def validate_faultsim_backend(backend: str) -> None:
    """Raise ``ValueError`` for an unknown fault-sim backend name."""
    if backend not in FAULTSIM_BACKENDS:
        raise ValueError(
            f"unknown faultsim backend {backend!r}; "
            f"expected one of {FAULTSIM_BACKENDS}"
        )


@functools.lru_cache(maxsize=64)
def _stream_key(experiment_seed: int) -> Tuple[int, int]:
    """The two 64-bit Philox key words of one experiment seed."""
    words = np.random.SeedSequence(experiment_seed).generate_state(
        2, np.uint64
    )
    return int(words[0]), int(words[1])


class SystemStream:
    """One system's probabilistic draws, in order.

    The k-th :meth:`random` call returns word ``k % 4`` of the
    Philox4x64-10 block at counter ``(k // 4 + 1, index, 0, 0)`` under
    the seed's key, as a 53-bit uniform -- exactly
    :func:`system_uniforms` at ``k``.  numpy's own ``Philox`` bit
    generator produces the words; it is built on the first draw, so a
    system that never draws costs nothing.
    """

    __slots__ = ("_key", "_index", "_bitgen")

    def __init__(self, key: Tuple[int, int], system_index: int) -> None:
        self._key = key
        self._index = system_index
        self._bitgen: Optional[np.random.Philox] = None

    def random(self) -> float:
        """The next draw, uniform on [0, 1)."""
        if self._bitgen is None:
            # Philox increments the counter before each block, so block
            # 0 is drawn at counter word 0 == 1.
            self._bitgen = np.random.Philox(
                key=np.array(self._key, dtype=np.uint64),
                counter=np.array([0, self._index, 0, 0], dtype=np.uint64),
            )
        return (int(self._bitgen.random_raw()) >> 11) * _UNIT


def system_rng(experiment_seed: int, system_index: int) -> SystemStream:
    """The per-system evaluation stream, shared by kernels and reference.

    Keyed by the experiment seed and the *global* system index, so a
    system's probabilistic draws are independent of shard layout and
    worker count.
    """
    return SystemStream(_stream_key(experiment_seed), system_index)


def _mulhilo(m: np.uint64, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products ``m * x``."""
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    # mid = (lo_lo >> 32) + (hi_lo & LO32) + m_lo * x_hi is at most
    # 2 * (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1: no carry is lost.  Each
    # step writes into a temporary that is no longer read.
    mid = m_lo * x_lo
    mid >>= _SHIFT32
    hi_lo = np.multiply(x_lo, m_hi, out=x_lo)
    hi = m_hi * x_hi
    mid += np.multiply(x_hi, m_lo, out=x_hi)
    mid += np.bitwise_and(hi_lo, _LO32, out=x_hi)
    hi += np.right_shift(hi_lo, _SHIFT32, out=hi_lo)
    hi += np.right_shift(mid, _SHIFT32, out=mid)
    return hi, m * x


def philox4x64(
    counter: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    key: Tuple[int, int],
) -> np.ndarray:
    """Philox4x64-10 of every counter: four words in, ``(4, n)`` out.

    ``counter`` holds the four 64-bit counter words as equal-length
    ``uint64`` arrays; ``key`` is the two key words.  Bit-identical to
    ``np.random.Philox(key=key, counter=c).random_raw(4)`` for counter
    ``c + 1`` (numpy increments before it generates).
    """
    c0, c1, c2, c3 = (np.asarray(w, dtype=np.uint64) for w in counter)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key[0] + r * _PHILOX_W0) & _MASK64)
        k1 = np.uint64((key[1] + r * _PHILOX_W1) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack([c0, c1, c2, c3])


def system_uniforms(
    experiment_seed: int, system_indices: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Draw ``draws[i]`` of system ``system_indices[i]``, for every ``i``.

    The array form of :class:`SystemStream`: element ``i`` equals the
    ``draws[i] + 1``-th ``system_rng(seed, system_indices[i]).random()``.
    """
    index = np.asarray(system_indices, dtype=np.uint64)
    k = np.asarray(draws, dtype=np.uint64)
    zero = np.zeros(index.shape, dtype=np.uint64)
    block = philox4x64(
        (k // np.uint64(4) + np.uint64(1), index, zero, zero),
        _stream_key(experiment_seed),
    )
    words = block[(k % np.uint64(4)).astype(np.intp), np.arange(k.size)]
    return (words >> np.uint64(11)).astype(np.float64) * _UNIT


class UnsupportedSchemeError(ValueError):
    """No batch kernel or closed-form chain exists for this scheme type.

    Raised for user-defined or subclassed schemes, whose ``evaluate``
    overrides neither the kernels nor the analytical solver can mirror.
    ``simulate()`` with ``faultsim_backend="vectorized"`` still runs
    them, through ``scheme.evaluate``.
    """


@dataclass
class VisibleFaults:
    """The expanded, visible (post-on-die-ECC) fault columns of a shard.

    One row per visible fault, ordered by selected system and, within a
    system, by the reference's fault order (multi-rank clones
    expanded in rank order).  ``sys`` holds positions into the shard's
    ``selected`` array; ``indptr`` is the CSR row-pointer over systems,
    so system ``s`` owns rows ``indptr[s]:indptr[s+1]``.
    """

    num_selected: int
    sys: np.ndarray
    channel: np.ndarray
    rank: np.ndarray
    chip: np.ndarray
    mode: np.ndarray
    permanent: np.ndarray
    time: np.ndarray
    end: np.ndarray
    addr: np.ndarray
    wild: np.ndarray
    indptr: np.ndarray
    _seg: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _segments(self) -> tuple:
        """(order, starts, counts) of the (system, channel, rank) runs."""
        if self._seg is None:
            # One key per row that sorts as (system, channel, rank) and
            # is equal exactly within a rank group: channel and rank are
            # non-negative and below their strides.
            key = self.sys
            if key.size:
                channels = int(self.channel.max()) + 1
                ranks = int(self.rank.max()) + 1
                key = (key * channels + self.channel) * ranks + self.rank
            order = np.argsort(key, kind="stable")
            key = key[order]
            new = np.ones(order.size, dtype=bool)
            new[1:] = key[1:] != key[:-1]
            starts = np.nonzero(new)[0]
            self._seg = (order, starts, np.diff(starts, append=order.size))
        return self._seg

    def rank_group_combos(self, r: int) -> Tuple[np.ndarray, ...]:
        """All size-``r`` index combinations within each rank group.

        Rank groups are the (system, channel, rank) buckets the scheme
        evaluators iterate; combinations are enumerated per group-size
        class with one precomputed local-index template per size, then
        broadcast over every group of that size -- no per-system Python.
        Returns ``r`` parallel index arrays into the visible columns.
        """
        order, starts, counts = self._segments()
        pieces: List[List[np.ndarray]] = [[] for _ in range(r)]
        for k in np.unique(counts).tolist():
            k = int(k)
            if k < r:
                continue
            tmpl = np.array(
                list(combinations(range(k), r)), dtype=np.int64
            )
            st = starts[counts == k]
            for j in range(r):
                pieces[j].append((st[:, None] + tmpl[None, :, j]).ravel())
        if not pieces[0]:
            return tuple(np.empty(0, dtype=np.int64) for _ in range(r))
        return tuple(order[np.concatenate(p)] for p in pieces)


@dataclass
class FaultShard:
    """Struct-of-arrays form of one sampled Monte-Carlo shard.

    Holds the raw per-fault draw columns exactly as sampled (one row
    per pre-expansion fault, grouped by system in selection order) plus
    the per-FIT-row metadata and geometry needed to interpret them.
    The reference materialises ``ChipFault`` objects from these same
    columns; the vectorized kernels consume them directly via
    :meth:`visible`.
    """

    start_index: int
    num_systems: int
    #: In-shard offsets of the systems that met ``min_faults``.
    selected: np.ndarray
    #: Pre-expansion fault count per selected system.
    counts: np.ndarray
    #: FIT-table row index per fault.
    mode_rows: np.ndarray
    #: Global chip number per fault (channel-major flattening).
    chips_global: np.ndarray
    #: Arrival time in hours per fault.
    times: np.ndarray
    #: Flattened chip-address value per fault.
    addr_values: np.ndarray
    #: Uniform scaling-promotion draw per fault.
    promote_u: np.ndarray
    #: Per-FIT-row mode code (:data:`MODE_CODES`).
    row_mode_codes: np.ndarray
    #: Per-FIT-row permanence flag.
    row_permanent: np.ndarray
    #: Per-FIT-row address wildcard mask.
    row_wildcards: np.ndarray
    #: Per-FIT-row multi-rank (clone) flag.
    row_spans: np.ndarray
    #: Per-FIT-row on-die-correctable flag.
    row_correctable: np.ndarray
    chips_per_rank: int
    ranks_per_channel: int
    #: Scaling-fault promotion probability for single-bit faults.
    promotion_p: float
    scrub_hours: Optional[float]
    #: Wildcard a promoted single-bit fault widens to (one word).
    word_mask: int
    _visible: Optional[VisibleFaults] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_selected(self) -> int:
        """Number of materialised (>= min_faults) systems in the shard."""
        return int(self.selected.size)

    def visible(self) -> VisibleFaults:
        """Expand clones, apply promotion, and keep the visible faults.

        Mirrors ``FaultSampler._build_fault`` exactly: chip/rank/channel
        decoded from the global chip number, single-bit faults promoted
        to word-wildcard visibility when their uniform draw falls under
        the scaling promotion probability, transient faults truncated at
        the scrub interval, and multi-rank faults cloned into every rank
        of the channel (in rank order, replacing the base fault).  A
        clone is visible exactly when its base fault is, so the base
        faults on-die ECC corrects are dropped first and every column is
        derived for the visible rows only.  The result is cached; the
        columns are never mutated.
        """
        if self._visible is not None:
            return self._visible
        num_sel = self.num_selected
        correctable = self.row_correctable[self.mode_rows]
        promoted = correctable & (self.promote_u < self.promotion_p)
        keep = np.nonzero(~correctable | promoted)[0]
        rows = self.mode_rows[keep]
        times = self.times[keep]
        perm = self.row_permanent[rows]
        wild = np.where(
            promoted[keep], self.word_mask, self.row_wildcards[rows]
        )
        if self.scrub_hours is None:
            end = np.full(rows.size, np.inf)
        else:
            end = np.where(perm, np.inf, times + self.scrub_hours)
        cpr = self.chips_per_rank
        ranks = self.ranks_per_channel
        chips = self.chips_global[keep]
        rank = (chips // cpr) % ranks
        columns = [
            np.repeat(np.arange(num_sel, dtype=np.int64), self.counts)[keep],
            chips // (cpr * ranks),
            chips % cpr,
            self.row_mode_codes[rows],
            perm,
            times,
            end,
            self.addr_values[keep],
            wild,
        ]
        spans = self.row_spans[rows] & (ranks > 1)
        if spans.any():
            reps = np.where(spans, ranks, 1)
            total = int(reps.sum())
            run_starts = np.cumsum(reps) - reps
            pos_in_run = np.arange(total, dtype=np.int64) - np.repeat(
                run_starts, reps
            )
            rank = np.where(
                np.repeat(spans, reps), pos_in_run, np.repeat(rank, reps)
            )
            columns = [np.repeat(c, reps) for c in columns]
        sys_v, channel, chip, mode, perm, times, end, addr, wild = columns
        indptr = np.zeros(num_sel + 1, dtype=np.int64)
        np.cumsum(np.bincount(sys_v, minlength=num_sel), out=indptr[1:])
        self._visible = VisibleFaults(
            num_selected=num_sel,
            sys=sys_v,
            channel=channel,
            rank=rank,
            chip=chip,
            mode=mode,
            permanent=perm,
            time=times,
            end=end,
            addr=addr,
            wild=wild,
            indptr=indptr,
        )
        return self._visible


@dataclass(frozen=True)
class ShardAdjudication:
    """Failed systems of one shard, in global-system-index order.

    ``failure_times`` holds each failed system's first-failure time in
    hours (float64) and ``kinds`` its kind code (int8, see
    :data:`KIND_OF_CODE`).
    """

    failure_times: np.ndarray
    kinds: np.ndarray


# -- shared collision machinery ---------------------------------------------


def _collision_mask(
    vis: VisibleFaults, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Elementwise ``ChipFault.collides_with`` over index pairs.

    Same-rank is guaranteed by construction (pairs come from rank
    groups); the remaining terms are chip distinctness, active-interval
    overlap and mask/value address intersection.
    """
    return (
        (vis.chip[a] != vis.chip[b])
        & (vis.time[a] <= vis.end[b])
        & (vis.time[b] <= vis.end[a])
        & (((vis.addr[a] ^ vis.addr[b]) & ~vis.wild[a] & ~vis.wild[b]) == 0)
    )


def _pair_failure_times(vis: VisibleFaults) -> np.ndarray:
    """Earliest colliding-pair failure time per system (inf = none)."""
    out = np.full(vis.num_selected, np.inf)
    a, b = vis.rank_group_combos(2)
    if a.size:
        ok = _collision_mask(vis, a, b)
        if ok.any():
            a, b = a[ok], b[ok]
            np.minimum.at(
                out, vis.sys[a], np.maximum(vis.time[a], vis.time[b])
            )
    return out


def _triple_failure_times(vis: VisibleFaults) -> np.ndarray:
    """Earliest jointly-colliding-triple failure time per system."""
    out = np.full(vis.num_selected, np.inf)
    a, b, c = vis.rank_group_combos(3)
    if a.size:
        ok = (
            _collision_mask(vis, a, b)
            & _collision_mask(vis, a, c)
            & _collision_mask(vis, b, c)
        )
        if ok.any():
            a, b, c = a[ok], b[ok], c[ok]
            times = np.maximum(
                np.maximum(vis.time[a], vis.time[b]), vis.time[c]
            )
            np.minimum.at(out, vis.sys[a], times)
    return out


def _due_where_finite(times: np.ndarray) -> np.ndarray:
    """Kind codes for an all-DUE mechanism: DUE where a time exists."""
    return np.where(np.isfinite(times), _KIND_DUE, _KIND_NONE).astype(np.int8)


# -- per-scheme kernels ------------------------------------------------------


def _kernel_non_ecc(
    scheme: NonEccScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-ECC: the earliest visible fault is silent corruption."""
    times = np.full(vis.num_selected, np.inf)
    if vis.sys.size:
        np.minimum.at(times, vis.sys, vis.time)
    kinds = np.where(
        np.isfinite(times), _KIND_SDC, _KIND_NONE
    ).astype(np.int8)
    return kinds, times


def _earliest_rows(
    num_selected: int, sys: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per system, the earliest time and the first row that has it.

    ``sys`` must be in system order.  Returns the per-system minimum
    (inf for a system without rows) and, for each system with rows, in
    system order, the position of its first row at that minimum: the
    candidate the scalar evaluators' fold keeps on time ties.
    """
    best = np.full(num_selected, np.inf)
    np.minimum.at(best, sys, times)
    at_min = np.nonzero(times == best[sys])[0]
    first = np.ones(at_min.size, dtype=bool)
    first[1:] = sys[at_min[1:]] != sys[at_min[:-1]]
    return best, at_min[first]


def _kernel_ecc_dimm(
    scheme: EccDimmScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """ECC-DIMM: earliest visible fault fails; its own draw splits DUE/SDC.

    The reference draws once per visible fault, in order, and keeps the
    earliest fault (the first on time ties).  A draw depends only on
    its ordinal, so each failed system draws once: the winner's.
    """
    times, winners = _earliest_rows(vis.num_selected, vis.sys, vis.time)
    kinds = np.zeros(vis.num_selected, dtype=np.int8)
    failed = vis.sys[winners]
    u = system_uniforms(
        seed,
        shard.start_index + shard.selected[failed],
        winners - vis.indptr[failed],
    )
    kinds[failed] = np.where(u < scheme.sdc_fraction, _KIND_SDC, _KIND_DUE)
    return kinds, times


def _kernel_xed(
    scheme: XedScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """XED: vectorized pair collisions, then the probabilistic tail.

    Pair collisions (the dominant mechanism) are deterministic.  The
    tail follows ``XedScheme.evaluate``'s per-fault loop: a visible
    transient word fault draws once (an on-die miss is a DUE) and,
    with misdiagnosis enabled, a row/column/bank fault draws once (a
    false conviction is an SDC).  A segmented count gives each drawing
    fault its ordinal within its system, so all draws are one array
    call; a system's earliest hit replaces its pair result only when
    strictly earlier, the reference's tie rule.
    """
    times = _pair_failure_times(vis)
    kinds = _due_where_finite(times)
    word = (vis.mode == _WORD) & ~vis.permanent
    drawing = word
    if scheme.misdiagnosis_sdc_probability > 0.0:
        drawing = word | np.isin(vis.mode, (_ROW, _COLUMN, _BANK))
    before = np.cumsum(drawing) - drawing
    rows = np.nonzero(drawing)[0]
    sys = vis.sys[rows]
    u = system_uniforms(
        seed,
        shard.start_index + shard.selected[sys],
        before[rows] - before[vis.indptr[sys]],
    )
    hit = rows[
        np.where(
            word[rows],
            u < scheme.on_die_miss_probability,
            u < scheme.misdiagnosis_sdc_probability,
        )
    ]
    tail_times, winners = _earliest_rows(
        vis.num_selected, vis.sys[hit], vis.time[hit]
    )
    winners = hit[winners]
    won = vis.sys[winners]
    earlier = tail_times[won] < times[won]
    won = won[earlier]
    times[won] = tail_times[won]
    kinds[won] = np.where(word[winners[earlier]], _KIND_DUE, _KIND_SDC)
    return kinds, times


def _kernel_chipkill(
    scheme: ChipkillScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chipkill: purely deterministic -- colliding pairs are DUE."""
    times = _pair_failure_times(vis)
    return _due_where_finite(times), times


def _kernel_double_chipkill(
    scheme: DoubleChipkillScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Double-Chipkill: colliding triples are DUE (pairs survive)."""
    times = _triple_failure_times(vis)
    return _due_where_finite(times), times


def _replay_xed_chipkill(
    scheme: XedChipkillScheme,
    vis: VisibleFaults,
    s: int,
    rng: SystemStream,
) -> Tuple[float, int]:
    """Replay ``XedChipkillScheme.evaluate`` for one system.

    Invoked only for systems holding a colliding pair with a transient
    word member, whose pair outcome consumes draws; the whole
    evaluation (triples included, and the short-circuiting
    ``miss(a) or miss(b)`` draw pattern) is reproduced so the returned
    failure overrides the vectorized triple result for this system.
    """
    if OBS.enabled:
        OBS.registry.counter("faultsim.vectorized.replayed_systems").inc()
    i0 = int(vis.indptr[s])
    i1 = int(vis.indptr[s + 1])
    channel = vis.channel[i0:i1].tolist()
    rank = vis.rank[i0:i1].tolist()
    chip = vis.chip[i0:i1].tolist()
    mode = vis.mode[i0:i1].tolist()
    perm = vis.permanent[i0:i1].tolist()
    time = vis.time[i0:i1].tolist()
    end = vis.end[i0:i1].tolist()
    addr = vis.addr[i0:i1].tolist()
    wild = vis.wild[i0:i1].tolist()

    groups: Dict[tuple, List[int]] = {}
    for i in range(i1 - i0):
        groups.setdefault((channel[i], rank[i]), []).append(i)

    p_miss = scheme.on_die_miss_probability

    def collide(i: int, j: int) -> bool:
        return (
            chip[i] != chip[j]
            and time[i] <= end[j]
            and time[j] <= end[i]
            and ((addr[i] ^ addr[j]) & ~wild[i] & ~wild[j]) == 0
        )

    def miss(i: int) -> bool:
        return (
            mode[i] == _WORD and not perm[i] and rng.random() < p_miss
        )

    best_time = np.inf
    best_kind = _KIND_NONE
    for group in groups.values():
        for a, b, c in combinations(group, 3):
            if len({chip[a], chip[b], chip[c]}) != 3:
                continue
            if collide(a, b) and collide(a, c) and collide(b, c):
                t = max(time[a], time[b], time[c])
                if t < best_time:
                    best_time, best_kind = t, _KIND_DUE
        for a, b in combinations(group, 2):
            if collide(a, b) and (miss(a) or miss(b)):
                t = max(time[a], time[b])
                if t < best_time:
                    best_time, best_kind = t, _KIND_DUE
    return best_time, best_kind


def _kernel_xed_chipkill(
    scheme: XedChipkillScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """XED+Chipkill: vectorized triples; risky pair systems replayed.

    Triple collisions are deterministic.  A colliding *pair* only
    matters (and only consumes draws) when a member is a transient word
    fault that on-die ECC might have missed; systems with such a pair
    are re-evaluated exactly through :func:`_replay_xed_chipkill`.
    """
    times = _triple_failure_times(vis)
    kinds = _due_where_finite(times)
    if scheme.on_die_miss_probability > 0.0 and vis.sys.size:
        a, b = vis.rank_group_combos(2)
        if a.size:
            ok = _collision_mask(vis, a, b)
            word_transient = (vis.mode == _WORD) & ~vis.permanent
            risky = ok & (word_transient[a] | word_transient[b])
            if risky.any():
                selected = shard.selected
                for s in np.unique(vis.sys[a[risky]]).tolist():
                    rng = system_rng(
                        seed, shard.start_index + int(selected[s])
                    )
                    t, k = _replay_xed_chipkill(scheme, vis, int(s), rng)
                    times[s] = t
                    kinds[s] = k
    return kinds, times


_Kernel = Callable[
    [ProtectionScheme, FaultShard, VisibleFaults, int],
    Tuple[np.ndarray, np.ndarray],
]

#: Exact-type kernel registry.  Subclasses are deliberately *not*
#: matched: a subclass may override ``evaluate``, which the kernels
#: cannot see, so anything unknown runs through ``scheme.evaluate``.
_KERNELS: Dict[Type[ProtectionScheme], _Kernel] = {
    NonEccScheme: _kernel_non_ecc,
    EccDimmScheme: _kernel_ecc_dimm,
    XedScheme: _kernel_xed,
    ChipkillScheme: _kernel_chipkill,
    DoubleChipkillScheme: _kernel_double_chipkill,
    XedChipkillScheme: _kernel_xed_chipkill,
}


def has_kernel(scheme: ProtectionScheme) -> bool:
    """Whether :func:`adjudicate_shard` has a batch kernel for ``scheme``."""
    return type(scheme) in _KERNELS


def adjudicate_shard(
    scheme: ProtectionScheme, shard: FaultShard, experiment_seed: int
) -> ShardAdjudication:
    """Classify every system of ``shard`` under ``scheme`` in batch.

    Returns the failed systems' first-failure times and DUE/SDC kind
    codes in global-system-index order, bit-identical to running
    ``scheme.evaluate`` over the materialisation of the same shard.
    Raises :class:`UnsupportedSchemeError` for scheme types without a
    registered kernel (see :func:`has_kernel`).
    """
    kernel = _KERNELS.get(type(scheme))
    if kernel is None:
        raise UnsupportedSchemeError(
            f"no vectorized kernel for scheme type "
            f"{type(scheme).__name__}; simulate() evaluates it through "
            f"scheme.evaluate"
        )
    vis = shard.visible()
    if OBS.enabled:
        OBS.registry.counter("faultsim.vectorized.shards").inc()
        OBS.registry.counter("faultsim.vectorized.systems").inc(
            vis.num_selected
        )
        OBS.registry.histogram(
            "faultsim.vectorized.batch_systems",
            buckets=(100, 1_000, 10_000, 100_000, 1_000_000),
        ).observe(float(vis.num_selected))
    with span(
        "faultsim.vectorized.adjudicate_s",
        scheme=type(scheme).__name__,
        systems=int(vis.num_selected),
    ):
        kinds, times = kernel(scheme, shard, vis, experiment_seed)
    failed = np.nonzero(kinds != _KIND_NONE)[0]
    return ShardAdjudication(failure_times=times[failed], kinds=kinds[failed])
