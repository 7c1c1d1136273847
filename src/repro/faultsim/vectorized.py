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
* Probabilistic tails consume the per-system ``random.Random`` stream
  (Mersenne Twister, seeded from the global system index), which numpy
  cannot reproduce.  The kernels therefore identify the (rare) systems
  whose outcome can depend on such draws and replay exactly those
  systems through a scalar-equivalent loop over the array slices,
  preserving the draw order and tie-break semantics of the scheme
  evaluators.  Everything else never constructs a ``random.Random`` at
  all -- which is where most of the speedup comes from.
"""

from __future__ import annotations

import random
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
_KIND_OF_CODE = {_KIND_DUE: FailureKind.DUE, _KIND_SDC: FailureKind.SDC}

#: Multiplier mixing the global system index into the per-system seed
#: (a 32-bit golden-ratio constant; see :func:`system_rng`).
SYSTEM_SEED_MULTIPLIER = 0x9E3779B1


def validate_faultsim_backend(backend: str) -> None:
    """Raise ``ValueError`` for an unknown fault-sim backend name."""
    if backend not in FAULTSIM_BACKENDS:
        raise ValueError(
            f"unknown faultsim backend {backend!r}; "
            f"expected one of {FAULTSIM_BACKENDS}"
        )


def system_rng(experiment_seed: int, system_index: int) -> random.Random:
    """The per-system evaluation RNG, shared by kernels and reference.

    Hashes the *global* system index with the experiment seed so a
    system's probabilistic draws are independent of shard layout and
    worker count.
    """
    return random.Random(
        (experiment_seed << 20) ^ (system_index * SYSTEM_SEED_MULTIPLIER)
    )


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
            order = np.lexsort((self.rank, self.channel, self.sys))
            if order.size == 0:
                empty = np.empty(0, dtype=np.int64)
                self._seg = (order.astype(np.int64), empty, empty)
            else:
                s = self.sys[order]
                c = self.channel[order]
                r = self.rank[order]
                new = np.empty(order.size, dtype=bool)
                new[0] = True
                new[1:] = (
                    (s[1:] != s[:-1]) | (c[1:] != c[:-1]) | (r[1:] != r[:-1])
                )
                starts = np.nonzero(new)[0]
                counts = np.diff(np.append(starts, order.size))
                self._seg = (order, starts, counts)
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
        of the channel (in rank order, replacing the base fault).  The
        result is cached; the columns are never mutated.
        """
        if self._visible is not None:
            return self._visible
        num_sel = self.num_selected
        rows = self.mode_rows
        sys_pre = np.repeat(
            np.arange(num_sel, dtype=np.int64), self.counts
        )
        perm = self.row_permanent[rows]
        correctable = self.row_correctable[rows]
        promoted = correctable & (self.promote_u < self.promotion_p)
        vis = ~(correctable & ~promoted)
        wild = np.where(promoted, self.word_mask, self.row_wildcards[rows])
        if self.scrub_hours is None:
            end = np.full(rows.size, np.inf)
        else:
            end = np.where(perm, np.inf, self.times + self.scrub_hours)
        cpr = self.chips_per_rank
        ranks = self.ranks_per_channel
        chip = self.chips_global % cpr
        base_rank = (self.chips_global // cpr) % ranks
        channel = self.chips_global // (cpr * ranks)

        spans = self.row_spans[rows] & (ranks > 1)
        if spans.any():
            reps = np.where(spans, ranks, 1)
            total = int(reps.sum())
            run_starts = np.cumsum(reps) - reps
            pos_in_run = np.arange(total, dtype=np.int64) - np.repeat(
                run_starts, reps
            )
            rank = np.where(
                np.repeat(spans, reps), pos_in_run, np.repeat(base_rank, reps)
            )
            sys_e = np.repeat(sys_pre, reps)
            channel_e = np.repeat(channel, reps)
            chip_e = np.repeat(chip, reps)
            mode_e = np.repeat(self.row_mode_codes[rows], reps)
            perm_e = np.repeat(perm, reps)
            time_e = np.repeat(self.times, reps)
            end_e = np.repeat(end, reps)
            addr_e = np.repeat(self.addr_values, reps)
            wild_e = np.repeat(wild, reps)
            vis_e = np.repeat(vis, reps)
        else:
            rank = base_rank
            sys_e, channel_e, chip_e = sys_pre, channel, chip
            mode_e = self.row_mode_codes[rows]
            perm_e, time_e, end_e = perm, self.times, end
            addr_e, wild_e, vis_e = self.addr_values, wild, vis

        keep = np.nonzero(vis_e)[0]
        sys_v = sys_e[keep]
        vis_counts = np.bincount(sys_v, minlength=num_sel)
        indptr = np.zeros(num_sel + 1, dtype=np.int64)
        np.cumsum(vis_counts, out=indptr[1:])
        self._visible = VisibleFaults(
            num_selected=num_sel,
            sys=sys_v,
            channel=channel_e[keep],
            rank=rank[keep],
            chip=chip_e[keep],
            mode=mode_e[keep],
            permanent=perm_e[keep],
            time=time_e[keep],
            end=end_e[keep],
            addr=addr_e[keep],
            wild=wild_e[keep],
            indptr=indptr,
        )
        return self._visible


@dataclass(frozen=True)
class ShardAdjudication:
    """Failed systems of one shard, in global-system-index order."""

    system_indices: List[int]
    failure_times: List[float]
    kinds: List[FailureKind]


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


def _kernel_ecc_dimm(
    scheme: EccDimmScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """ECC-DIMM: earliest visible fault fails; one draw splits DUE/SDC.

    The failure time is a pure array minimum.  The *kind*, however, is
    the Bernoulli draw taken at the winning fault's position in the
    scalar evaluator's visible-fault loop -- so for each failed system
    the per-system RNG is advanced past the draws of the earlier
    visible faults and the winner's own draw decides.
    """
    num_sel = vis.num_selected
    times = np.full(num_sel, np.inf)
    kinds = np.zeros(num_sel, dtype=np.int8)
    if vis.sys.size == 0:
        return kinds, times
    np.minimum.at(times, vis.sys, vis.time)
    failed = np.nonzero(np.isfinite(times))[0]
    if failed.size == 0:
        return kinds, times
    # Ordinal of each visible fault within its system, and per system
    # the ordinal of the first fault achieving the minimum time (the
    # scalar fold keeps the earlier candidate on ties).
    ordinal = np.arange(vis.sys.size, dtype=np.int64) - vis.indptr[vis.sys]
    winners = np.full(num_sel, np.iinfo(np.int64).max, dtype=np.int64)
    at_min = vis.time == times[vis.sys]
    np.minimum.at(winners, vis.sys[at_min], ordinal[at_min])
    fraction = scheme.sdc_fraction
    selected = shard.selected
    for s in failed.tolist():
        rng = system_rng(seed, shard.start_index + int(selected[s]))
        for _ in range(int(winners[s])):
            rng.random()
        kinds[s] = _KIND_SDC if rng.random() < fraction else _KIND_DUE
    return kinds, times


def _replay_xed_tail(
    scheme: XedScheme,
    vis: VisibleFaults,
    s: int,
    best_time: float,
    best_kind: int,
    rng: random.Random,
) -> Tuple[float, int]:
    """Replay the scalar XED tail loop for one system's visible faults.

    Starts from the (already vectorized) pair-collision result, because
    the scalar evaluator folds pair failures before the tail candidates
    and keeps the incumbent on time ties.  Draw order and branch
    structure mirror ``XedScheme.evaluate`` line for line.
    """
    if OBS.enabled:
        OBS.registry.counter("faultsim.vectorized.replayed_systems").inc()
    i0 = int(vis.indptr[s])
    i1 = int(vis.indptr[s + 1])
    modes = vis.mode[i0:i1].tolist()
    perms = vis.permanent[i0:i1].tolist()
    times = vis.time[i0:i1].tolist()
    p_miss = scheme.on_die_miss_probability
    p_misdiag = scheme.misdiagnosis_sdc_probability
    for m, perm, t in zip(modes, perms, times):
        if m == _WORD and not perm:
            if rng.random() < p_miss and t < best_time:
                best_time, best_kind = t, _KIND_DUE
        elif (
            p_misdiag > 0.0
            and m in (_ROW, _COLUMN, _BANK)
            and rng.random() < p_misdiag
        ):
            if t < best_time:
                best_time, best_kind = t, _KIND_SDC
    return best_time, best_kind


def _kernel_xed(
    scheme: XedScheme,
    shard: FaultShard,
    vis: VisibleFaults,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """XED: vectorized pair collisions plus a replayed probabilistic tail.

    Pair collisions (the dominant mechanism) are deterministic and
    fully vectorized.  Only systems whose outcome can involve a
    per-system draw -- a visible transient word fault (on-die miss
    tail) or, with misdiagnosis enabled, a row/column/bank fault --
    are replayed through the scalar-equivalent tail loop.
    """
    times = _pair_failure_times(vis)
    kinds = _due_where_finite(times)
    if vis.sys.size:
        need = np.zeros(vis.num_selected, dtype=bool)
        if scheme.on_die_miss_probability > 0.0:
            word_transient = (vis.mode == _WORD) & ~vis.permanent
            need[vis.sys[word_transient]] = True
        if scheme.misdiagnosis_sdc_probability > 0.0:
            diagnosed = (
                (vis.mode == _ROW)
                | (vis.mode == _COLUMN)
                | (vis.mode == _BANK)
            )
            need[vis.sys[diagnosed]] = True
        selected = shard.selected
        for s in np.nonzero(need)[0].tolist():
            rng = system_rng(seed, shard.start_index + int(selected[s]))
            t, k = _replay_xed_tail(
                scheme, vis, s, float(times[s]), int(kinds[s]), rng
            )
            times[s] = t
            kinds[s] = k
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
    rng: random.Random,
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

    Returns the failed systems -- global indices, first-failure times
    and DUE/SDC kinds -- in system order, bit-identical to running
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
    failed = np.nonzero(kinds != _KIND_NONE)[0].tolist()
    selected = shard.selected
    return ShardAdjudication(
        system_indices=[
            shard.start_index + int(selected[s]) for s in failed
        ],
        failure_times=[float(times[s]) for s in failed],
        kinds=[_KIND_OF_CODE[int(kinds[s])] for s in failed],
    )
