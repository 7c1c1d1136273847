"""Vectorised Monte-Carlo fault sampling.

The paper simulates one billion systems; getting anywhere near that in
Python requires separating the cheap common case from the expensive
rare one.  The number of runtime faults a system develops over 7 years
is Poisson with mean ~0.3, so the overwhelming majority of sample
systems draw fewer faults than the scheme under test can possibly fail
on -- those are resolved wholesale with one vectorised Poisson draw.
Only the surviving minority gets its faults drawn, and only the
reference materialises them as :class:`~repro.faultsim.fault.ChipFault`
objects.

Each shard draws from its own generator, in this order: one Poisson
fault total per system; one categorical FIT-table row per fault of the
systems with at least ``min_faults`` faults; one batch of every fault
attribute for those faults.  By Poisson superposition, a Poisson total
split categorically by the rows' rate shares is distributed exactly as
one independent Poisson count per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.dram.geometry import ChipGeometry
from repro.faultsim.fault import AddressRange, ChipFault, FaultSpace
from repro.faultsim.fault_models import FailureMode, FitTable
from repro.faultsim.scaling import ScalingFaultModel
from repro.faultsim.schemes import ProtectionScheme
from repro.faultsim.vectorized import MODE_CODES, FaultShard

#: Tag of the shard sampler's draw order
#: (:meth:`FaultSampler.sample_shard_arrays`).  ``reliability_fingerprint``
#: hashes it, so checkpoints and cached results drawn by another sampler
#: are never mixed with this one's.
SHARD_SAMPLER = "poisson-total+categorical-row"


@dataclass
class SampledSystem:
    """One Monte-Carlo sample system that needs detailed evaluation."""

    index: int
    faults: List[ChipFault]


class FaultSampler:
    """Samples runtime faults for a memory system shape.

    Parameters
    ----------
    scheme:
        Supplies the chip population (channels x ranks x chips/rank).
    fit:
        Per-chip FIT table (Table I by default).
    hours:
        Simulated lifetime.
    scaling_rate:
        Scaling-fault bit-error rate; promotes the corresponding share
        of runtime single-bit faults into visible two-bit word faults.
    scrub_hours:
        If set, transient faults deactivate after this interval
        (memory scrubbing); by default damage persists, the paper's
        accumulate-over-lifetime assumption.
    device_width:
        x8 or x4; sets the lane width a column failure breaks.
    """

    def __init__(
        self,
        scheme: ProtectionScheme,
        fit: FitTable,
        hours: float,
        scaling_rate: float = 0.0,
        scrub_hours: Optional[float] = None,
        device_width: int = 8,
    ) -> None:
        self.scheme = scheme
        self.fit = fit
        self.hours = hours
        self.scrub_hours = scrub_hours
        self.geometry = ChipGeometry(device_width=device_width)
        self.space = FaultSpace.for_chip(self.geometry)
        self.scaling = ScalingFaultModel(bit_error_rate=scaling_rate)
        self.promotion_p = (
            self.scaling.promotion_probability if scaling_rate > 0 else 0.0
        )
        modes = fit.mode_weights()
        self._modes: List[Tuple[FailureMode, bool]] = [
            (mode, permanent) for mode, permanent, _ in modes
        ]
        self._mode_probs = np.array([w for _, _, w in modes])
        self._wildcards = [self.space.wildcard_for(mode) for mode, _ in self._modes]
        # Per-FIT-row metadata in array form, for struct-of-arrays shards.
        self._row_mode_codes = np.array(
            [MODE_CODES[mode] for mode, _ in self._modes], dtype=np.int64
        )
        self._row_permanent = np.array(
            [permanent for _, permanent in self._modes], dtype=bool
        )
        self._row_wildcards = np.array(self._wildcards, dtype=np.int64)
        self._row_spans = np.array(
            [mode.spans_ranks for mode, _ in self._modes], dtype=bool
        )
        self._row_correctable = np.array(
            [mode.on_die_correctable for mode, _ in self._modes], dtype=bool
        )

    @property
    def lam_per_system(self) -> float:
        """Expected runtime faults per system over the lifetime."""
        return self.fit.total_fit * 1e-9 * self.hours * self.scheme.total_chips

    # -- sampling -------------------------------------------------------------

    def sample_shard_arrays(
        self,
        start_index: int,
        num_systems: int,
        rng: np.random.Generator,
        min_faults: int = 1,
    ) -> FaultShard:
        """Sample one shard into struct-of-arrays form.

        Draws from ``rng`` in this order:

        1. one Poisson fault total per system of the shard;
        2. one FIT-table row (failure mode x transient/permanent) per
           fault of the systems with at least ``min_faults`` faults,
           categorical with the rows' rate shares;
        3. one :meth:`_draw_attributes` batch (chip, arrival time,
           address, promotion draw) for those faults.

        Faults come out grouped by system in selection order, and the
        rows and attributes of skipped systems are never drawn.  The
        selected systems' global indices are ``start_index`` plus the
        in-shard offset, so downstream per-system seeding (which hashes
        the global index) is shard-layout independent.  The returned
        :class:`~repro.faultsim.vectorized.FaultShard` holds the raw
        draw columns; the vectorized kernels consume it directly and
        ``scheme.evaluate`` (the reference, and the fallback for schemes
        without a kernel) through :meth:`materialise_shard`, so the
        draws are shared verbatim.
        """
        counts = rng.poisson(self.lam_per_system, num_systems)
        selected = np.flatnonzero(counts >= min_faults)
        if selected.size == 0:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return self._shard(
                start_index, num_systems, selected, empty_i,
                empty_i, empty_i, empty_f, empty_i, empty_f,
            )
        counts = counts[selected]
        total = int(counts.sum())
        mode_rows = rng.choice(
            len(self._modes), size=total, p=self._mode_probs
        )
        return self._shard(
            start_index, num_systems, selected, counts, mode_rows,
            *self._draw_attributes(total, rng),
        )

    def _shard(
        self,
        start_index: int,
        num_systems: int,
        selected: np.ndarray,
        totals: np.ndarray,
        mode_rows: np.ndarray,
        chips: np.ndarray,
        times: np.ndarray,
        addrs: np.ndarray,
        promote: np.ndarray,
    ) -> FaultShard:
        return FaultShard(
            start_index=start_index,
            num_systems=num_systems,
            selected=selected,
            counts=totals,
            mode_rows=mode_rows,
            chips_global=chips,
            times=times,
            addr_values=addrs,
            promote_u=promote,
            row_mode_codes=self._row_mode_codes,
            row_permanent=self._row_permanent,
            row_wildcards=self._row_wildcards,
            row_spans=self._row_spans,
            row_correctable=self._row_correctable,
            chips_per_rank=self.scheme.chips_per_rank,
            ranks_per_channel=self.scheme.ranks_per_channel,
            promotion_p=self.promotion_p,
            scrub_hours=self.scrub_hours,
            word_mask=self.space.word_mask,
        )

    def materialise_shard(self, shard: FaultShard) -> Iterator[SampledSystem]:
        """Build ChipFault sample systems from a struct-of-arrays shard."""
        if shard.selected.size == 0:
            return
        modes = shard.mode_rows.tolist()
        chips = shard.chips_global.tolist()
        times = shard.times.tolist()
        addrs = shard.addr_values.tolist()
        promote = shard.promote_u.tolist()
        chips_per_rank = self.scheme.chips_per_rank
        ranks = self.scheme.ranks_per_channel
        totals = shard.counts.tolist()
        indices = shard.selected.tolist()
        offset = 0
        for j, offset_in_shard in enumerate(indices):
            faults: List[ChipFault] = []
            for k in range(offset, offset + totals[j]):
                faults.extend(self._build_fault(
                    modes[k],
                    chips[k],
                    times[k],
                    addrs[k],
                    promote[k],
                    chips_per_rank,
                    ranks,
                ))
            offset += totals[j]
            yield SampledSystem(shard.start_index + offset_in_shard, faults)

    def _draw_attributes(
        self, total: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(chips, times, addrs, promote): one batch of ``total`` faults."""
        s = self.space
        banks = rng.integers(0, self.geometry.banks, size=total)
        rows = rng.integers(0, self.geometry.rows_per_bank, size=total)
        cols = rng.integers(0, self.geometry.columns_per_row, size=total)
        bits = rng.integers(0, 1 << (s.beat_bits + s.lane_bits), size=total)
        chips = rng.integers(0, self.scheme.total_chips, size=total)
        times = rng.uniform(0.0, self.hours, size=total)
        addrs = (
            (banks.astype(np.int64) << s.bank_shift)
            | (rows.astype(np.int64) << s.row_shift)
            | (cols.astype(np.int64) << s.column_shift)
            | bits.astype(np.int64)
        )
        return chips, times, addrs, rng.random(size=total)

    def _build_fault(
        self,
        mode_i: int,
        chip_global: int,
        time_hours: float,
        addr_value: int,
        promote_u: float,
        chips_per_rank: int,
        ranks: int,
    ) -> List[ChipFault]:
        mode, permanent = self._modes[mode_i]
        wildcard = self._wildcards[mode_i]
        chip = chip_global % chips_per_rank
        rank = (chip_global // chips_per_rank) % ranks
        channel = chip_global // (chips_per_rank * ranks)

        correctable = mode.on_die_correctable
        if correctable and promote_u < self.promotion_p:
            # Runtime bit fault struck a word holding a scaling fault:
            # the two-bit word escapes on-die correction (Section VII).
            correctable = False
            wildcard = self.space.word_mask

        end = float("inf")
        if not permanent and self.scrub_hours is not None:
            end = time_hours + self.scrub_hours

        addr = AddressRange(addr_value, wildcard)
        base = ChipFault(
            channel=channel,
            rank=rank,
            chip=chip,
            mode=mode,
            permanent=permanent,
            time_hours=time_hours,
            addr=addr,
            on_die_correctable=correctable,
            end_hours=end,
        )
        if not mode.spans_ranks or ranks == 1:
            return [base]
        # Multi-rank fault: the same chip position fails in every rank
        # of the channel (shared I/O / command circuitry).
        clones = []
        for r in range(ranks):
            clones.append(
                ChipFault(
                    channel=channel,
                    rank=r,
                    chip=chip,
                    mode=mode,
                    permanent=permanent,
                    time_hours=time_hours,
                    addr=addr,
                    on_die_correctable=correctable,
                    end_hours=end,
                )
            )
        return clones
