"""Deterministic shard plans for the Monte-Carlo and campaign engines.

The paper's figure of merit comes from simulating 1e9 independent
system lifetimes; a single pure-Python process cannot get there.  This
module splits a population into deterministic *shards*; every engine
hands its plan to :func:`repro.runtime.run_resilient`, which runs it
in-process (``workers=1``) or on a process pool built from
:func:`pool_context`:

* **Determinism.**  Shard boundaries depend only on ``(num_systems,
  shard_size)`` and every shard draws from its own
  :class:`numpy.random.SeedSequence` child (``SeedSequence(seed)
  .spawn(num_shards)``), so the merged result is bit-identical for a
  given ``(seed, num_systems, shard_size)`` no matter how many workers
  run the shards -- including ``workers=1``, which executes the same
  shard plan in-process.
* **Observability.**  Each shard runs against its own
  :data:`repro.obs.OBS` registry and trace and ships that delta back
  with its result; the executor folds the deltas into the session
  registry/trace in plan order, so ``--metrics-out``/``--trace-out``
  stay truthful under parallelism.

Every shard pays a fixed cost -- a sampler, a few dozen numpy calls
and a record in process, plus one pickle round-trip on a pool, where
each worker also costs a process spawn -- so shards should be tens of
thousands of systems each.  ``DEFAULT_SHARD_SIZE`` in
:mod:`repro.runtime.spec` is 50,000; docs/performance.md measures
what the fixed cost is at 25,000, 50,000 and 100,000.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - loaded by pool runs only
    import multiprocessing.context

__all__ = [
    "Shard",
    "plan_shards",
    "pool_context",
    "resolve_shard_size",
    "select_shard_args",
    "validate_workers",
]


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for every worker pool.

    Workers always use the ``spawn`` start method: a spawned worker is
    a fresh interpreter, so its :data:`repro.obs.OBS` reset/merge
    semantics (and everything else about shard execution) are identical
    on Linux, macOS and Windows, instead of silently depending on the
    platform's default (``fork`` forks the parent's live OBS state).
    Determinism of *results* never depended on the start method -- all
    shard randomness is derived from the plan -- but telemetry and
    crash behaviour did.  Should an exotic platform lack ``spawn``
    (CPython provides it everywhere; this is belt-and-braces), the
    platform default context is the documented fallback.
    ``multiprocessing`` is imported here, by the pool runs that use
    it, so an in-process run never loads it.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("spawn")
    except ValueError:  # pragma: no cover - spawn exists on all tier-1 OSes
        return multiprocessing.get_context()

#: A shard is a half-open range of global indices: (start, count).
Shard = Tuple[int, int]


def plan_shards(total: int, shard_size: int) -> List[Shard]:
    """Split ``total`` units into ``(start, count)`` shards.

    Every shard but the last has exactly ``shard_size`` units; the last
    takes the remainder.  The plan depends only on ``(total,
    shard_size)`` -- never on the worker count -- which is what makes
    sharded runs reproducible across machines.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [
        (start, min(shard_size, total - start))
        for start in range(0, total, shard_size)
    ]


def resolve_shard_size(shard_size: Optional[int], default: int) -> int:
    """Validate an explicit shard size or fall back to ``default``."""
    if shard_size is None:
        shard_size = default
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return shard_size


def select_shard_args(
    shard_args: Sequence[Tuple[Any, ...]], indices: Sequence[int]
) -> List[Tuple[Any, ...]]:
    """Pick a subset of a full shard plan by global shard index.

    Distributed leases execute arbitrary index subsets of the *same*
    deterministic plan a single-machine run would build; selecting from
    the full ``shard_args`` list (rather than re-planning a sub-range)
    is what keeps every shard's seed and start offset identical to the
    single-machine run, and therefore the merge bit-identical.  Raises
    ``ValueError`` for indices outside the plan.
    """
    selected: List[Tuple[Any, ...]] = []
    for index in indices:
        if not 0 <= index < len(shard_args):
            raise ValueError(
                f"shard index {index} outside plan of {len(shard_args)}"
            )
        selected.append(shard_args[index])
    return selected


def validate_workers(workers: int) -> int:
    """Check a worker count (the CLI rejects ``< 1`` the same way)."""
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers
