"""Fault-tolerant campaign runtime: checkpoint/resume, retry, chaos.

The sharded engines in :mod:`repro.faultsim` and :mod:`repro.perfsim`
are deterministic, but one worker crash, hang, or ``kill`` would lose
hours of Monte-Carlo progress.  Every engine therefore runs its shards
through this package's execution layer --

* :mod:`repro.runtime.checkpoint` -- durable, digest-verified,
  atomically-replaced checkpoint files keyed by a run-identity
  fingerprint, so an interrupted campaign resumes from exactly the
  shards it finished.
* :mod:`repro.runtime.executor` -- :func:`run_resilient`, the retrying,
  timeout-enforcing, signal-draining executor of every shard plan,
  plus the ambient :class:`RuntimePolicy` the CLI installs via
  :func:`use_policy`.
* :mod:`repro.runtime.chaos` -- deterministic failure injection
  (worker crashes, hangs, checkpoint corruption, and protocol-layer
  network verbs for distributed runs) used by the test suite and the
  ``--chaos`` developer flag to prove every recovery path yields
  bit-identical results.
* :mod:`repro.runtime.protocol` -- the length-prefixed JSON framing
  that distributed coordinators and workers speak.
* :mod:`repro.runtime.distributed` -- the multi-machine campaign
  coordinator (shard-range leases with deadlines, digest-verified
  transfers, requeue/quarantine, drain + resume) and its worker loop,
  behind ``repro coordinate`` / ``repro work``.

See ``docs/robustness.md`` for the checkpoint format, resume
semantics, the lease lifecycle, and the CLI's exit-code contract.
"""

from repro.runtime.chaos import (
    CRASH_EXIT_CODE,
    ChaosCrash,
    ChaosFault,
    ChaosHang,
    ChaosPolicy,
    ChaosSpecError,
    corrupt_checkpoint_tail,
    parse_chaos_spec,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointLoad,
    CheckpointMismatch,
    CheckpointStore,
    LeaseBook,
    RunFingerprint,
    ShardLease,
    ShardRecord,
    config_digest,
    load_checkpoint,
)
from repro.runtime.distributed import (
    Coordinator,
    JobSpec,
    WorkerSummary,
    run_worker,
)
from repro.runtime.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.runtime.executor import (
    RunInterrupted,
    RunOutcome,
    RuntimePolicy,
    ShardFailure,
    current_policy,
    run_resilient,
    use_policy,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CRASH_EXIT_CODE",
    "PROTOCOL_VERSION",
    "ChaosCrash",
    "ChaosFault",
    "ChaosHang",
    "ChaosPolicy",
    "ChaosSpecError",
    "CheckpointError",
    "CheckpointLoad",
    "CheckpointMismatch",
    "CheckpointStore",
    "Coordinator",
    "FrameDecoder",
    "JobSpec",
    "LeaseBook",
    "ProtocolError",
    "RunFingerprint",
    "RunInterrupted",
    "RunOutcome",
    "RuntimePolicy",
    "ShardFailure",
    "ShardLease",
    "ShardRecord",
    "WorkerSummary",
    "config_digest",
    "corrupt_checkpoint_tail",
    "current_policy",
    "encode_frame",
    "load_checkpoint",
    "parse_chaos_spec",
    "run_resilient",
    "run_worker",
    "use_policy",
]
