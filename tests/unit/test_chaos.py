"""Chaos-harness tests: recovery paths under real worker failures.

Each test disturbs a sharded run -- a worker killed with ``os._exit``,
a worker hung past its deadline, a checkpoint with a corrupted tail --
and proves the recovered merged result is bit-identical to an
undisturbed reference run.  These are the multiprocessing
(``--workers 4``) twins of the in-process recovery tests in
``test_runtime.py``; they are slower (each pool rebuild spawns fresh
interpreters) and are additionally exercised as a dedicated CI step.
"""

from numpy.testing import assert_array_equal
import pytest

from repro.faultsim.campaign import run_xed_campaign
from repro.faultsim.schemes import XedScheme
from repro.faultsim.simulator import MonteCarloConfig, simulate
from repro.obs import OBS
from repro.runtime import (
    ChaosPolicy,
    RuntimePolicy,
    ShardFailure,
    corrupt_checkpoint_tail,
    load_checkpoint,
    use_policy,
)

CFG = MonteCarloConfig(num_systems=30_000, seed=11)
SHARD_SIZE = 10_000
WORKERS = 4


@pytest.fixture(scope="module")
def reference():
    """The undisturbed merged result every recovery must reproduce."""
    return simulate(XedScheme(), CFG, workers=1, shard_size=SHARD_SIZE)


def _assert_identical(result, reference):
    assert_array_equal(
        result.failure_times_hours, reference.failure_times_hours
    )
    assert result.kinds == reference.kinds
    assert result.num_systems == reference.num_systems


@pytest.mark.timeout(300)
class TestPoolCrashRecovery:
    def test_worker_crash_is_retried_bit_identically(self, tmp_path, reference):
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path),
            chaos=ChaosPolicy(crash_shards=(1,)),
            backoff_base_s=0.01,
        )
        with use_policy(policy):
            recovered = simulate(
                XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE
            )
        _assert_identical(recovered, reference)
        assert policy.outcomes[0].crashes >= 1
        assert policy.outcomes[0].completeness == 1.0

    def test_permanent_crash_checkpoints_then_resumes(self, tmp_path, reference):
        failing = RuntimePolicy(
            checkpoint_dir=str(tmp_path), max_retries=1,
            chaos=ChaosPolicy(crash_shards=(2,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        with use_policy(failing):
            with pytest.raises(ShardFailure) as exc:
                simulate(
                    XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE
                )
        records = load_checkpoint(exc.value.checkpoint_path).records
        assert 2 not in records

        resumed_policy = RuntimePolicy(resume_dir=str(tmp_path))
        with use_policy(resumed_policy):
            resumed = simulate(
                XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE
            )
        _assert_identical(resumed, reference)
        assert resumed_policy.outcomes[0].resumed_shards == len(records)


@pytest.mark.timeout(300)
class TestPoolHangRecovery:
    def test_hung_worker_times_out_and_result_is_identical(
        self, tmp_path, reference
    ):
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path), shard_timeout_s=5.0,
            chaos=ChaosPolicy(hang_shards=(2,), hang_s=120.0),
            backoff_base_s=0.01,
        )
        with use_policy(policy):
            recovered = simulate(
                XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE
            )
        _assert_identical(recovered, reference)
        assert policy.outcomes[0].timeouts >= 1


@pytest.mark.timeout(300)
class TestCheckpointCorruptionRecovery:
    def test_corrupted_tail_rerun_is_bit_identical(self, tmp_path, reference):
        first = RuntimePolicy(checkpoint_dir=str(tmp_path))
        with use_policy(first):
            simulate(XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE)
        ckpt = first.outcomes[0].checkpoint_path
        assert corrupt_checkpoint_tail(ckpt, nbytes=8, seed=7) > 0

        resumed_policy = RuntimePolicy(resume_dir=str(tmp_path))
        with use_policy(resumed_policy):
            resumed = simulate(
                XedScheme(), CFG, workers=WORKERS, shard_size=SHARD_SIZE
            )
        _assert_identical(resumed, reference)
        outcome = resumed_policy.outcomes[0]
        assert outcome.discarded_records == 1
        # exactly the damaged shard re-ran; the intact prefix replayed
        assert outcome.resumed_shards == outcome.total_shards - 1


@pytest.mark.timeout(300)
class TestCampaignRecovery:
    def test_campaign_crash_resume_is_bit_identical(self, tmp_path):
        reference = run_xed_campaign(trials=8, seed=5, workers=1, shard_size=2)
        failing = RuntimePolicy(
            checkpoint_dir=str(tmp_path), max_retries=0,
            chaos=ChaosPolicy(fault_shards=(2,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        with use_policy(failing):
            with pytest.raises(ShardFailure):
                run_xed_campaign(trials=8, seed=5, workers=1, shard_size=2)

        resumed_policy = RuntimePolicy(resume_dir=str(tmp_path))
        with use_policy(resumed_policy):
            resumed = run_xed_campaign(
                trials=8, seed=5, workers=1, shard_size=2
            )
        assert [s.outcome for s in resumed.scenarios] == [
            s.outcome for s in reference.scenarios
        ]
        assert resumed.counts == reference.counts
        assert resumed_policy.outcomes[0].resumed_shards > 0

    def test_campaign_pool_crash_recovery(self, tmp_path):
        reference = run_xed_campaign(trials=8, seed=5, workers=1, shard_size=2)
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path),
            chaos=ChaosPolicy(crash_shards=(1,)),
            backoff_base_s=0.01,
        )
        with use_policy(policy):
            recovered = run_xed_campaign(
                trials=8, seed=5, workers=WORKERS, shard_size=2
            )
        assert [s.outcome for s in recovered.scenarios] == [
            s.outcome for s in reference.scenarios
        ]
        assert policy.outcomes[0].crashes >= 1
