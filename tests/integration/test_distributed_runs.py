"""End-to-end distributed coordinator tests over real loopback sockets.

Each test runs one :class:`~repro.runtime.distributed.Coordinator` in
the main thread against workers on 127.0.0.1 -- threads for the clean
and drain paths, spawned processes where chaos really kills the worker
with ``os._exit`` -- and proves the merged result is *bit-identical*
(via the PR-5 differential harness) to the single-machine vectorized
run of the same spec.  This is the distributed twin of
``tests/unit/test_chaos.py``.
"""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.faultsim.differential import assert_identical
from repro.faultsim.schemes import XedScheme
from repro.faultsim.simulator import MonteCarloConfig, simulate
from repro.obs import TelemetryScope
from repro.runtime import (
    CRASH_EXIT_CODE,
    ChaosPolicy,
    RunInterrupted,
    RuntimePolicy,
    corrupt_checkpoint_tail,
    parse_chaos_spec,
)
from repro.runtime.distributed import Coordinator, JobSpec, run_worker
from repro.runtime.protocol import PROTOCOL_VERSION, recv_message, send_message

SPEC = JobSpec(scheme="xed", num_systems=20_000, shard_size=5_000, seed=7)
CFG = MonteCarloConfig(
    num_systems=20_000, seed=7, faultsim_backend="vectorized"
)


@pytest.fixture(scope="module")
def reference():
    """The single-machine result every distributed merge must equal."""
    return simulate(XedScheme(), CFG, workers=1, shard_size=5_000)


def _start_worker_thread(address, worker_id, chaos=None):
    host, port = address

    def serve():
        try:
            run_worker(
                host, port, worker_id=worker_id, chaos=chaos,
                connect_timeout_s=30.0,
            )
        except ConnectionError:
            pass  # coordinator already gone: nothing left to serve

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


def _worker_process_main(host, port, chaos_spec):
    """Spawned-process entry point (top level so it pickles)."""
    chaos = parse_chaos_spec(chaos_spec) if chaos_spec else None
    try:
        run_worker(host, port, chaos=chaos, connect_timeout_s=30.0)
    except ConnectionError:
        pass


@pytest.mark.timeout(300)
class TestDistributedRuns:
    def test_three_workers_merge_bit_identically(self, reference):
        coordinator = Coordinator(SPEC, port=0, lease_shards=1)
        threads = [
            _start_worker_thread(coordinator.address, f"t{i}")
            for i in range(3)
        ]
        result = coordinator.run()
        for thread in threads:
            thread.join(timeout=30.0)
        assert_identical(result, reference, "distributed clean run")
        assert coordinator.outcome.total_shards == 4
        assert coordinator.outcome.completed_shards == 4
        assert coordinator.outcome.completeness == 1.0

    def test_old_protocol_hello_gets_error_and_no_job(self, reference):
        # A version-1 worker would die on the version-2 job message, so
        # the coordinator must refuse it at the hello.  A current worker
        # then finishes the run, which lets run() return.
        coordinator = Coordinator(SPEC, port=0, lease_shards=1)
        frames = []

        def old_worker_then_current():
            try:
                with socket.create_connection(
                    coordinator.address, timeout=10.0
                ) as sock:
                    send_message(
                        sock, {"type": "hello", "protocol": 1, "worker": "v1"}
                    )
                    while (message := recv_message(sock)) is not None:
                        frames.append(message)
            except OSError as exc:  # e.g. the connection was never closed
                frames.append({"type": "socket", "reason": str(exc)})
            finally:
                run_worker(*coordinator.address, worker_id="v2")

        thread = threading.Thread(target=old_worker_then_current, daemon=True)
        thread.start()
        result = coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert frames == [{
            "type": "error",
            "reason": f"protocol 1 != {PROTOCOL_VERSION}",
        }]
        assert PROTOCOL_VERSION == 2
        assert_identical(result, reference, "run after a refused worker")

    def test_crash_partition_and_drop_recover_bit_identically(
        self, reference, tmp_path
    ):
        # Both processes carry the same chaos: whichever is granted
        # shard 1 on attempt 1 dies with os._exit, shard 2's first
        # holder severs before running, shard 3's first holder computes
        # the result and severs instead of sending it.  Exactly one
        # process dies; the survivor re-dials and finishes the plan.
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path), backoff_base_s=0.01
        )
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1, policy=policy
        )
        ctx = multiprocessing.get_context("spawn")
        host, port = coordinator.address
        procs = [
            ctx.Process(
                target=_worker_process_main,
                args=(host, port, "crash=1;partition=2;drop=3"),
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        result = coordinator.run()
        for proc in procs:
            proc.join(timeout=60.0)
        assert sorted(p.exitcode for p in procs) == [0, CRASH_EXIT_CODE]
        assert_identical(result, reference, "distributed chaos run")
        assert coordinator.outcome.completeness == 1.0
        assert coordinator.outcome.crashes >= 1
        assert coordinator.outcome.retries >= 3

    def test_drain_on_signal_then_resume_bit_identically(
        self, reference, tmp_path
    ):
        # Phase 1: the worker hangs forever on shard 3, so the run can
        # only end through the drain path.  Once the first three shards
        # are checkpointed we inject the signal; the hung lease expires
        # (1 s deadline), the drain completes and run() raises
        # RunInterrupted with the checkpoint flushed.
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path), backoff_base_s=0.01
        )
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1, lease_timeout_s=1.0, policy=policy
        )
        _start_worker_thread(
            coordinator.address, "hanger",
            chaos=ChaosPolicy(hang_shards=(3,)),
        )

        def signal_when_partial():
            while coordinator.outcome.completed_shards < 3:
                time.sleep(0.02)
            coordinator._on_signal("SIGINT")

        threading.Thread(target=signal_when_partial, daemon=True).start()
        with pytest.raises(RunInterrupted) as excinfo:
            coordinator.run()
        assert excinfo.value.checkpoint_path is not None
        assert coordinator.outcome.completed_shards == 3

        # Phase 2: resume from the checkpoint with a healthy worker;
        # only the missing shard runs and the merge is bit-identical.
        resume_policy = RuntimePolicy(resume_dir=str(tmp_path))
        resumed = Coordinator(
            SPEC, port=0, lease_shards=1, policy=resume_policy
        )
        thread = _start_worker_thread(resumed.address, "finisher")
        result = resumed.run()
        thread.join(timeout=30.0)
        assert_identical(result, reference, "distributed resumed run")
        assert resumed.outcome.resumed_shards == 3
        assert resumed.outcome.completeness == 1.0

    def test_resume_counts_discarded_checkpoint_records(
        self, reference, tmp_path
    ):
        # A torn last record is dropped on resume and counted the way
        # the local executor counts it; the worker re-runs that shard.
        scheme, config = SPEC.build()
        simulate(
            scheme, config, shard_size=SPEC.shard_size,
            runtime=RuntimePolicy(checkpoint_dir=str(tmp_path)),
        )
        (path,) = tmp_path.glob("*.ckpt")
        corrupt_checkpoint_tail(path)
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1,
            policy=RuntimePolicy(resume_dir=str(tmp_path)),
        )
        # A worker in a thread would reset this process's OBS.
        proc = multiprocessing.get_context("spawn").Process(
            target=_worker_process_main, args=(*coordinator.address, None)
        )
        proc.start()
        with TelemetryScope() as scope:
            result = coordinator.run()
        proc.join(timeout=60.0)
        assert proc.exitcode == 0
        assert_identical(result, reference, "resume past a torn record")
        outcome = coordinator.outcome
        assert outcome.resumed_shards == 3 and outcome.discarded_records == 1
        counters = scope.snapshot()["counters"]
        assert counters.get("runtime.checkpoint_discarded") == 1
