"""End-to-end distributed coordinator tests over real loopback sockets.

Each test runs one :class:`~repro.runtime.distributed.Coordinator` in
the main thread against workers on 127.0.0.1 -- threads for the clean
and drain paths, spawned processes where chaos really kills the worker
with ``os._exit`` -- and proves the merged result is *bit-identical*
(via the PR-5 differential harness) to the single-machine vectorized
run of the same spec.  This is the distributed twin of
``tests/unit/test_chaos.py``.  Hand-driven protocol clients pin the
lease accounting: a failure reported after its lease expired is not
charged again, a retry is traced with its real backoff delay, and the
run waits for the last ``lease_done`` before it finishes.
"""

import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.faultsim.differential import assert_identical
from repro.faultsim.schemes import XedScheme
from repro.faultsim.simulator import (
    MonteCarloConfig,
    simulate,
    simulate_shard_range,
)
from repro.obs import TelemetryScope
from repro.runtime import (
    CRASH_EXIT_CODE,
    ChaosPolicy,
    RunInterrupted,
    RuntimePolicy,
    corrupt_checkpoint_tail,
    parse_chaos_spec,
)
from repro.runtime.checkpoint import ShardRecord, backoff_delay
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


@pytest.fixture(scope="module")
def result_frames():
    """Every SPEC shard's ``result`` record, as a worker sends it.

    Computed up front in the test process, so hand-driven clients in
    threads run no engine code (which would reset this process's OBS).
    """
    scheme, config = SPEC.build()
    results = simulate_shard_range(
        scheme, config, indices=range(SPEC.num_shards()),
        shard_size=SPEC.shard_size,
    )
    return {
        index: json.loads(
            ShardRecord(index=index, payload=result.to_payload()).to_line()
        )
        for index, result in results.items()
    }


def _hand_client(address, name):
    """A protocol client past its handshake, driven message by message."""
    sock = socket.create_connection(address, timeout=10.0)
    send_message(
        sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": name}
    )
    assert recv_message(sock)["type"] == "job"
    return sock


def _next_lease(sock):
    """Ask for work until a lease arrives; ``None`` once drained."""
    while True:
        send_message(sock, {"type": "ready"})
        message = recv_message(sock)
        if message is None or message["type"] == "drain":
            return None
        if message["type"] == "lease":
            return message
        time.sleep(message["delay_s"])


def _serve_leases(sock, frames):
    """Answer every lease with precomputed results until drained."""
    try:
        while (lease := _next_lease(sock)) is not None:
            for index in lease["shards"]:
                send_message(
                    sock,
                    {"type": "result", "lease_id": lease["lease_id"],
                     "record": frames[index]},
                )
            send_message(
                sock, {"type": "lease_done", "lease_id": lease["lease_id"]}
            )
    except OSError:
        pass  # the coordinator finished and closed the connection


def _wait_for(condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


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

    def test_failure_reported_after_expiry_is_not_charged_again(
        self, reference, result_frames
    ):
        # The client holds shard 0 past its 0.5 s deadline, so the
        # coordinator charges a timeout and schedules the retry.  The
        # fault the client then reports belongs to the expired lease:
        # charging it too would exhaust --max-retries 1 and abort.
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1, lease_timeout_s=0.5,
            policy=RuntimePolicy(max_retries=1, backoff_base_s=0.01),
        )

        def late_reporter():
            with _hand_client(coordinator.address, "late") as sock:
                lease = _next_lease(sock)
                assert (lease["shards"], lease["attempts"]) == ([0], [1])
                _wait_for(lambda: coordinator.outcome.timeouts == 1)
                send_message(
                    sock,
                    {"type": "shard_failed", "lease_id": lease["lease_id"],
                     "index": 0, "reason": "fault"},
                )
                send_message(
                    sock, {"type": "lease_done", "lease_id": lease["lease_id"]}
                )
                _serve_leases(sock, result_frames)

        thread = threading.Thread(target=late_reporter, daemon=True)
        thread.start()
        result = coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert_identical(result, reference, "run past a stale failure")
        outcome = coordinator.outcome
        assert (outcome.timeouts, outcome.faults, outcome.retries) == (1, 0, 1)

    def test_run_waits_for_the_last_lease_done(self, reference, result_frames):
        # One lease holds the whole plan.  Its results complete the book
        # 0.3 s before its lease_done arrives; that message's telemetry
        # must still be folded, and the lease closed as completed.
        coordinator = Coordinator(SPEC, port=0, lease_shards=SPEC.num_shards())
        folded = {"counters": {"test.lease_done_folded": 1}}

        def slow_closer():
            with _hand_client(coordinator.address, "slow") as sock:
                lease = _next_lease(sock)
                for index in lease["shards"]:
                    send_message(
                        sock,
                        {"type": "result", "lease_id": lease["lease_id"],
                         "record": result_frames[index]},
                    )
                time.sleep(0.3)
                send_message(
                    sock,
                    {"type": "lease_done", "lease_id": lease["lease_id"],
                     "metrics": folded},
                )
                _serve_leases(sock, result_frames)

        thread = threading.Thread(target=slow_closer, daemon=True)
        thread.start()
        with TelemetryScope() as scope:
            result = coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert_identical(result, reference, "run with a slow lease_done")
        assert scope.snapshot()["counters"].get("test.lease_done_folded") == 1
        kinds = scope.trace.counts_by_kind()
        assert kinds.get("lease_granted") == kinds.get("lease_completed") == 1
        assert "lease_expired" not in kinds

    def test_retry_is_traced_with_its_backoff_delay(self, reference):
        # A worker process reports shard 1 failed on its first attempt;
        # the coordinator counts and traces it the way run_resilient
        # does, with the delay the lease book actually waits.
        coordinator = Coordinator(SPEC, port=0)
        proc = multiprocessing.get_context("spawn").Process(
            target=_worker_process_main,
            args=(*coordinator.address, "fault=1"),
        )
        proc.start()
        with TelemetryScope() as scope:
            result = coordinator.run()
        proc.join(timeout=60.0)
        assert proc.exitcode == 0
        assert_identical(result, reference, "run with a retried fault")
        retried = [
            record for record in scope.trace.to_records()
            if record["event"] == "shard_retried"
        ]
        assert [(r["shard"], r["attempt"], r["reason"]) for r in retried] == [
            (1, 1, "fault")
        ]
        delay = backoff_delay(SPEC.seed, 1, 1, 0.25, 8.0)
        assert retried[0]["delay_s"] == delay
        counters = scope.snapshot()["counters"]
        assert counters.get("runtime.shard_retries") == 1
        assert counters.get("runtime.shard_faults") == 1
        assert "runtime.lease_requeues" not in counters
