"""End-to-end distributed coordinator tests over real loopback sockets.

Each test runs one :class:`~repro.runtime.distributed.Coordinator` in
the main thread against workers on 127.0.0.1 -- threads for the clean
and drain paths, spawned processes where chaos really kills the worker
with ``os._exit`` -- and proves the merged result is *bit-identical*
(via the PR-5 differential harness) to the single-machine vectorized
run of the same spec.  This is the distributed twin of
``tests/unit/test_chaos.py``.  Hand-driven protocol clients pin the
lease accounting: a failure reported after its lease expired is not
charged again, only the connection holding a lease may report on it,
a retry is traced with its real backoff delay, and the run waits for
the last ``lease_done`` before it finishes.  A worker labels each
shard span with the shard's plan index and attempt.  They also
pin the one set of books: each shard's telemetry rides its record and
counts once (late duplicates and resumes included), the coordinator's
``--max-retries`` is the only retry budget, and quarantine order and
a late signal end the run as the executor ends it.  A real
``repro work`` process stopped by SIGINT exits 130 after sending what
it finished.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

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
    ShardFailure,
    corrupt_checkpoint_tail,
    load_checkpoint,
    parse_chaos_spec,
)
from repro.runtime.checkpoint import backoff_delay
from repro.runtime.distributed import Coordinator, run_worker
from repro.runtime.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.runtime.spec import ExperimentSpec

SPEC = ExperimentSpec(
    schemes=("xed",), systems=20_000, shard_size=5_000, seed=7
)
CFG = MonteCarloConfig(
    num_systems=20_000, seed=7, faultsim_backend="vectorized"
)
SRC = Path(__file__).resolve().parents[2] / "src"


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
def result_frames(tmp_path_factory):
    """Every SPEC shard's ``result`` record, as a worker sends it.

    A worker sends each shard's record exactly as a local checkpoint
    holds it -- payload plus that shard's metrics and trace -- so the
    records come from a checkpointed local run with telemetry on.
    Computed up front in the test process, so hand-driven clients in
    threads run no engine code (a shard's telemetry capture swaps this
    process's OBS).
    """
    directory = tmp_path_factory.mktemp("records")
    ((scheme, config),) = SPEC.build_runs()
    with TelemetryScope():
        simulate(
            scheme, config, shard_size=SPEC.shard_size,
            runtime=RuntimePolicy(checkpoint_dir=str(directory)),
        )
    (path,) = directory.glob("*.ckpt")
    return {
        index: json.loads(record.to_line())
        for index, record in load_checkpoint(path).records.items()
    }


def _shard_counters(frames):
    """The counters of ``frames``' own telemetry, each folded once."""
    totals = {}
    for frame in frames:
        for name, value in frame["metrics"]["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


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


def _send_results(sock, lease, frames, indices=None):
    """Send the records of ``indices`` (default: the lease's shards)."""
    for index in lease["shards"] if indices is None else indices:
        send_message(
            sock,
            {"type": "result", "lease_id": lease["lease_id"],
             "record": frames[index]},
        )


def _close_lease(sock, lease):
    """Send the ``lease_done`` that closes ``lease``."""
    send_message(sock, {"type": "lease_done", "lease_id": lease["lease_id"]})


def _serve_leases(sock, frames):
    """Answer every lease with precomputed results until drained."""
    try:
        while (lease := _next_lease(sock)) is not None:
            _send_results(sock, lease, frames)
            _close_lease(sock, lease)
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
        # An older worker would misread the version-4 job and result
        # messages, so the coordinator must refuse it at the hello.  A
        # current worker then finishes the run, which lets run() return.
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
        assert PROTOCOL_VERSION == 5
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
            coordinator._books.on_signal("SIGINT")

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
        ((scheme, config),) = SPEC.build_runs()
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

    def test_lease_frames_count_only_from_the_holder(
        self, reference, result_frames
    ):
        # Client B holds nothing, yet reports client A's lease failed
        # and done.  Under --max-retries 0 --keep-going, charging that
        # would quarantine shard 0; neither frame may charge or close
        # A's lease, so A's own records complete the run.
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1,
            policy=RuntimePolicy(max_retries=0, keep_going=True),
        )

        def holder_and_bystander():
            with _hand_client(coordinator.address, "A") as holder:
                lease = _next_lease(holder)
                assert lease["shards"] == [0]
                with _hand_client(coordinator.address, "B") as bystander:
                    send_message(
                        bystander,
                        {"type": "shard_failed",
                         "lease_id": lease["lease_id"],
                         "index": 0, "reason": "fault"},
                    )
                    _close_lease(bystander, lease)
                    # B's own lease is granted after both frames.
                    own = _next_lease(bystander)
                    assert own["shards"] == [1]
                    _send_results(bystander, own, result_frames)
                    _close_lease(bystander, own)
                _send_results(holder, lease, result_frames)
                _close_lease(holder, lease)
                _serve_leases(holder, result_frames)

        thread = threading.Thread(target=holder_and_bystander, daemon=True)
        thread.start()
        result = coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert_identical(result, reference, "run past a bystander's frames")
        outcome = coordinator.outcome
        assert (outcome.faults, outcome.quarantined_shards) == (0, ())

    def test_run_waits_for_the_last_lease_done(self, reference, result_frames):
        # One lease holds the whole plan.  Its results complete the book
        # 0.3 s before its lease_done arrives; the run must still wait
        # for it and close the lease as completed, and each record's
        # own telemetry is folded once.
        coordinator = Coordinator(SPEC, port=0, lease_shards=SPEC.num_shards())

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
                    sock, {"type": "lease_done", "lease_id": lease["lease_id"]}
                )
                _serve_leases(sock, result_frames)

        thread = threading.Thread(target=slow_closer, daemon=True)
        thread.start()
        with TelemetryScope() as scope:
            result = coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert_identical(result, reference, "run with a slow lease_done")
        sent = _shard_counters(result_frames.values())
        counters = scope.snapshot()["counters"]
        assert {name: counters.get(name) for name in sent} == sent
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

    def test_shard_spans_carry_plan_index_and_attempt(self):
        # A worker runs each leased shard under its plan index and the
        # lease's attempt, so a coordinated trace labels shards as a
        # local run does: two-shard leases give <lease>.s0 .. .s3, and
        # shard 1 retried after a fault gives <lease>.s1a2.
        def spans(chaos_spec, **kwargs):
            coordinator = Coordinator(SPEC, port=0, **kwargs)
            proc = multiprocessing.get_context("spawn").Process(
                target=_worker_process_main,
                args=(*coordinator.address, chaos_spec),
            )
            proc.start()
            with TelemetryScope() as scope:
                coordinator.run()
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
            records = [
                record for record in scope.trace.to_records()
                if record["event"] == "span"
            ]
            leases = {
                record["span_id"] for record in records
                if record["name"] == "runtime.lease"
            }
            shards = [
                record for record in records if record["name"] == "shard_s"
            ]
            for record in shards:
                assert record["parent_id"] in leases
            return shards

        clean = spans(None, lease_shards=2)
        assert sorted(r["attrs"]["shard"] for r in clean) == list(
            range(SPEC.num_shards())
        )
        for record in clean:
            shard = record["attrs"]["shard"]
            assert record["span_id"] == f"{record['parent_id']}.s{shard}"
            assert record["attrs"]["attempt"] == 1
        faulted = spans(
            "fault=1", policy=RuntimePolicy(backoff_base_s=0.01)
        )
        (retried,) = [r for r in faulted if r["attrs"]["shard"] == 1]
        assert retried["span_id"] == f"{retried['parent_id']}.s1a2"
        assert retried["attrs"]["attempt"] == 2

    def test_expired_lease_late_result_is_folded_once(self, result_frames):
        # Client A holds shard 0 past its 0.5 s deadline; client B runs
        # the retry.  A's late record then arrives with its telemetry,
        # then its lease_done.  Shard 0's counters must count once.
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=1, lease_timeout_s=0.5,
            policy=RuntimePolicy(backoff_base_s=0.01),
        )

        def late_and_retry():
            with _hand_client(coordinator.address, "late") as late:
                held = _next_lease(late)
                assert held["shards"] == [0]
                _wait_for(lambda: coordinator.outcome.timeouts == 1)
                book = coordinator._books.book
                _wait_for(lambda: time.monotonic() >= book.retry_at.get(0, 0))
                with _hand_client(coordinator.address, "retry") as retry:
                    again = _next_lease(retry)
                    assert (again["shards"], again["attempts"]) == ([0], [2])
                    _send_results(retry, again, result_frames)
                    _close_lease(retry, again)
                    _wait_for(lambda: 0 in coordinator._books.results)
                _send_results(late, held, result_frames)
                _close_lease(late, held)
                _serve_leases(late, result_frames)

        thread = threading.Thread(target=late_and_retry, daemon=True)
        thread.start()
        with TelemetryScope() as scope:
            coordinator.run()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        counters = scope.snapshot()["counters"]
        sent = _shard_counters(result_frames.values())
        assert sent.get("faultsim.vectorized.shards") == SPEC.num_shards()
        assert {name: counters.get(name) for name in sent} == sent
        assert counters.get("runtime.duplicate_results") == 1

    def test_coordinator_budget_is_the_only_retry_budget(self, monkeypatch):
        # A shard that always raises runs max_retries + 1 times in all:
        # the worker runs each leased shard once and reports the
        # failure, so only the coordinator's budget retries it.
        import repro.faultsim.simulator as simulator

        runs = []

        def always_raises(*args):
            runs.append(args[2])
            raise RuntimeError("shard always fails")

        monkeypatch.setattr(simulator, "_simulate_shard", always_raises)
        spec = ExperimentSpec(
            schemes=("xed",), systems=5_000, shard_size=5_000, seed=7
        )
        coordinator = Coordinator(
            spec, port=0, lease_shards=1,
            policy=RuntimePolicy(max_retries=1, backoff_base_s=0.01),
        )
        _start_worker_thread(coordinator.address, "once")
        with pytest.raises(ShardFailure) as excinfo:
            coordinator.run()
        assert runs == [0, 0]
        assert f"shard 0 failed {len(runs)} time(s)" in str(excinfo.value)
        assert coordinator.outcome.faults == len(runs)

    def test_signalled_then_resumed_run_exports_every_shard_once(
        self, reference, result_frames, tmp_path
    ):
        # Run 1 is drained by a signal after three shards and resumed by
        # run 2; run 3 is uninterrupted.  Run 2 replays the checkpointed
        # shards' telemetry, so its shard counters equal run 3's.
        def first_three_then_signal(coordinator):
            with _hand_client(coordinator.address, "first") as sock:
                for _ in range(3):
                    lease = _next_lease(sock)
                    _send_results(sock, lease, result_frames)
                    _close_lease(sock, lease)
                _wait_for(lambda: coordinator.outcome.completed_shards == 3)
                coordinator._books.on_signal("SIGINT")

        def serve_all(coordinator):
            with _hand_client(coordinator.address, "all") as sock:
                _serve_leases(sock, result_frames)

        def run(policy, client):
            coordinator = Coordinator(
                SPEC, port=0, lease_shards=1, policy=policy
            )
            thread = threading.Thread(
                target=client, args=(coordinator,), daemon=True
            )
            thread.start()
            with TelemetryScope() as scope:
                try:
                    result = coordinator.run()
                except RunInterrupted:
                    result = None
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            counters = scope.snapshot()["counters"]
            shard_counters = {
                name: value for name, value in counters.items()
                if name.startswith("faultsim.")
            }
            return coordinator.outcome, result, shard_counters

        checkpoint = RuntimePolicy(checkpoint_dir=str(tmp_path))
        drained, nothing, _ = run(checkpoint, first_three_then_signal)
        assert drained.interrupted and nothing is None
        resume = RuntimePolicy(resume_dir=str(tmp_path))
        resumed, result, resumed_counters = run(resume, serve_all)
        assert resumed.resumed_shards == 3
        assert_identical(result, reference, "resumed coordinated run")
        _, _, whole_counters = run(RuntimePolicy(), serve_all)
        sent = _shard_counters(result_frames.values())
        assert resumed_counters == whole_counters == {
            name: value for name, value in sent.items()
            if name.startswith("faultsim.")
        }

    def test_signalled_worker_sends_what_it_finished_and_exits_130(self):
        # A real `repro work` gets SIGINT while it delays shard 1's
        # record.  It must still send that record, ask for no further
        # lease and exit 130; only its unfinished shards are charged
        # (as a dropped connection's), and a second worker finishes a
        # bit-identical merge.
        spec = ExperimentSpec(
            schemes=("xed",), systems=80_000, shard_size=5_000, seed=7
        )
        expected = simulate(
            XedScheme(), MonteCarloConfig(num_systems=80_000, seed=7),
            shard_size=5_000,
        )
        total = spec.num_shards()
        coordinator = Coordinator(spec, port=0, lease_shards=total)
        host, port = coordinator.address
        env = dict(os.environ, PYTHONPATH=str(SRC))
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "work",
             "--coordinator", f"{host}:{port}",
             "--chaos", "delay=1;delay-s=1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        seen = {}

        def interrupt_then_replace():
            _wait_for(lambda: coordinator.outcome.completed_shards >= 1)
            worker.send_signal(signal.SIGINT)
            worker.wait(timeout=60.0)
            _wait_for(lambda: coordinator.outcome.crashes > 0)
            seen["first"] = set(coordinator._books.results)
            multiprocessing.get_context("spawn").Process(
                target=_worker_process_main, args=(host, port, None)
            ).start()

        thread = threading.Thread(target=interrupt_then_replace, daemon=True)
        thread.start()
        with TelemetryScope() as scope:
            result = coordinator.run()
        thread.join(timeout=60.0)
        out, err = worker.communicate(timeout=30.0)
        assert worker.returncode == 130, err
        assert "interrupted by SIGINT" in err
        assert_identical(result, expected, "run finished by a second worker")
        first = seen["first"]
        assert 1 <= len(first) < total
        outcome = coordinator.outcome
        unfinished = set(range(total)) - first
        assert set(coordinator._books.book.failures) == unfinished
        assert (outcome.crashes, outcome.faults, outcome.timeouts) == (
            len(unfinished), 0, 0
        )
        counters = scope.snapshot()["counters"]
        assert "runtime.interrupts" not in counters
        granted = sum(
            record["shards"] for record in scope.trace.to_records()
            if record["event"] == "lease_granted"
        )
        assert counters["runtime.shard_attempts"] == granted == total + len(
            unfinished
        )

    def test_quarantine_order_matches_the_executor(self, result_frames):
        # Shards 3 then 1 fail once under --max-retries 0 --keep-going.
        # The coordinator reports them sorted, as the executor does.
        policy = RuntimePolicy(max_retries=0, keep_going=True)
        coordinator = Coordinator(
            SPEC, port=0, lease_shards=SPEC.num_shards(), policy=policy
        )

        def fail_three_then_one():
            with _hand_client(coordinator.address, "q") as sock:
                lease = _next_lease(sock)
                for index in (3, 1):
                    send_message(
                        sock,
                        {"type": "shard_failed", "lease_id": lease["lease_id"],
                         "index": index, "reason": "fault"},
                    )
                _send_results(sock, lease, result_frames, (0, 2))
                _close_lease(sock, lease)
                _serve_leases(sock, result_frames)

        thread = threading.Thread(target=fail_three_then_one, daemon=True)
        thread.start()
        coordinator.run()
        thread.join(timeout=30.0)
        local = RuntimePolicy(
            max_retries=0, keep_going=True,
            chaos=ChaosPolicy(fault_shards=(1, 3), trigger_attempts=99),
        )
        ((scheme, config),) = SPEC.build_runs()
        simulate(scheme, config, shard_size=SPEC.shard_size, runtime=local)
        assert coordinator.outcome.quarantined_shards == (1, 3)
        assert local.outcomes[0].quarantined_shards == (1, 3)

    def test_signal_after_the_last_shard_interrupts_like_the_executor(
        self, result_frames
    ):
        # The signal lands once every shard is in but before the run
        # finishes: both the coordinator and the executor drain to
        # RunInterrupted with the whole plan completed.
        coordinator = Coordinator(SPEC, port=0, lease_shards=SPEC.num_shards())

        def all_results_then_signal():
            with _hand_client(coordinator.address, "last") as sock:
                lease = _next_lease(sock)
                _send_results(sock, lease, result_frames)
                _wait_for(
                    lambda: coordinator.outcome.completed_shards
                    == SPEC.num_shards()
                )
                coordinator._books.on_signal("SIGINT")
                _close_lease(sock, lease)
                _serve_leases(sock, result_frames)

        thread = threading.Thread(target=all_results_then_signal, daemon=True)
        thread.start()
        with pytest.raises(RunInterrupted):
            coordinator.run()
        thread.join(timeout=30.0)

        def signal_after_last(index, done, total):
            if done == total:
                os.kill(os.getpid(), signal.SIGINT)

        local = RuntimePolicy(on_shard_complete=signal_after_last)
        ((scheme, config),) = SPEC.build_runs()
        with pytest.raises(RunInterrupted):
            simulate(scheme, config, shard_size=SPEC.shard_size, runtime=local)
        for outcome in (coordinator.outcome, local.outcomes[0]):
            assert outcome.interrupted and outcome.signal_name == "SIGINT"
            assert outcome.completed_shards == SPEC.num_shards()
