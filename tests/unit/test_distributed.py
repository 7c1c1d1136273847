"""Unit tests for the distributed coordinator's bookkeeping layers.

Covers the :class:`~repro.runtime.checkpoint.LeaseBook` lease ledger
that schedules local and distributed runs alike (deterministic grant
ordering, expiry + requeue, retry budgets, quarantine/abort, grants
that stay cheap at 100,000 shards), the duplicate/conflict hardening of
:func:`~repro.runtime.checkpoint.load_checkpoint`, the
:class:`~repro.runtime.spec.ExperimentSpec` handshake payload, and the
worker's handshake: any failure before the job is accepted ends
:func:`~repro.runtime.distributed.run_worker` instead of re-dialling,
while a malformed ``lease`` or ``wait`` frame after it is a protocol
error the worker survives.
The network paths are exercised end to end in
``tests/integration/test_distributed_runs.py``.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.faultsim.parallel import plan_shards, select_shard_args
from repro.runtime import load_checkpoint, parse_chaos_spec
from repro.runtime.checkpoint import (
    CheckpointStore,
    LeaseBook,
    RunFingerprint,
    ShardRecord,
    _parse_shard_line,
)
from repro.runtime.distributed import (
    HandshakeError,
    WorkerSummary,
    run_worker,
)
from repro.runtime.protocol import PROTOCOL_VERSION, recv_message, send_message
from repro.runtime.spec import ExperimentSpec, SpecError
from repro.service import CampaignServer, CampaignService


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_book(total=6, **kwargs):
    clock = FakeClock()
    defaults = dict(
        seed=7, lease_shards=2, lease_timeout_s=10.0, max_retries=2,
        backoff_base_s=0.25, backoff_cap_s=8.0, clock=clock,
    )
    defaults.update(kwargs)
    return LeaseBook(total, **defaults), clock


class TestLeaseGranting:
    def test_grants_lowest_indices_first(self):
        book, _ = make_book()
        grants = [book.grant("w").shards for _ in range(3)]
        assert grants == [(0, 1), (2, 3), (4, 5)]
        assert book.grant("w") is None  # everything is leased out

    def test_attempts_start_at_one(self):
        book, _ = make_book()
        assert book.grant("w").attempts == (1, 1)

    def test_complete_drains_to_done(self):
        book, _ = make_book(total=3, lease_shards=3)
        lease = book.grant("w")
        for index in lease.shards:
            assert book.complete(index)
        assert book.done

    def test_duplicate_complete_is_rejected(self):
        book, _ = make_book(total=2, lease_shards=2)
        book.grant("w")
        assert book.complete(0)
        assert not book.complete(0)

    def test_resume_seeds_completed(self):
        book, _ = make_book(total=4, completed=[0, 2])
        assert book.grant("w").shards == (1, 3)


class TestRetryAndExpiry:
    def test_failed_shard_backs_off_then_requeues(self):
        book, clock = make_book(total=1, lease_shards=1)
        book.grant("w")
        assert book.fail(0, "fault") == "retry"
        # Backoff window still closed: nothing is ready.
        assert book.grant("w") is None
        wait = book.next_ready_in()
        assert 0.25 <= wait <= 0.25 * 1.25
        clock.now += wait
        lease = book.grant("w")
        assert lease.shards == (0,)
        assert lease.attempts == (2,)

    def test_backoff_is_deterministic_across_books(self):
        delays = []
        for _ in range(2):
            book, clock = make_book(total=1, lease_shards=1)
            book.grant("w")
            book.fail(0, "fault")
            delays.append(book.retry_at[0] - clock.now)
        assert delays[0] == delays[1]

    def test_expiry_releases_outstanding_shards(self):
        book, clock = make_book(total=4, lease_shards=2)
        lease = book.grant("w")
        book.complete(lease.shards[0])
        assert book.expire() == []  # deadline not reached yet
        clock.now += book.lease_timeout_s + 1.0
        expired = book.expire()
        assert [(lease_.lease_id, indices) for lease_, indices in expired] == [
            (lease.lease_id, (lease.shards[1],))
        ]
        # The caller routes the orphan through fail(); after backoff the
        # shard is re-grantable and pending order stays lowest-first.
        assert book.fail(lease.shards[1], "timeout") == "retry"
        clock.now += 10.0
        assert book.grant("w2").shards == (1, 2)

    def test_requeue_preserves_lowest_first_order(self):
        book, clock = make_book(total=6, lease_shards=2)
        first = book.grant("w")  # (0, 1)
        book.grant("w")          # (2, 3)
        for index in first.shards:
            book.fail(index, "crash")
        clock.now += 10.0
        # 0 and 1 come back before untouched 4 and 5.
        assert book.grant("w").shards == (0, 1)

    def test_stale_failure_after_completion_is_ignored(self):
        book, _ = make_book(total=2, lease_shards=2)
        book.grant("w")
        book.complete(0)
        assert book.fail(0, "crash") == "retry"
        assert 0 not in book.failures
        assert book.pending_count == 0

    def test_release_returns_unfinished_indices(self):
        book, _ = make_book(total=4, lease_shards=4)
        lease = book.grant("w")
        book.complete(0)
        assert book.release(lease.lease_id) == (1, 2, 3)
        assert book.release(lease.lease_id) == ()  # the lease is gone

    def test_requeue_returns_unfinished_shards_uncharged(self):
        book, _ = make_book(total=3, lease_shards=2)
        lease = book.grant("w")  # (0, 1)
        book.complete(0)
        assert book.requeue(lease.lease_id) == (1,)
        assert book.failures == {}
        again = book.grant("w")
        assert again.shards == (1, 2)
        assert again.attempts == (1, 1)

    def test_second_failure_while_backing_off_moves_the_window(self):
        book, clock = make_book(total=2, lease_shards=1)
        book.grant("w")
        book.fail(0, "fault")
        first_window = book.retry_at[0]
        book.fail(0, "fault")  # reported again while still queued
        assert book.retry_at[0] > first_window
        clock.now = first_window
        assert book.grant("w").shards == (1,)
        assert book.grant("w") is None
        assert book.next_ready_in() == pytest.approx(
            book.retry_at[0] - clock.now
        )
        clock.now = book.retry_at[0]
        lease = book.grant("w")
        assert (lease.shards, lease.attempts) == ((0,), (3,))
        assert book.pending_count == 0

    def test_result_while_backing_off_leaves_the_queue(self):
        book, clock = make_book(total=1, lease_shards=1)
        book.grant("w")
        book.fail(0, "timeout")
        assert book.complete(0)  # the late holder's result still counts
        clock.now += 10.0
        assert book.grant("w") is None
        assert book.next_ready_in() is None
        assert book.done


class TestGrantCost:
    def test_hundred_thousand_single_shard_leases(self):
        # The executor takes one lease per shard, and a 1e9-lifetime
        # run at the default shard size is 40,000 shards per scheme:
        # a grant that scans the pending queue makes that quadratic.
        book = LeaseBook(100_000, seed=1, lease_shards=1)
        start = time.perf_counter()
        expected = 0
        while (lease := book.grant("w")) is not None:
            assert lease.shards == (expected,)
            book.complete(expected)
            expected += 1
            if expected % 1_000 == 0:
                assert time.perf_counter() - start < 20.0, expected
        assert expected == 100_000
        assert book.done


class TestRetryBudget:
    def _exhaust(self, book, clock):
        decisions = []
        for _ in range(book.max_retries + 1):
            clock.now += 1000.0
            lease = book.grant("w")
            decisions.append(book.fail(lease.shards[0], "fault"))
        return decisions

    def test_abort_without_keep_going(self):
        book, clock = make_book(total=1, lease_shards=1, max_retries=2)
        assert self._exhaust(book, clock) == ["retry", "retry", "abort"]

    def test_quarantine_with_keep_going(self):
        book, clock = make_book(
            total=1, lease_shards=1, max_retries=2, keep_going=True
        )
        assert self._exhaust(book, clock) == ["retry", "retry", "quarantine"]
        assert book.quarantined == [0]
        assert book.done


class TestCheckpointDuplicateHardening:
    def _write(self, tmp_path, extra_lines):
        fingerprint = RunFingerprint(
            kind="test", seed=1, total=4, shard_size=2,
            config_hash="c", code_version="v",
        )
        path = tmp_path / "dup.ckpt"
        store = CheckpointStore.create(path, fingerprint)
        store.add(0, {"value": "first"})
        store.add(1, {"value": "other"})
        store.flush()
        with open(path, "a", encoding="utf-8") as fh:
            for line in extra_lines:
                fh.write(line + "\n")
        return path

    def test_identical_redelivery_counts_as_duplicate(self, tmp_path):
        dup = ShardRecord(index=0, payload={"value": "first"}).to_line()
        loaded = load_checkpoint(self._write(tmp_path, [dup]))
        assert loaded.duplicates == 1
        assert loaded.conflicts == 0
        assert loaded.discarded == 0
        assert loaded.records[0].payload == {"value": "first"}

    def test_conflicting_record_keeps_first_and_is_counted(self, tmp_path):
        conflict = ShardRecord(index=0, payload={"value": "evil"}).to_line()
        loaded = load_checkpoint(self._write(tmp_path, [conflict]))
        assert loaded.conflicts == 1
        assert loaded.duplicates == 0
        # First valid record wins deterministically.
        assert loaded.records[0].payload == {"value": "first"}

    def test_reads_fingerprint_records_and_discards(self, tmp_path):
        loaded = load_checkpoint(self._write(tmp_path, []))
        assert isinstance(loaded.fingerprint, dict)
        assert sorted(loaded.records) == [0, 1]
        assert loaded.discarded == 0

    def test_corrupt_tail_still_discarded_after_duplicates(self, tmp_path):
        dup = ShardRecord(index=1, payload={"value": "other"}).to_line()
        loaded = load_checkpoint(
            self._write(tmp_path, [dup, '{"record": "shard", "broken'])
        )
        assert loaded.duplicates == 1
        assert loaded.discarded == 1

    def test_resume_surfaces_dedup_counters(self, tmp_path):
        fingerprint = RunFingerprint(
            kind="test", seed=1, total=4, shard_size=2,
            config_hash="c", code_version="v",
        )
        conflict = ShardRecord(index=0, payload={"value": "evil"}).to_line()
        path = self._write(tmp_path, [conflict])
        loaded = load_checkpoint(path)
        assert (loaded.conflicts, loaded.duplicates) == (1, 0)
        CheckpointStore.resume(path, fingerprint)
        # The rewritten file is clean: one record per index.
        reloaded = load_checkpoint(path)
        assert reloaded.conflicts == 0
        assert reloaded.records[0].payload == {"value": "first"}


class TestRecordTelemetryValidation:
    """The coordinator folds a record's telemetry, so its types are checked."""

    @pytest.mark.parametrize(
        "metrics, trace",
        [([1], None), ("counters", None), (None, {"event": "x"}), (None, 3)],
    )
    def test_digest_valid_record_with_bad_telemetry_is_rejected(
        self, metrics, trace
    ):
        line = ShardRecord(0, {"sum": 1}, metrics, trace).to_line()
        assert _parse_shard_line(json.loads(line)) is None

    def test_object_metrics_and_list_trace_are_accepted(self):
        record = ShardRecord(
            0, {"sum": 1}, {"counters": {"c": 1}}, [{"event": "x"}]
        )
        assert _parse_shard_line(json.loads(record.to_line())) == record


class TestJobSpec:
    """The ``job`` frame's spec is the one :class:`ExperimentSpec`."""

    def test_round_trips_through_wire_dict(self):
        spec = ExperimentSpec(
            schemes=("xed",), systems=10_000, shard_size=2_500,
            seed=11, years=5.0, scaling_rate=0.1, scrub_hours=24.0,
        )
        wire = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(wire) == spec

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(SpecError, match="unknown scheme"):
            ExperimentSpec.from_dict(
                {"schemes": ["rot13"], "systems": 100, "shard_size": 50}
            )

    def test_num_shards_matches_plan(self):
        spec = ExperimentSpec(
            schemes=("xed",), systems=10_000, shard_size=3_000
        )
        assert spec.num_shards() == len(plan_shards(10_000, 3_000)) == 4


class TestSelectShardArgs:
    def test_selects_by_global_index(self):
        plan = [("a",), ("b",), ("c",)]
        assert select_shard_args(plan, [2, 0]) == [("c",), ("a",)]

    def test_out_of_plan_index_is_rejected(self):
        with pytest.raises(ValueError, match="outside plan"):
            select_shard_args([("a",)], [1])


class TestNetworkChaosVerbs:
    def test_parse_spec_network_verbs(self):
        policy = parse_chaos_spec(
            "drop=1;delay=2;duplicate=3;partition=4;delay-s=0.5"
        )
        assert policy.drop_shards == (1,)
        assert policy.delay_shards == (2,)
        assert policy.duplicate_shards == (3,)
        assert policy.partition_shards == (4,)
        assert policy.delay_s == 0.5

    def test_verbs_trigger_on_first_attempt_only_by_default(self):
        policy = parse_chaos_spec("drop=1;partition=2")
        assert policy.should_drop(1, 1)
        assert not policy.should_drop(1, 2)
        assert policy.should_partition(2, 1)
        assert not policy.should_partition(2, 2)
        assert not policy.should_drop(0, 1)


class _FakeCoordinator:
    """A listening socket answering a worker's first frames with ``replies``.

    The first reply answers the ``hello``, the next the frame after it,
    and so on.  It counts the connections it accepts and keeps every
    frame a worker sends (the ``hello`` included) until the worker
    closes.  With ``once`` it stops listening after one connection, so
    a re-dial is refused.
    """

    def __init__(self, *replies, once=False):
        self.replies = replies
        self.once = once
        self.connections = 0
        self.frames = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed by the test, or after one connection
            self.connections += 1
            if self.once:
                self._sock.close()
            with conn:
                conn.settimeout(10.0)
                try:
                    for reply in self.replies:
                        self.frames.append(recv_message(conn))
                        send_message(conn, reply)
                    while (frame := recv_message(conn)) is not None:
                        self.frames.append(frame)
                except OSError:
                    pass

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        except OSError:
            pass
        self._sock.close()
        self._thread.join(10.0)
        assert not self._thread.is_alive()


def _run_worker_bounded(address, bound_s=15.0):
    """Run a worker in a thread; what it raised or returned, within
    ``bound_s``."""
    ended = {}

    def serve():
        try:
            ended["summary"] = run_worker(
                *address, worker_id="w1", connect_timeout_s=1.0
            )
        except Exception as exc:  # noqa: BLE001 - handed to the test
            ended["error"] = exc

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    thread.join(bound_s)
    assert not thread.is_alive(), "the worker is still re-dialling"
    return ended.get("error", ended.get("summary"))


def _job(spec, fingerprint=None):
    """A ``job`` frame carrying ``spec`` and ``fingerprint`` as given."""
    return {
        "type": "job", "protocol": PROTOCOL_VERSION,
        "spec": spec, "fingerprint": fingerprint, "obs": False,
    }


@pytest.mark.timeout(60)
class TestHandshakeEndsTheWorker:
    """A worker whose handshake fails stops instead of re-dialling."""

    def test_refused_hello_is_one_connection(self):
        fake = _FakeCoordinator({"type": "error", "reason": "go away"})
        try:
            error = _run_worker_bounded(fake.address)
        finally:
            fake.close()
        assert isinstance(error, HandshakeError)
        assert fake.connections == 1
        assert "worker w1" in str(error) and "go away" in str(error)
        assert f"coordinator 127.0.0.1:{fake.address[1]}" in str(error)

    def test_repro_work_exits_2_on_a_refused_hello(self, capsys):
        fake = _FakeCoordinator({"type": "error", "reason": "go away"})
        try:
            code = main([
                "work", "--coordinator", f"127.0.0.1:{fake.address[1]}",
                "--worker-id", "w1", "--connect-timeout", "5",
            ])
        finally:
            fake.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: handshake of worker w1")
        assert "go away" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_http_server_is_one_connection(self, tmp_path):
        class CountingServer(CampaignServer):
            connections = 0

            def get_request(self):
                request = super().get_request()
                self.connections += 1
                return request

        server = CountingServer(("127.0.0.1", 0), CampaignService(tmp_path))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            error = _run_worker_bounded(server.server_address[:2])
        finally:
            server.shutdown()
            server.server_close()
        assert isinstance(error, HandshakeError)
        assert server.connections == 1

    @pytest.mark.parametrize(
        "spec", [None, {"schemes": ["rot13"], "systems": 100}],
        ids=["missing-spec", "unknown-scheme"],
    )
    def test_rejected_spec_gets_an_error_frame(self, spec):
        fake = _FakeCoordinator(_job(spec))
        try:
            error = _run_worker_bounded(fake.address)
        finally:
            fake.close()
        assert isinstance(error, HandshakeError)
        assert fake.connections == 1
        assert [f["type"] for f in fake.frames] == ["hello", "error"]

    def test_fingerprint_mismatch_names_both_sides(self):
        spec = ExperimentSpec(schemes=("xed",), systems=1_000, shard_size=500)
        (theirs,) = spec.run_fingerprints()
        skewed = dict(theirs.to_dict(), code_version="0.0.1")
        fake = _FakeCoordinator(_job(spec.to_dict(), skewed))
        try:
            error = _run_worker_bounded(fake.address)
        finally:
            fake.close()
        assert isinstance(error, HandshakeError)
        assert fake.connections == 1
        assert [f["type"] for f in fake.frames] == ["hello", "error"]
        assert (
            "code_version: worker='1.0.0' coordinator='0.0.1'" in str(error)
        )
        assert fake.frames[1]["reason"].startswith("fingerprint mismatch")


@pytest.mark.timeout(60)
class TestWorkerValidatesFrames:
    """A malformed frame past the handshake is a protocol error: the
    worker re-dials, and with the coordinator gone ends undrained."""

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "lease", "lease_id": 0, "shards": [99], "attempts": [1]},
            {"type": "lease", "lease_id": 0, "shards": 3, "attempts": [1]},
            {"type": "wait", "delay_s": -1},
        ],
        ids=["shard-outside-plan", "shards-not-a-list", "negative-wait"],
    )
    def test_malformed_frame_ends_the_connection(self, frame):
        spec = ExperimentSpec(schemes=("xed",), systems=2_000, shard_size=500)
        (fingerprint,) = spec.run_fingerprints()
        assert spec.num_shards() == 4
        fake = _FakeCoordinator(
            _job(spec.to_dict(), fingerprint.to_dict()), frame, once=True
        )
        try:
            summary = _run_worker_bounded(fake.address)
        finally:
            fake.close()
        assert isinstance(summary, WorkerSummary), summary
        assert not summary.drained
        assert (summary.shards_completed, summary.reconnects) == (0, 0)
        assert [f["type"] for f in fake.frames] == ["hello", "ready"]
