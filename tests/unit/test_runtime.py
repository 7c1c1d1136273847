"""Unit tests for the fault-tolerant campaign runtime.

Covers the checkpoint file format (digests, atomicity, tail
discarding, fingerprint validation), the chaos spec parser, and the
in-process (``workers=1``) resilient executor: retry with backoff,
quarantine under ``keep_going``, SIGINT draining, and the central
claim -- a crashed/interrupted run resumed from its checkpoint merges
to a bit-identical result with equal telemetry.  The pool-based
(``workers=4``) recovery paths live in ``test_chaos.py``.  Monte-Carlo
failures reach telemetry as per-shard counter totals, at 1 and 4
workers, so checkpoint records and the trace stay small however many
systems fail.
"""

import hashlib
import json
import os
import signal

import pytest

from repro.faultsim.schemes import EccDimmScheme, XedScheme
from repro.faultsim.simulator import (
    MonteCarloConfig,
    ReliabilityResult,
    reliability_fingerprint,
    simulate,
)
from repro.obs import OBS, TelemetryScope
from repro.runtime import (
    ChaosPolicy,
    ChaosSpecError,
    CheckpointError,
    CheckpointMismatch,
    CheckpointStore,
    RunFingerprint,
    RunInterrupted,
    RunOutcome,
    RuntimePolicy,
    ShardFailure,
    config_digest,
    corrupt_checkpoint_tail,
    current_policy,
    load_checkpoint,
    parse_chaos_spec,
    run_resilient,
    use_policy,
)
from repro.runtime.checkpoint import CHECKPOINT_VERSION, ShardRecord

CFG = MonteCarloConfig(num_systems=30_000, seed=11)
SHARD_SIZE = 10_000

#: Event kinds emitted by the runtime itself -- excluded when comparing
#: engine telemetry between an uninterrupted and a recovered run.
RUNTIME_KINDS = {
    "shard_retried", "shard_quarantined", "checkpoint_written",
    "run_signalled",
}


def _fingerprint(**overrides) -> RunFingerprint:
    fields = dict(
        kind="test.run", seed=1, total=30, shard_size=10,
        config_hash=config_digest({"x": 1}), code_version="1.0.0",
    )
    fields.update(overrides)
    return RunFingerprint(**fields)


def _sum_shard(start, count):
    """Trivial deterministic shard: sums its global index range."""
    return {"start": start, "sum": sum(range(start, start + count))}


def _shard_args(total=30, size=10):
    return [(start, size) for start in range(0, total, size)]


def _engine_counters(state):
    return {
        k: v for k, v in state["counters"].items()
        if k.startswith("faultsim.")
    }


def _engine_events(trace):
    return {
        k: v for k, v in trace.counts_by_kind().items()
        if k not in RUNTIME_KINDS
    }


class _FaultyXed(XedScheme):
    """XED whose ``evaluate`` always raises: a bug inside the shard."""

    def evaluate(self, faults, rng):
        raise ValueError("evaluate is broken")


class _ExitOnceXed(XedScheme):
    """XED whose first ``evaluate`` in any process kills that process.

    The first caller claims ``marker`` (``O_CREAT | O_EXCL``) and exits
    the way an OOM kill does; every later call finds the marker taken
    and evaluates normally.
    """

    def __init__(self, marker):
        super().__init__()
        self.marker = str(marker)

    def evaluate(self, faults, rng):
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return super().evaluate(faults, rng)
        os.close(fd)
        os._exit(9)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _two_pass_line(body):
    """A checkpoint line built the long way: digest the canonical body,
    then encode the body again with its digest added."""
    digest = hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()
    return _canonical(dict(body, digest=digest))


@pytest.fixture
def obs_enabled():
    """Enable observability for a test and reset it afterwards."""
    OBS.reset()
    OBS.enable()
    OBS.progress_enabled = False
    yield OBS
    OBS.reset()
    OBS.disable()


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        fp = _fingerprint()
        store = CheckpointStore.create(tmp_path / "run.ckpt", fp)
        store.add(0, {"sum": 1}, metrics={"counters": {"c": 1}})
        store.add(2, {"sum": 3})
        loaded_fp, records, discarded = load_checkpoint(tmp_path / "run.ckpt")
        assert loaded_fp == fp.to_dict()
        assert sorted(records) == [0, 2]
        assert records[0].payload == {"sum": 1}
        assert records[0].metrics == {"counters": {"c": 1}}
        assert records[2].metrics is None
        assert discarded == 0

    def test_create_flushes_header_immediately(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore.create(path, _fingerprint())
        assert path.exists()
        _, records, _ = load_checkpoint(path)
        assert records == {}

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore.create(tmp_path / "run.ckpt", _fingerprint())
        store.add(0, {"sum": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]

    def test_corrupt_tail_discarded_not_fatal(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        for i in range(3):
            store.add(i, {"sum": i})
        assert corrupt_checkpoint_tail(path, nbytes=8, seed=3) > 0
        _, records, discarded = load_checkpoint(path)
        assert sorted(records) == [0, 1]
        assert discarded == 1

    def test_truncated_tail_discarded(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        store.add(0, {"sum": 1})
        store.add(1, {"sum": 2})
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 20])  # tear the last record
        _, records, discarded = load_checkpoint(path)
        assert sorted(records) == [0]
        assert discarded == 1

    def test_resume_rewrites_corrupt_tail(self, tmp_path):
        path = tmp_path / "run.ckpt"
        fp = _fingerprint()
        store = CheckpointStore.create(path, fp)
        for i in range(2):
            store.add(i, {"sum": i})
        corrupt_checkpoint_tail(path, seed=1)
        resumed = CheckpointStore.resume(path, fp)
        assert resumed.discarded == 1
        assert sorted(resumed.completed) == [0]
        # the rewritten file is clean again
        _, records, discarded = load_checkpoint(path)
        assert sorted(records) == [0] and discarded == 0

    def test_fingerprint_mismatch_refused_with_field_diff(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore.create(path, _fingerprint(seed=1))
        with pytest.raises(CheckpointMismatch) as exc:
            CheckpointStore.resume(path, _fingerprint(seed=2))
        assert "seed" in str(exc.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_text("")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        CheckpointStore.create(path, _fingerprint())
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99  # digest no longer matches
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_duplicate_index_keeps_first(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = CheckpointStore.create(path, _fingerprint())
        store.add(0, {"sum": 1})
        with path.open("a") as fh:
            fh.write(ShardRecord(0, {"sum": 999}).to_line() + "\n")
        _, records, _ = load_checkpoint(path)
        assert records[0].payload == {"sum": 1}

    @pytest.mark.parametrize(
        "record",
        [
            ShardRecord(0, {"sum": 1}),
            ShardRecord(
                3,
                {"kinds": ["due", "sdc"], "failure_times_hours": [1.5, 2.0]},
                metrics={"counters": {"faultsim.failures": 2}},
                trace=[{"event": "span", "name": "shard", "ts": 0.25}],
            ),
            ShardRecord(
                7,
                {"scheme_name": "XED (9 chips) \u00b5s"},
                trace=[{"event": "note", "text": "r\u00e9sum\u00e9 \u2013 ok"}],
            ),
        ],
        ids=["bare", "metrics-and-trace", "non-ascii"],
    )
    def test_shard_line_equals_two_pass_encoding(self, record):
        body = {
            "record": "shard", "index": record.index,
            "payload": record.payload, "metrics": record.metrics,
            "trace": record.trace,
        }
        assert record.to_line() == _two_pass_line(body)

    def test_header_line_equals_two_pass_encoding(self, tmp_path):
        fp = _fingerprint(kind="reliability.XED (9 chips)")
        path = tmp_path / "run.ckpt"
        CheckpointStore.create(path, fp)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == _two_pass_line(
            {
                "record": "header",
                "version": CHECKPOINT_VERSION,
                "fingerprint": fp.to_dict(),
            }
        )

    def test_config_digest_is_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_slug_is_filesystem_safe(self):
        slug = _fingerprint(kind="reliability.XED (9 chips)").slug()
        assert "/" not in slug and " " not in slug and "(" not in slug


class TestChaosSpec:
    def test_full_spec(self):
        policy = parse_chaos_spec("crash=2,5;hang=3;fault=0;attempts=2;hang-s=30")
        assert policy.crash_shards == (2, 5)
        assert policy.hang_shards == (3,)
        assert policy.fault_shards == (0,)
        assert policy.trigger_attempts == 2
        assert policy.hang_s == 30.0

    def test_triggers_respect_attempts(self):
        policy = parse_chaos_spec("crash=1;attempts=2")
        assert policy.should_crash(1, 1) and policy.should_crash(1, 2)
        assert not policy.should_crash(1, 3)
        assert not policy.should_crash(0, 1)

    @pytest.mark.parametrize("bad", [
        "crash", "mystery=1", "crash=x", "attempts=0", "hang-s=soon",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ChaosSpecError):
            parse_chaos_spec(bad)


class TestAmbientPolicy:
    def test_nesting_and_restore(self):
        assert current_policy() is None
        outer, inner = RuntimePolicy(), RuntimePolicy()
        with use_policy(outer):
            assert current_policy() is outer
            with use_policy(inner):
                assert current_policy() is inner
            assert current_policy() is outer
        assert current_policy() is None

    def test_outcome_completeness(self):
        outcome = RunOutcome(kind="t", total_shards=4, completed_shards=3)
        assert outcome.completeness == 0.75
        assert RunOutcome(kind="t", total_shards=0).completeness == 1.0


class TestResilientExecutor:
    """run_resilient with a trivial shard function, workers=1."""

    def _run(self, policy, total=30, **kwargs):
        return run_resilient(
            _sum_shard,
            _shard_args(total),
            workers=1,
            fingerprint=_fingerprint(total=total),
            policy=policy,
            encode=lambda r: r,
            decode=lambda p: p,
            **kwargs,
        )

    def test_plain_run_matches_direct_execution(self):
        results, outcome = self._run(RuntimePolicy())
        assert results == [_sum_shard(s, c) for s, c in _shard_args()]
        assert outcome.completed_shards == 3 and outcome.completeness == 1.0

    def test_crash_is_retried_and_result_identical(self):
        policy = RuntimePolicy(
            chaos=ChaosPolicy(crash_shards=(1,)), backoff_base_s=0.01
        )
        results, outcome = self._run(policy)
        assert results == [_sum_shard(s, c) for s, c in _shard_args()]
        assert outcome.crashes == 1 and outcome.retries == 1

    def test_retry_budget_exhausted_raises_shard_failure(self, tmp_path):
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path), max_retries=1,
            chaos=ChaosPolicy(fault_shards=(1,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        with pytest.raises(ShardFailure) as exc:
            self._run(policy)
        assert exc.value.shard_index == 1
        # the checkpoint still holds every shard that completed
        _, records, _ = load_checkpoint(exc.value.checkpoint_path)
        assert 0 in records and 1 not in records

    def test_keep_going_quarantines_and_reports_completeness(self):
        policy = RuntimePolicy(
            keep_going=True, max_retries=1,
            chaos=ChaosPolicy(fault_shards=(1,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        results, outcome = self._run(policy)
        assert len(results) == 2
        assert outcome.quarantined_shards == (1,)
        assert outcome.completeness == pytest.approx(2 / 3)
        assert policy.quarantined_total == 1

    def test_checkpoint_then_resume_is_bit_identical(self, tmp_path):
        reference, _ = self._run(RuntimePolicy())
        # interrupt: permanent fault on shard 2 aborts the run
        failing = RuntimePolicy(
            checkpoint_dir=str(tmp_path), max_retries=0,
            chaos=ChaosPolicy(fault_shards=(2,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        with pytest.raises(ShardFailure):
            self._run(failing)
        # resume: only shard 2 re-runs, merged result identical
        done = []
        resumed = RuntimePolicy(resume_dir=str(tmp_path))
        results, outcome = self._run(resumed, on_shard_done=done.append)
        assert results == reference
        assert outcome.resumed_shards == 2
        assert sorted(done) == [0, 1, 2]

    def test_sigint_drains_checkpoints_and_resumes(self, tmp_path):
        reference, _ = self._run(RuntimePolicy())

        def interrupt_after_first(index):
            if index == 0:
                os.kill(os.getpid(), signal.SIGINT)

        policy = RuntimePolicy(checkpoint_dir=str(tmp_path))
        with pytest.raises(RunInterrupted) as exc:
            self._run(policy, on_shard_done=interrupt_after_first)
        assert exc.value.signal_name == "SIGINT"
        assert policy.outcomes[0].interrupted
        _, records, _ = load_checkpoint(exc.value.checkpoint_path)
        assert 0 in records and len(records) < 3
        # the previous SIGINT handler is restored after the run
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler

        resumed = RuntimePolicy(resume_dir=str(tmp_path))
        results, outcome = self._run(resumed)
        assert results == reference
        assert outcome.resumed_shards == len(records)


class TestRunsWithoutPolicy:
    """The defaults every run gets when no policy is set anywhere."""

    @pytest.mark.timeout(120)
    def test_killed_worker_is_retried(self, tmp_path):
        marker = tmp_path / "killed"
        config = MonteCarloConfig(num_systems=4_000, seed=11)
        result = simulate(
            _ExitOnceXed(marker), config, workers=2, shard_size=1_000
        )
        reference = simulate(XedScheme(), config, workers=1, shard_size=1_000)
        assert marker.exists()
        assert result.failure_times_hours == reference.failure_times_hours
        assert result.kinds == reference.kinds

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_failure_is_chained_to_the_shard_error(self, workers):
        with pytest.raises(ShardFailure) as exc:
            simulate(
                _FaultyXed(), CFG, workers=workers, shard_size=SHARD_SIZE,
                runtime=RuntimePolicy(max_retries=0),
            )
        assert isinstance(exc.value.__cause__, ValueError)


class TestResilientSimulate:
    """The Monte-Carlo engine under a runtime policy, workers=1."""

    def test_ambient_policy_routes_through_executor(self, tmp_path):
        reference = simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path),
            chaos=ChaosPolicy(crash_shards=(1,)), backoff_base_s=0.01,
        )
        with use_policy(policy):
            recovered = simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        assert recovered.failure_times_hours == reference.failure_times_hours
        assert recovered.kinds == reference.kinds
        assert policy.outcomes[0].crashes == 1
        assert policy.outcomes[0].checkpoint_path

    def test_result_payload_roundtrip_is_exact(self):
        result = simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        clone = ReliabilityResult.from_payload(
            json.loads(json.dumps(result.to_payload()))
        )
        assert clone.failure_times_hours == result.failure_times_hours
        assert clone.kinds == result.kinds
        assert clone.num_systems == result.num_systems

    def test_fingerprint_pins_every_behaviour_knob(self):
        base = reliability_fingerprint(XedScheme(), CFG, SHARD_SIZE)
        scrubbed = reliability_fingerprint(
            XedScheme(),
            MonteCarloConfig(num_systems=30_000, seed=11, scrub_hours=24.0),
            SHARD_SIZE,
        )
        assert base.config_hash != scrubbed.config_hash
        assert base.mismatches(scrubbed.to_dict()) == ["config_hash"] or any(
            "config_hash" in d for d in base.mismatches(scrubbed.to_dict())
        )

    def test_crash_resume_preserves_obs_telemetry(self, tmp_path, obs_enabled):
        simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        ref_counters = _engine_counters(OBS.registry.state())
        ref_events = _engine_events(OBS.trace)

        # interrupted run: permanent crash on shard 2, progress checkpointed
        OBS.reset()
        OBS.enable()
        OBS.progress_enabled = False
        failing = RuntimePolicy(
            checkpoint_dir=str(tmp_path), max_retries=0,
            chaos=ChaosPolicy(crash_shards=(2,), trigger_attempts=99),
            backoff_base_s=0.01,
        )
        with use_policy(failing):
            with pytest.raises(ShardFailure):
                simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)

        # fresh process stands in: zeroed OBS, resume from the checkpoint
        OBS.reset()
        OBS.enable()
        OBS.progress_enabled = False
        with use_policy(RuntimePolicy(resume_dir=str(tmp_path))):
            resumed = simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)

        assert _engine_counters(OBS.registry.state()) == ref_counters
        assert _engine_events(OBS.trace) == ref_events
        reference = simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        assert resumed.failure_times_hours == reference.failure_times_hours

    def test_runtime_metrics_flow_through_obs(self, obs_enabled):
        policy = RuntimePolicy(
            chaos=ChaosPolicy(crash_shards=(0,)), backoff_base_s=0.01
        )
        with use_policy(policy):
            simulate(XedScheme(), CFG, shard_size=SHARD_SIZE)
        counters = OBS.registry.state()["counters"]
        assert counters["runtime.worker_crashes"] == 1
        assert counters["runtime.shard_retries"] == 1
        assert counters["runtime.shard_attempts"] == 4
        assert OBS.trace.counts_by_kind().get("shard_retried") == 1

    def test_retry_event_survives_more_failures_than_trace_slots(
        self, tmp_path
    ):
        """The fold must not evict the run's own events.

        ECC-DIMM fails far more systems than the trace holds; a retried
        shard's ``shard_retried`` event still has to reach the export,
        and nothing may be dropped.
        """
        capacity = 256
        policy = RuntimePolicy(
            checkpoint_dir=str(tmp_path),
            chaos=ChaosPolicy(crash_shards=(0,)), backoff_base_s=0.01,
        )
        with TelemetryScope(trace_capacity=capacity) as scope:
            result = simulate(
                EccDimmScheme(), CFG, shard_size=SHARD_SIZE, runtime=policy
            )
        assert result.failures > capacity
        assert policy.outcomes[0].crashes == 1
        assert scope.trace.counts_by_kind().get("shard_retried") == 1
        assert scope.trace.dropped == 0


class TestFailureTelemetry:
    """Monte-Carlo failures are counted per shard, not traced one by one."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("scheme_cls", [EccDimmScheme, XedScheme])
    def test_counters_match_result_and_records_stay_small(
        self, tmp_path, scheme_cls, workers
    ):
        policy = RuntimePolicy(checkpoint_dir=str(tmp_path))
        with TelemetryScope() as scope:
            result = simulate(
                scheme_cls(), CFG, workers=workers, shard_size=SHARD_SIZE,
                runtime=policy,
            )
        counters = scope.snapshot()["counters"]
        assert counters.get("faultsim.failures", 0) == result.failures
        assert counters.get("faultsim.failure.due", 0) == result.due_count
        assert counters.get("faultsim.failure.sdc", 0) == result.sdc_count
        assert "trial_completed" not in scope.trace.counts_by_kind()

        _, records, _ = load_checkpoint(policy.outcomes[0].checkpoint_path)
        assert sorted(records) == [0, 1, 2]
        for record in records.values():
            assert len(record.trace) < 10
            if scheme_cls is EccDimmScheme:
                assert len(record.payload["kinds"]) >= 100
