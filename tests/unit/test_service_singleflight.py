"""Single-flight submission: N identical submissions, one execution.

The campaign service's core concurrency promise: however many clients
submit the same experiment concurrently, exactly one execution runs
and every submitter is handed the same job.  These tests drive
:class:`CampaignService` with an injected runner (a countable stub
that blocks until released, so submissions provably race a job that is
*in flight*, not merely queued) through real threads -- 8 of them,
per the acceptance bar.
"""

import threading

import pytest

from repro.service import CampaignService, ExperimentSpec

SPEC = {"schemes": ["xed"], "systems": 100, "shard_size": 50}
OTHER = {"schemes": ["chipkill"], "systems": 100, "shard_size": 50}


class _BlockingRunner:
    """Injectable runner that counts executions and blocks on a gate."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()
        #: Released once per finished execution.
        self.finished = threading.Semaphore(0)
        self.lock = threading.Lock()
        self.executions = []

    def __call__(self, service, job) -> None:
        with self.lock:
            self.executions.append(job.fingerprint)
        self.started.set()
        assert self.gate.wait(timeout=30.0), "test forgot to open the gate"
        service.cache.put(job.fingerprint, {"stub": job.fingerprint})
        service.store.finish(job)
        self.finished.release()


@pytest.fixture()
def runner():
    return _BlockingRunner()


@pytest.fixture()
def service(tmp_path, runner):
    svc = CampaignService(tmp_path / "data", runner=runner)
    svc.start()
    yield svc
    runner.gate.set()
    svc.shutdown(timeout=5.0)


class TestSingleFlight:
    def test_eight_concurrent_submissions_one_execution(
        self, service, runner
    ):
        responses = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            status, body = service.submit(SPEC)
            with lock:
                responses.append((status, body))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(responses) == 8
        assert all(status == 202 for status, _ in responses)
        job_ids = {body["job_id"] for _, body in responses}
        assert len(job_ids) == 1, "all submitters share one job"
        # Release the (single) execution and let it finish.
        runner.gate.set()
        job = service.store.get(job_ids.pop())
        assert runner.finished.acquire(timeout=30.0)
        assert job.state == "done"
        assert len(runner.executions) == 1, "exactly one execution ran"
        # 7 of the 8 submissions were coalesced onto the first.
        assert service.stats()["jobs.coalesced"] == 7

    def test_submission_races_in_flight_job(self, service, runner):
        status, first = service.submit(SPEC)
        assert status == 202 and first["disposition"] == "created"
        # Wait until the job is genuinely *running* inside the runner.
        assert runner.started.wait(timeout=30.0)
        status, second = service.submit(SPEC)
        assert second["job_id"] == first["job_id"]
        assert second["disposition"] == "coalesced"
        assert len(runner.executions) == 1

    def test_distinct_fingerprints_execute_independently(
        self, service, runner
    ):
        _, a = service.submit(SPEC)
        _, b = service.submit(OTHER)
        assert a["job_id"] != b["job_id"]
        assert a["fingerprint"] != b["fingerprint"]
        runner.gate.set()
        for _ in (a, b):
            assert runner.finished.acquire(timeout=30.0)
        for body in (a, b):
            assert service.store.get(body["job_id"]).state == "done"
        assert sorted(runner.executions) == sorted(
            [a["fingerprint"], b["fingerprint"]]
        )

    def test_done_job_absorbs_resubmission_via_cache(self, service, runner):
        runner.gate.set()
        _, first = service.submit(SPEC)
        job = service.store.get(first["job_id"])
        assert runner.finished.acquire(timeout=30.0)
        _, again = service.submit(SPEC)
        assert again["job_id"] == first["job_id"]
        assert again["disposition"] == "cached"
        assert len(runner.executions) == 1

    def test_evicted_cache_requeues_same_job(self, service, runner):
        runner.gate.set()
        _, first = service.submit(SPEC)
        job = service.store.get(first["job_id"])
        assert runner.finished.acquire(timeout=30.0)
        # Corrupt the stored entry; resubmission must recompute under
        # the same job identity.
        path = service.cache.path_for(first["fingerprint"])
        path.write_text("garbage", encoding="utf-8")
        _, again = service.submit(SPEC)
        assert again["job_id"] == first["job_id"]
        assert again["disposition"] == "requeued"
        assert runner.finished.acquire(timeout=30.0)
        assert len(runner.executions) == 2
        assert service.cache.get(first["fingerprint"]) is not None


class TestFingerprintIdentity:
    def test_execution_knobs_do_not_change_identity(self):
        base = ExperimentSpec.from_dict(SPEC).fingerprint()
        with_workers = ExperimentSpec.from_dict(
            {**SPEC, "workers": 4}
        ).fingerprint()
        with_chaos = ExperimentSpec.from_dict(
            {**SPEC, "chaos": "crash=1"}
        ).fingerprint()
        assert base == with_workers == with_chaos

    def test_result_knobs_change_identity(self):
        base = ExperimentSpec.from_dict(SPEC).fingerprint()
        assert ExperimentSpec.from_dict(
            {**SPEC, "seed": 99}
        ).fingerprint() != base
        assert ExperimentSpec.from_dict(
            {**SPEC, "shard_size": 25}
        ).fingerprint() != base
        assert ExperimentSpec.from_dict(
            {**SPEC, "scrub_hours": 12.0}
        ).fingerprint() != base
