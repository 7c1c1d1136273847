"""Chaos-hardened service behaviour: crashes, resumes, corrupt caches.

The service's promise is not "jobs usually finish" but "a job's result
is bit-identical no matter what its execution survived".  These tests
inject real failures through the same ``--chaos`` machinery the CLI
exposes:

* a worker process is **killed mid-campaign** (``chaos=crash=...`` with
  a real ``os._exit`` in a pool worker); the job must pass through the
  observable ``retrying`` state, record the crash in its provenance,
  and still produce the same ``result_digest`` as an undisturbed run
  of the same spec -- the golden-digest contract;
* a **cache entry is corrupted on disk**; the service must detect it on
  read, evict rather than serve it, and recompute to the same digest.
"""

import json
import time

import pytest

from repro.service import CampaignService

#: 4 shards of 2,000 systems; shard 1 crashes its worker on attempt 1.
CHAOS_SPEC = {
    "schemes": ["xed"],
    "systems": 8_000,
    "shard_size": 2_000,
    "seed": 13,
    "workers": 2,
    "chaos": "crash=1",
}

#: The same experiment, undisturbed (identical fingerprint: ``workers``
#: and ``chaos`` are execution knobs, outside the cache identity).
CLEAN_SPEC = {
    k: v for k, v in CHAOS_SPEC.items() if k not in ("workers", "chaos")
}


def _poll_terminal(service, job_id, timeout=120.0):
    """Poll the job's status document until it is done or failed."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = service.job_status(job_id)
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def _run_to_done(service, spec):
    status, submitted = service.submit(spec)
    assert status == 202
    job = service.store.get(submitted["job_id"])
    assert _poll_terminal(service, job.job_id)["state"] == "done", job.error
    entry = service.cache.get(submitted["fingerprint"])
    assert entry is not None
    return job, json.loads(entry)["body"]


@pytest.fixture()
def service(tmp_path):
    svc = CampaignService(tmp_path / "data")
    svc.start()
    yield svc
    svc.shutdown(timeout=10.0)


class TestChaosRecovery:
    def test_killed_worker_retries_and_matches_golden_digest(
        self, tmp_path, service
    ):
        # Golden digest from an undisturbed run in a separate service
        # instance (separate data dir, so nothing is shared but code).
        clean = CampaignService(tmp_path / "clean")
        clean.start()
        try:
            _, clean_body = _run_to_done(clean, CLEAN_SPEC)
        finally:
            clean.shutdown(timeout=10.0)

        job, chaos_body = _run_to_done(service, CHAOS_SPEC)

        # The crash actually happened and was survived observably.
        assert "retrying" in job.states_seen
        assert job.retries >= 1
        runs = chaos_body["provenance"]["runs"]
        assert sum(run["crashes"] for run in runs) >= 1
        assert chaos_body["provenance"]["complete"] is True

        # Same fingerprint, same science: the deterministic core --
        # and its digest -- are identical to the undisturbed run's.
        assert chaos_body["fingerprint"] == clean_body["fingerprint"]
        assert chaos_body["result_digest"] == clean_body["result_digest"]
        assert chaos_body["table"] == clean_body["table"]
        assert chaos_body["results"] == clean_body["results"]

    def test_checkpoints_are_cleaned_up_after_success(self, service):
        job, _ = _run_to_done(service, CHAOS_SPEC)
        assert not (service.checkpoint_root / job.fingerprint).exists()


class TestCacheCorruption:
    def test_corrupt_entry_is_evicted_never_served(self, service):
        job, body = _run_to_done(service, CLEAN_SPEC)
        path = service.cache.path_for(job.fingerprint)
        # Flip bytes inside the stored entry (keeps it valid JSON-ish
        # length-wise but breaks the digest).
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"table"', b'"tabel"', 1))
        before = service.cache.stats()["corruptions"]
        assert service.cache.get(job.fingerprint) is None
        assert service.cache.stats()["corruptions"] == before + 1
        assert not path.exists(), "corrupt entry must be evicted"

    def test_recompute_after_corruption_matches_digest(self, service):
        job, first_body = _run_to_done(service, CLEAN_SPEC)
        path = service.cache.path_for(job.fingerprint)
        path.write_text("{}", encoding="utf-8")
        # Resubmission detects the dead entry and requeues the same job.
        status, again = service.submit(CLEAN_SPEC)
        assert again["job_id"] == job.job_id
        assert again["disposition"] == "requeued"
        assert _poll_terminal(service, job.job_id)["state"] == "done"
        second_body = json.loads(service.cache.get(job.fingerprint))["body"]
        assert second_body["result_digest"] == first_body["result_digest"]
        assert second_body["table"] == first_body["table"]

    def test_truncated_entry_is_treated_as_corrupt(self, service):
        job, _ = _run_to_done(service, CLEAN_SPEC)
        path = service.cache.path_for(job.fingerprint)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        assert service.cache.get(job.fingerprint) is None
        assert not path.exists()
