"""HTTP surface of the campaign service, over a real loopback socket.

One in-process :class:`CampaignServer` on an ephemeral port serves the
whole module; tests drive it with ``urllib`` exactly as an external
client would.  Covers every endpoint's happy path and its error
contract (400 malformed/invalid specs, 404 unknowns, 409 not-ready
results, 503 draining readiness), plus spec validation rules that
guard the cache identity.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    CampaignService,
    ExperimentSpec,
    ServiceSpecError,
    create_server,
)

SPEC = {"schemes": ["xed"], "systems": 400, "shard_size": 200, "seed": 5}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    service = CampaignService(tmp_path_factory.mktemp("service"))
    srv = create_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    service.shutdown(timeout=5.0)


@pytest.fixture(scope="module")
def client(server):
    base = f"http://127.0.0.1:{server.server_address[1]}"

    def request(method, path, body=None):
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        req = urllib.request.Request(base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    return request


def _poll_done(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, raw = client("GET", f"/v1/jobs/{job_id}")
        doc = json.loads(raw)
        if doc["state"] in ("done", "failed"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestEndpoints:
    def test_health_and_readiness(self, client):
        status, raw = client("GET", "/healthz")
        assert status == 200 and json.loads(raw)["status"] == "ok"
        status, raw = client("GET", "/readyz")
        assert status == 200 and json.loads(raw)["status"] == "ready"

    def test_submit_execute_fetch_roundtrip(self, client):
        status, raw = client("POST", "/v1/jobs", SPEC)
        assert status == 202
        submitted = json.loads(raw)
        assert submitted["disposition"] == "created"
        job_id = submitted["job_id"]
        doc = _poll_done(client, job_id)
        assert doc["state"] == "done"
        assert doc["error"] is None
        progress = doc["progress"]
        assert progress["completed_shards"] == progress["total_shards"] == 2
        # Scoped per-job telemetry came back with the job.
        assert doc["metrics"] is not None
        status, result = client("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200
        envelope = json.loads(result)
        assert envelope["fingerprint"] == submitted["fingerprint"]
        body = envelope["body"]
        assert body["table"].startswith("400 systems, 7 years")
        assert body["results"][0]["scheme_name"].startswith("XED")
        assert body["provenance"]["complete"] is True
        # The cache endpoint serves the very same bytes.
        status, cached = client(
            "GET", f"/v1/cache/{submitted['fingerprint']}"
        )
        assert status == 200
        assert cached == result

    def test_result_before_done_is_409(self, client, server):
        # Submit through the service with a spec large enough that we
        # can observe the pending window via the public API contract --
        # simpler: ask for an unknown-but-queued state by submitting
        # and asking immediately; if the executor already won the race,
        # the 409 contract is still proven by the failed/unknown paths
        # below, so only assert when we actually caught it pending.
        status, raw = client(
            "POST", "/v1/jobs",
            {**SPEC, "systems": 4_000, "shard_size": 200, "seed": 77},
        )
        job_id = json.loads(raw)["job_id"]
        status, raw = client("GET", f"/v1/jobs/{job_id}/result")
        if status == 409:
            assert "not ready" in json.loads(raw)["error"]
        _poll_done(client, job_id)
        status, _ = client("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200

    def test_unknown_job_is_404(self, client):
        status, raw = client("GET", "/v1/jobs/job-99999999")
        assert status == 404
        status, raw = client("GET", "/v1/jobs/job-99999999/result")
        assert status == 404

    def test_unknown_cache_entry_is_404(self, client):
        status, _ = client("GET", "/v1/cache/" + "0" * 64)
        assert status == 404

    def test_invalid_cache_fingerprint_is_400(self, client):
        status, _ = client("GET", "/v1/cache/not-hex!")
        assert status == 400

    def test_non_object_body_is_400(self, client):
        status, _ = client("POST", "/v1/jobs", "not an object")
        assert status == 400
        status, _ = client("POST", "/v1/jobs", [1, 2, 3])
        assert status == 400

    def test_invalid_spec_is_400_with_reason(self, client):
        status, raw = client("POST", "/v1/jobs", {"schemes": ["bogus"]})
        assert status == 400
        assert "unknown scheme" in json.loads(raw)["error"]

    def test_unknown_endpoint_is_404(self, client):
        assert client("GET", "/v1/nope")[0] == 404
        assert client("POST", "/v1/nope", {})[0] == 404

    def test_stats_counters_are_flat_and_monotonic(self, client):
        status, raw = client("GET", "/v1/stats")
        assert status == 200
        stats = json.loads(raw)
        for key in (
            "jobs.submitted", "jobs.executed", "jobs.coalesced",
            "jobs.failed", "cache.hits", "cache.misses",
            "cache.corruptions", "cache.stores",
        ):
            assert isinstance(stats[key], int)
        assert stats["jobs.executed"] >= 1


class TestSpecValidation:
    def test_unknown_key_rejected(self):
        for key, value in (
            ("scrub_hourss", 6),
            ("ecc_backend", "batched"),
            ("faultsim_backend", "vectorized"),
        ):
            with pytest.raises(
                ServiceSpecError, match=f"unknown spec key\\(s\\): {key}"
            ):
                ExperimentSpec.from_dict({**SPEC, key: value})

    def test_empty_schemes_rejected(self):
        with pytest.raises(ServiceSpecError, match="non-empty"):
            ExperimentSpec.from_dict({"schemes": []})

    def test_analytical_backend_rejected(self):
        with pytest.raises(ServiceSpecError, match="faultsim_backend"):
            ExperimentSpec.from_dict(
                {**SPEC, "faultsim_backend": "analytical"}
            )

    def test_bad_numerics_rejected(self):
        with pytest.raises(ServiceSpecError):
            ExperimentSpec.from_dict({**SPEC, "systems": 0})
        with pytest.raises(ServiceSpecError):
            ExperimentSpec.from_dict({**SPEC, "years": -1})
        with pytest.raises(ServiceSpecError):
            ExperimentSpec.from_dict({**SPEC, "workers": 0})
        with pytest.raises(ServiceSpecError):
            ExperimentSpec.from_dict({**SPEC, "scrub_hours": 0})

    def test_invalid_chaos_spec_rejected(self):
        with pytest.raises(ServiceSpecError, match="chaos"):
            ExperimentSpec.from_dict({**SPEC, "chaos": "nonsense=1"})

    def test_shard_size_is_resolved_into_identity(self):
        # An omitted shard_size resolves to the engine default *before*
        # fingerprinting, so "default" and "explicit default" are the
        # same experiment.
        from repro.faultsim.simulator import DEFAULT_SHARD_SIZE

        implicit = ExperimentSpec.from_dict({"schemes": ["xed"]})
        explicit = ExperimentSpec.from_dict(
            {"schemes": ["xed"], "shard_size": DEFAULT_SHARD_SIZE}
        )
        assert implicit.shard_size == DEFAULT_SHARD_SIZE
        assert implicit.fingerprint() == explicit.fingerprint()
