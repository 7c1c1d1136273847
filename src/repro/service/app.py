"""The campaign service: HTTP API, executor thread, result assembly.

``repro serve`` turns the reliability engine into a long-running
campaign service.  Three moving parts live here:

* :class:`CampaignService` -- the application object.  It owns the
  :class:`~repro.service.jobstore.JobStore` (single-flight submission),
  the :class:`~repro.service.cache.ResultCache` (fingerprint-keyed,
  digest-verified results), and a single daemon **executor thread**
  that drains the queue one job at a time.  One job at a time is a
  feature, not a limitation: each job already parallelises across
  ``spec.workers`` processes, and serialising jobs keeps the host's
  core budget owned by exactly one campaign.
* :class:`CampaignServer` -- a ``ThreadingHTTPServer`` whose handler
  threads only ever do store/cache lookups; all heavy work happens on
  the executor thread.
* ``_ServiceHandler`` -- the route table (see ``docs/serving.md`` for
  the full API contract).

Execution runs on :func:`repro.faultsim.simulate` under a
:class:`~repro.runtime.RuntimePolicy` whose checkpoint directory is
keyed by the job fingerprint -- so a job interrupted by a crash (or a
whole-service restart) resumes from its completed shards, and the
chaos-injection spec exercises exactly that path.  Results are stored
once in the cache and served as those exact bytes forever after;
``result_digest`` inside the body covers only the deterministic core
(fingerprint, table, per-scheme results), never the provenance, so a
retried or resumed recompute provably reproduces the same science even
when its execution history differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro import __version__
from repro.obs import TelemetryScope, get_logger
from repro.runtime.checkpoint import canonical_json, sha256_hex
from repro.service.cache import ResultCache
from repro.service.jobstore import Job, JobStore
from repro.service.spec import ExperimentSpec, ServiceSpecError

__all__ = ["CampaignService", "CampaignServer", "create_server"]

_LOG = get_logger("service")

#: ``Content-Type`` for every response body the service emits.
_JSON = "application/json"


class CampaignService:
    """Application state and job logic behind the HTTP façade.

    ``runner`` is injectable for tests: it receives ``(service, job)``
    and must store a result body in the cache before returning.  The
    default runner executes the spec on the real engine.
    """

    def __init__(
        self,
        data_dir: "str | Path",
        runner: Optional[Callable[["CampaignService", Job], None]] = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.data_dir / "cache")
        self.checkpoint_root = self.data_dir / "checkpoints"
        self.checkpoint_root.mkdir(parents=True, exist_ok=True)
        self.store = JobStore()
        self._runner = runner if runner is not None else _execute_job
        self._lock = threading.Lock()
        self.submitted = 0
        self.coalesced = 0
        self.executed = 0
        self.failed = 0
        self._draining = False
        self._thread = threading.Thread(
            target=self._executor_loop, name="job-executor", daemon=True
        )

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the executor thread (idempotent per service)."""
        if not self._thread.is_alive():
            self._thread.start()

    def shutdown(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work and wait briefly for the executor.

        A job still running after ``timeout`` is abandoned to the
        daemon thread; its fingerprint-keyed checkpoints survive, so
        resubmitting the same spec after a restart resumes from the
        completed shards rather than starting over.
        """
        with self._lock:
            self._draining = True
        self.store.close()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    @property
    def ready(self) -> bool:
        """Whether the service is accepting and executing work."""
        with self._lock:
            draining = self._draining
        return self._thread.is_alive() and not draining

    # -- submission ---------------------------------------------------

    def submit(self, payload: object) -> Tuple[int, Dict[str, object]]:
        """Handle ``POST /v1/jobs``; returns ``(http_status, body)``.

        Single-flight: a spec matching an in-flight job coalesces onto
        it.  A spec matching a *done* job re-verifies the cached entry
        -- if the entry was evicted (corruption) or is missing, the
        same job is requeued for recompute; a failed job resubmission
        also requeues.  The response always carries the job ID, the
        fingerprint, and how the submission was absorbed.
        """
        try:
            spec = ExperimentSpec.from_dict(payload)
        except ServiceSpecError as exc:
            return 400, {"error": str(exc)}
        fingerprint = spec.fingerprint()
        job, created = self.store.submit(spec, fingerprint)
        disposition = "created"
        if not created:
            if job.state == "done":
                if self.cache.get(fingerprint) is None:
                    # The stored result no longer verifies; recompute
                    # under the same job identity.
                    self.store.requeue(job)
                    disposition = "requeued"
                else:
                    disposition = "cached"
            elif job.state == "failed":
                self.store.requeue(job)
                disposition = "requeued"
            else:
                disposition = "coalesced"
        with self._lock:
            self.submitted += 1
            if disposition in ("coalesced", "cached"):
                self.coalesced += 1
        return 202, {
            "job_id": job.job_id,
            "fingerprint": fingerprint,
            "state": job.state,
            "disposition": disposition,
        }

    # -- queries ------------------------------------------------------

    def job_status(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        """Handle ``GET /v1/jobs/<id>``."""
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.to_status()

    def job_result(self, job_id: str) -> Tuple[int, "bytes | Dict[str, object]"]:
        """Handle ``GET /v1/jobs/<id>/result``.

        A done job serves its cache entry's exact stored bytes -- the
        same bytes ``GET /v1/cache/<fingerprint>`` serves, so the two
        endpoints are byte-interchangeable.  If verification evicted
        the entry meanwhile, the job is requeued and the caller told to
        retry (409), never handed unverifiable data.
        """
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if job.state == "failed":
            return 500, {"error": job.error or "job failed", "job_id": job_id}
        if job.state != "done":
            return 409, {
                "error": f"job {job_id} is {job.state}; result not ready",
                "state": job.state,
            }
        entry = self.cache.get(job.fingerprint)
        if entry is None:
            self.store.requeue(job)
            return 409, {
                "error": "cached result failed verification; recomputing",
                "state": job.state,
            }
        return 200, entry

    def cache_lookup(self, fingerprint: str) -> Tuple[int, "bytes | Dict[str, object]"]:
        """Handle ``GET /v1/cache/<fingerprint>``."""
        try:
            entry = self.cache.get(fingerprint)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if entry is None:
            return 404, {"error": f"no cached result for {fingerprint}"}
        return 200, entry

    def stats(self) -> Dict[str, object]:
        """Handle ``GET /v1/stats`` (flat counters + job states)."""
        cache = self.cache.stats()
        with self._lock:
            body: Dict[str, object] = {
                "jobs.submitted": self.submitted,
                "jobs.coalesced": self.coalesced,
                "jobs.executed": self.executed,
                "jobs.failed": self.failed,
            }
        for key, value in cache.items():
            body[f"cache.{key}"] = value
        body["jobs.states"] = self.store.counts()
        return body

    # -- execution ----------------------------------------------------

    def _executor_loop(self) -> None:
        """Drain the queue until the store closes (daemon thread)."""
        while True:
            job = self.store.next_job(timeout=0.5)
            if job is None:
                with self._lock:
                    if self._draining:
                        return
                continue
            try:
                self._runner(self, job)
            except Exception as exc:  # noqa: BLE001 - job isolation
                _LOG.warning(
                    "job %s failed: %s", job.job_id, exc, exc_info=True
                )
                self.store.fail(job, f"{type(exc).__name__}: {exc}")
                with self._lock:
                    self.failed += 1


def _execute_job(service: CampaignService, job: Job) -> None:
    """Run one job on the real engine and store its result.

    The runtime policy points both ``checkpoint_dir`` and
    ``resume_dir`` at a fingerprint-keyed directory: a fresh job
    checkpoints there, an interrupted one resumes from it, and a
    successful completion removes it (the result now lives in the
    cache, which is cheaper than N shard records).  Progress hooks feed
    the job's status document live; a retry flips the job into the
    observable ``retrying`` state until the next shard lands.
    """
    from repro.faultsim import simulate
    from repro.runtime import RuntimePolicy, parse_chaos_spec

    spec = job.spec
    per_scheme = spec.num_shards()
    service.store.begin_run(job, per_scheme * len(spec.schemes))
    ckpt_dir = service.checkpoint_root / job.fingerprint
    chaos = parse_chaos_spec(spec.chaos) if spec.chaos else None
    base = 0

    def on_complete(index: int, completed: int, total_shards: int) -> None:
        service.store.note_progress(job, base + completed)

    def on_retry(index: int, failures: int, reason: str) -> None:
        service.store.note_retry(job)

    policy = RuntimePolicy(
        checkpoint_dir=str(ckpt_dir),
        resume_dir=str(ckpt_dir),
        chaos=chaos,
        on_shard_complete=on_complete,
        on_shard_retry=on_retry,
    )
    results = []
    with TelemetryScope() as scope:
        for position, (scheme, config) in enumerate(spec.build_runs()):
            base = position * per_scheme
            results.append(
                simulate(
                    scheme,
                    config,
                    workers=spec.workers,
                    shard_size=spec.shard_size,
                    runtime=policy,
                )
            )
    body = _result_body(job.fingerprint, spec, results, policy)
    service.cache.put(job.fingerprint, body)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    service.store.finish(job, metrics=scope.snapshot())
    with service._lock:
        service.executed += 1


def _result_body(
    fingerprint: str,
    spec: ExperimentSpec,
    results: list,
    policy,
) -> Dict[str, object]:
    """Assemble the result document for one completed job.

    ``table`` is the spec's own :meth:`ExperimentSpec.table`, the one
    ``repro reliability`` prints, so the service's answer is diffable
    against a local CLI run of the same spec.  The
    ``result_digest`` covers only the deterministic ``core`` keys;
    ``provenance`` (code version, run outcomes, retry counts) rides
    outside the digest because recovery history may legitimately vary
    between bit-identical recomputes.
    """
    result_rows = [
        {
            "scheme_name": r.scheme_name,
            "num_systems": r.num_systems,
            "years": r.years,
            "failures": r.failures,
            "due_count": r.due_count,
            "sdc_count": r.sdc_count,
            "probability_of_failure": r.probability_of_failure,
            "confidence_interval": list(r.confidence_interval()),
            "summary": r.format_summary(),
        }
        for r in results
    ]
    core = {
        "fingerprint": fingerprint,
        "table": spec.table(results),
        "results": result_rows,
    }
    body: Dict[str, object] = dict(core)
    body["result_digest"] = sha256_hex(canonical_json(core))
    body["provenance"] = {
        "code_version": __version__,
        "spec": spec.to_dict(),
        "complete": policy.quarantined_total == 0,
        "runs": [outcome.to_dict() for outcome in policy.outcomes],
    }
    return body


class _ServiceHandler(BaseHTTPRequestHandler):
    """Route table mapping the HTTP surface onto the service object."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    #: A reply goes out as two writes (headers, then body).  With Nagle
    #: on, a keep-alive client's delayed ACK of the first holds the
    #: second back by ~40 ms on every response.
    disable_nagle_algorithm = True
    #: Seconds a connection may stay silent, mid-request or between
    #: keep-alive requests, before its handler closes it.  Without a
    #: bound, a client that stalls holds a handler thread until it hangs
    #: up.  Keep-alive clients pause for minutes (the end-to-end
    #: benchmark leaves one connection idle through its whole run), so
    #: the bound is long.
    timeout = 300

    @property
    def service(self) -> CampaignService:
        """The application object the bound server carries."""
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Route access logs through the obs logger (quiet by default)."""
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _reply(self, status: int, body: "bytes | Dict[str, object]") -> None:
        """Send one JSON response with an exact ``Content-Length``."""
        raw = (
            body
            if isinstance(body, bytes)
            else canonical_json(body).encode("utf-8")
        )
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """``POST /v1/jobs`` -- submit an experiment spec."""
        if self.path != "/v1/jobs":
            self._reply(404, {"error": f"no such endpoint {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body must be JSON"})
            return
        self._reply(*self.service.submit(payload))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Dispatch the read-only endpoints."""
        parts = [p for p in self.path.split("/") if p]
        if self.path == "/healthz":
            self._reply(200, {"status": "ok", "version": __version__})
        elif self.path == "/readyz":
            if self.service.ready:
                self._reply(200, {"status": "ready"})
            else:
                self._reply(503, {"status": "draining"})
        elif self.path == "/v1/stats":
            self._reply(200, self.service.stats())
        elif len(parts) == 3 and parts[:2] == ["v1", "cache"]:
            self._reply(*self.service.cache_lookup(parts[2]))
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._reply(*self.service.job_status(parts[2]))
        elif (
            len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "result"
        ):
            self._reply(*self.service.job_result(parts[2]))
        else:
            self._reply(404, {"error": f"no such endpoint {self.path}"})


class CampaignServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`CampaignService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: CampaignService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service

    def handle_error(self, request: object, client_address: object) -> None:
        """Log a client that hung up mid-request at debug level.

        A client that leaves is not a server error; any other error
        keeps ``socketserver``'s traceback on stderr.
        """
        error = sys.exc_info()[1]
        if isinstance(error, ConnectionError):
            _LOG.debug("client %s went away: %r", client_address, error)
        else:
            super().handle_error(request, client_address)


def create_server(
    host: str, port: int, service: CampaignService
) -> CampaignServer:
    """Bind a :class:`CampaignServer` and start the executor thread.

    Port 0 asks the kernel for an ephemeral port; read the bound one
    from ``server.server_address`` (the CLI prints it on stderr).
    """
    server = CampaignServer((host, port), service)
    service.start()
    return server
