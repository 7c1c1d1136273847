"""Campaign-as-a-service: an async job API over the reliability engine.

``repro serve`` exposes the Monte-Carlo campaign engine as a
long-running HTTP service so repeated experiments are computed once and
answered from a verified cache forever after:

* :mod:`repro.service.spec` -- the service's names for
  :class:`~repro.runtime.spec.ExperimentSpec`, the one reliability-run
  spec (shared with ``repro reliability`` and ``repro coordinate``),
  and its job **fingerprint**: a SHA-256 over the per-scheme
  :class:`~repro.runtime.checkpoint.RunFingerprint` dicts, covering
  everything that can change a result bit and nothing that can't.
* :mod:`repro.service.cache` -- :class:`ResultCache`, the
  fingerprint-keyed disk cache with atomic writes, digest verification
  on every read, and eviction-and-recompute on corruption.
* :mod:`repro.service.jobstore` -- :class:`JobStore`, single-flight
  job registry: concurrent submissions of one experiment coalesce onto
  one execution.
* :mod:`repro.service.app` -- :class:`CampaignService` /
  :class:`CampaignServer`, the HTTP façade and the single executor
  thread running jobs on :func:`repro.faultsim.simulate` under a
  fingerprint-keyed checkpoint/resume policy.

Everything is standard library (``http.server``); see
``docs/serving.md`` for the endpoint and identity contracts.
"""

from repro.runtime.checkpoint import canonical_json
from repro.service.app import CampaignServer, CampaignService, create_server
from repro.service.cache import CACHE_VERSION, ResultCache
from repro.service.jobstore import ACTIVE_STATES, JOB_STATES, Job, JobStore
from repro.service.spec import ExperimentSpec, ServiceSpecError

__all__ = [
    "ACTIVE_STATES",
    "CACHE_VERSION",
    "CampaignServer",
    "CampaignService",
    "ExperimentSpec",
    "JOB_STATES",
    "Job",
    "JobStore",
    "ResultCache",
    "ServiceSpecError",
    "canonical_json",
    "create_server",
]
