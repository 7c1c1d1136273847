"""Per-job telemetry scoping for long-running processes.

The observability switchboard (:data:`repro.obs.OBS`) is process-wide
by design: a CLI invocation is one run, so one registry and one trace
are exactly right.  A *serving* process breaks that assumption -- the
campaign service executes many unrelated jobs over its lifetime, and a
job's metrics must not bleed into its neighbours' (a second job's
``faultsim.systems_done`` would otherwise start where the first one
stopped).

:class:`TelemetryScope` gives one job its own registry and trace by
swapping fresh instances into ``OBS`` for the duration of a ``with``
block and restoring the previous state afterwards.  It is the one
save/swap/restore in the package: the service scopes each job, the
executor each shard attempt (whose delta it returns with the shard's
result) and the test suite each test.  The scope keeps references
to its registry and trace, so the job's telemetry remains readable
(status endpoints, exports) after the block exits:

.. code-block:: python

    with TelemetryScope() as scope:
        result = simulate(scheme, config)
    job.metrics = scope.snapshot()

Scopes are reentrant-safe in the stack sense (nesting restores
correctly) but not concurrent: only one thread may run scoped work at
a time, which matches the service's single job-executor thread.
Readers on other threads (a status endpoint sampling
``scope.registry``) see monotonic counter values -- safe for display.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.events import EventTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS

__all__ = ["TelemetryScope"]


class TelemetryScope:
    """Swap a private registry/trace into :data:`OBS` for one job.

    On entry the process-wide switchboard is pointed at this scope's
    fresh :class:`~repro.obs.metrics.MetricsRegistry` and
    :class:`~repro.obs.events.EventTrace` and enabled (progress
    reporting stays off -- a server has no TTY to own); on exit every
    global is restored exactly, including the enabled flags and any
    installed sampler.  The captured telemetry stays accessible on the
    scope object itself.
    """

    def __init__(
        self, enabled: bool = True, trace_capacity: Optional[int] = None
    ) -> None:
        self.registry = MetricsRegistry()
        self.trace = (
            EventTrace(capacity=trace_capacity)
            if trace_capacity is not None
            else EventTrace()
        )
        self._enabled = enabled
        self._saved: Optional[tuple] = None

    def __enter__(self) -> "TelemetryScope":
        """Install this scope's registry/trace process-wide."""
        self._saved = (
            OBS.enabled,
            OBS.progress_enabled,
            OBS.registry,
            OBS.trace,
            OBS.sampler,
        )
        OBS.registry = self.registry
        OBS.trace = self.trace
        OBS.sampler = None
        OBS.enabled = self._enabled
        OBS.progress_enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Restore the previously installed observability state."""
        if self._saved is not None:
            (
                OBS.enabled,
                OBS.progress_enabled,
                OBS.registry,
                OBS.trace,
                OBS.sampler,
            ) = self._saved
            self._saved = None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The scoped registry's current values (JSON-ready)."""
        return self.registry.snapshot()
