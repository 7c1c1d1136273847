"""The process-wide observability switchboard.

One module-level :data:`OBS` object owns the metrics registry and the
event trace, plus a single ``enabled`` flag that every instrumentation
site checks before doing any work:

.. code-block:: python

    from repro.obs import OBS, events

    if OBS.enabled:
        OBS.registry.counter("catch_word_detected").inc()
        OBS.trace.record(events.CatchWordDetected(chip, bank, row, col))

With the flag off (the default) an instrumented hot path pays one
attribute load per site -- measured well under the 5% budget on
``benchmarks/bench_core_ops.py``.  The flag is plain attribute
assignment, so enabling mid-run affects every already-constructed
controller/simulator immediately; nothing caches it.

``span()`` (re-exported from :mod:`repro.obs.tracing`, where it grew
trace-tree semantics) and ``@timed`` feed
:class:`repro.obs.metrics.Timer` histograms and are no-ops while
disabled.
"""

from __future__ import annotations

import functools
import logging
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

from repro.obs.events import EventTrace, TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.timeseries import TelemetrySampler

__all__ = ["Observability", "OBS", "configure", "span", "timed", "get_logger"]

F = TypeVar("F", bound=Callable)

#: Root logger name for the whole package; sub-modules use children
#: (``repro.campaign``, ``repro.faultsim`` ...) so one ``--log-level``
#: flag controls everything.
LOGGER_NAME = "repro"


class Observability:
    """Holds the registry, the trace, and the global on/off switches."""

    def __init__(self) -> None:
        self.enabled = False
        self.progress_enabled = False
        self.registry = MetricsRegistry()
        self.trace = EventTrace()
        #: Optional time-series sampler (installed by the CLI for
        #: ``--timeseries-out``; the executor calls ``maybe_sample`` on it).
        self.sampler: Optional["TelemetrySampler"] = None

    def enable(self) -> None:
        """Turn instrumentation on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn instrumentation off (state is kept, not cleared)."""
        self.enabled = False
        self.progress_enabled = False

    def reset(self) -> None:
        """Zero metrics, clear the trace, drop any sampler (switches
        untouched)."""
        self.registry.reset()
        self.trace.clear()
        self.sampler = None

    def emit(self, event: TraceEvent) -> None:
        """Record one event iff enabled (convenience for cold paths)."""
        if self.enabled:
            self.trace.record(event)


#: The process-wide instance every instrumentation site refers to.
OBS = Observability()


def get_logger(name: str = "") -> logging.Logger:
    """A child of the ``repro`` logger (``get_logger("campaign")``)."""
    return logging.getLogger(
        f"{LOGGER_NAME}.{name}" if name else LOGGER_NAME
    )


def configure(
    log_level: Optional[str] = None,
    metrics: bool = False,
    trace: bool = False,
    progress: Optional[bool] = None,
    timeseries: bool = False,
) -> bool:
    """Set up the global observability state (the CLI entry point).

    Enables :data:`OBS` when any signal is requested, wires a stderr
    handler onto the ``repro`` logger for ``log_level``, and returns
    whether observability ended up enabled.  Counters and the trace are
    reset so back-to-back CLI invocations in one process (tests) do not
    bleed into each other.
    """
    wants = bool(log_level or metrics or trace or timeseries)
    if log_level:
        logger = logging.getLogger(LOGGER_NAME)
        logger.setLevel(log_level.upper())
        if not logger.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(
                logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
            )
            logger.addHandler(handler)
    if wants:
        OBS.reset()
        OBS.enable()
    if progress is not None:
        OBS.progress_enabled = progress
    return wants


def timed(name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator form of :func:`span`; defaults to the qualified name."""

    def decorate(fn: F) -> F:
        metric = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                OBS.registry.timer(metric).observe(perf_counter() - start)

        return wrapper  # type: ignore[return-value]

    return decorate
