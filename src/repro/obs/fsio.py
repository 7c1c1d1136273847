"""Atomic file output for every observability export.

``--metrics-out``, ``--trace-out``, the Perfetto export and the
time-series log are all written at the very end of a run -- exactly when
a SIGTERM (CI job cancellation, container eviction) is most likely to
land.  A plain ``open(path, "w")`` killed mid-write leaves a truncated
JSON document that silently poisons downstream tooling (``repro obs
summarize``, the perf-regression comparator).

:func:`atomic_write_text` therefore writes the full payload to a
temporary sibling file, calls ``fsync`` on it, then moves it onto the
destination with ``os.replace``.  A reader observes either the
previous complete file or the new complete file, never a prefix.  The
checkpoint rewrites of :mod:`repro.runtime.checkpoint` and the
service's result cache go through it too.
"""

from __future__ import annotations

import os
import uuid

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via write-temp-then-``os.replace``.

    The temporary file is created in the destination directory (rename
    is only atomic within a filesystem) and cleaned up on any failure,
    so an interrupted export can never leave either a truncated target
    or stray temp files behind.  Its mode is ``0o666`` less the umask,
    as ``open(path, "w")`` would create it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(
        directory, f"{os.path.basename(path)}.{uuid.uuid4().hex}.tmp"
    )
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
