"""Fingerprint-keyed disk cache of canonical-JSON campaign results.

Under heavy traffic most submissions are repeats of canonical configs
(the Table II / Figs 7-10 sweeps); those must be answered from disk in
milliseconds, not recomputed in minutes.  The cache maps a job
fingerprint (:meth:`repro.runtime.spec.ExperimentSpec.fingerprint`) to
one file, ``<fingerprint>.json``, holding a canonical-JSON envelope::

    {"body": {...}, "digest": "<sha256 of canonical(body)>",
     "fingerprint": "<key>", "version": 1}

* **Atomic writes.**  Entries are written through
  :func:`repro.obs.fsio.atomic_write_text` (temp + fsync +
  ``os.replace``), so a reader never observes a torn entry even if the
  service dies mid-store.
* **Self-validation.**  Every read re-derives the body digest and
  checks the embedded fingerprint; any mismatch -- bit rot, a truncated
  copy, a hostile edit -- **evicts** the entry and reports a miss, so
  the service recomputes rather than ever serving bad bytes.  The
  chaos suite corrupts entries on disk and asserts exactly that.
* **Byte stability.**  ``get`` returns the stored bytes verbatim;
  repeated hits for one fingerprint are bit-identical by construction.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional

from repro.obs.fsio import atomic_write_text
from repro.runtime.checkpoint import canonical_json, sha256_hex

__all__ = ["CACHE_VERSION", "ResultCache"]

#: On-disk envelope version; bumped on incompatible layout changes.
CACHE_VERSION = 1

#: Fingerprints are SHA-256 hex digests; anything else never touches
#: the filesystem (defence against path-traversal keys in URLs).
_HEX = set("0123456789abcdef")


class ResultCache:
    """Disk-backed, digest-verified result store keyed by fingerprint.

    Thread-safe: the service's executor thread stores entries while
    HTTP handler threads read them concurrently; a lock serialises the
    stat-read-verify-evict sequence, and the atomic writer guarantees
    readers outside the lock still never see torn files.
    """

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corruptions = 0
        self.stores = 0
        self._lock = threading.Lock()

    def path_for(self, fingerprint: str) -> Path:
        """The entry file a fingerprint maps to (hex-validated)."""
        if not fingerprint or any(c not in _HEX for c in fingerprint):
            raise ValueError(f"invalid fingerprint {fingerprint!r}")
        return self.root / f"{fingerprint}.json"

    def put(self, fingerprint: str, body: Dict[str, object]) -> bytes:
        """Store a result body; returns the exact bytes future hits see."""
        envelope = {
            "body": body,
            "digest": sha256_hex(canonical_json(body)),
            "fingerprint": fingerprint,
            "version": CACHE_VERSION,
        }
        text = canonical_json(envelope)
        with self._lock:
            atomic_write_text(str(self.path_for(fingerprint)), text)
            self.stores += 1
        return text.encode("utf-8")

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The verified entry bytes, or ``None`` (missing or evicted).

        A present-but-invalid entry is unlinked before returning
        ``None``: serving it would violate the byte-identity contract,
        and leaving it would shadow the recompute's fresh store.
        """
        path = self.path_for(fingerprint)
        with self._lock:
            try:
                raw = path.read_bytes()
            except OSError:
                self.misses += 1
                return None
            if self._valid(fingerprint, raw):
                self.hits += 1
                return raw
            self.corruptions += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
            return None

    def _valid(self, fingerprint: str, raw: bytes) -> bool:
        """Whether stored bytes are a digest-intact entry for the key."""
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return False
        if not isinstance(envelope, dict):
            return False
        body = envelope.get("body")
        return (
            envelope.get("version") == CACHE_VERSION
            and envelope.get("fingerprint") == fingerprint
            and isinstance(body, dict)
            and envelope.get("digest") == sha256_hex(canonical_json(body))
        )

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the service's ``/v1/stats`` block)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corruptions": self.corruptions,
                "stores": self.stores,
            }
