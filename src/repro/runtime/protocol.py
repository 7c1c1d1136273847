"""Length-prefixed JSON wire protocol for distributed campaigns.

The coordinator/worker link speaks the smallest protocol that can be
made trustworthy: each frame is a 4-byte big-endian length followed by
that many bytes of UTF-8 canonical JSON.  Framing carries no integrity
of its own -- it does not need to.  Every shard result crossing the
wire is a checkpoint-format record whose embedded SHA-256 digest
(:meth:`repro.runtime.checkpoint.ShardRecord.to_line`) is re-verified
on receipt, so a corrupted or truncated transfer is rejected exactly
like a corrupted checkpoint line, and an accepted record is byte-ready
to flush into the coordinator's checkpoint.

Message vocabulary (the ``type`` key):

============ =========== ==================================================
type         direction   meaning
============ =========== ==================================================
hello        worker→coor protocol version + worker name
job          coor→worker ``ExperimentSpec.to_dict()`` + run fingerprint +
                         telemetry flag
ready        worker→coor fingerprint verified; worker wants a lease
lease        coor→worker shard indices + per-shard attempts (+ trace span)
wait         coor→worker nothing ready; retry ``ready`` after ``delay_s``
result       worker→coor one shard's digest-carrying checkpoint record:
                         its payload plus that shard's metrics and trace
shard_failed worker→coor one shard of a lease failed its one run (reason)
lease_done   worker→coor closes the lease; carries no telemetry
drain        coor→worker stop asking; close the connection
error        either      protocol violation; sender closes after
============ =========== ==================================================

Version 5 dropped the ``deadline_s`` of ``lease``, which no worker
read: the coordinator's own lease expiry bounds a hung shard.
Version 4 made the ``job`` spec the one reliability-run spec,
:class:`~repro.runtime.spec.ExperimentSpec`, which the worker parses
with the constructor the HTTP API uses; version 3 gave ``result`` its
telemetry and took it from ``lease_done``.  A peer speaking another
version is refused at ``hello``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, Optional

from repro.runtime.checkpoint import canonical_json

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "send_message",
    "recv_message",
    "read_message",
    "write_message",
]

#: Wire protocol version; ``hello``/``job`` refuse a mismatch.
PROTOCOL_VERSION = 5

#: Upper bound on one frame (64 MiB) -- far above any real shard record,
#: small enough that a garbage length prefix cannot balloon memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized or unexpected frame on the wire."""


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialise one message dict to a length-prefixed frame."""
    body = canonical_json(message).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return _LENGTH.pack(len(body)) + body


def _frame_length(header: bytes) -> int:
    """The body length a frame header announces, checked against the cap."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    return length


def _decode_body(body: bytes) -> Dict[str, object]:
    """One frame body as a message dict; :class:`ProtocolError` otherwise."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body is not a JSON object")
    return message


# -- blocking-socket helpers (worker side) ----------------------------------

def send_message(sock: socket.socket, message: Dict[str, object]) -> None:
    """Send one framed message over a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_message(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Receive one framed message; ``None`` on a clean EOF.

    An EOF *inside* a frame is a :class:`ProtocolError` -- the peer
    died mid-send and the partial bytes are untrustworthy.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    body = _recv_exact(sock, _frame_length(header))
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return _decode_body(body)


def _recv_exact(sock: socket.socket, nbytes: int) -> Optional[bytes]:
    """Read exactly ``nbytes``; ``None`` on EOF before the first byte.

    An EOF after the first byte raises :class:`ProtocolError` -- the
    peer vanished mid-frame.
    """
    chunks = bytearray()
    while len(chunks) < nbytes:
        chunk = sock.recv(min(65536, nbytes - len(chunks)))
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.extend(chunk)
    return bytes(chunks)


# -- asyncio helpers (coordinator side) -------------------------------------

async def read_message(reader) -> Optional[Dict[str, object]]:
    """Read one framed message from an asyncio reader; ``None`` on EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        body = await reader.readexactly(_frame_length(header))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode_body(body)


async def write_message(writer, message: Dict[str, object]) -> None:
    """Write one framed message to an asyncio writer and drain."""
    writer.write(encode_frame(message))
    await writer.drain()
