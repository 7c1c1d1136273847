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

========== =========== ====================================================
type       direction   meaning
========== =========== ====================================================
hello      worker→coor protocol version + worker name
job        coor→worker experiment spec + run fingerprint
ready      worker→coor fingerprint verified; worker wants a lease
lease      coor→worker shard indices + per-shard attempts + deadline
wait       coor→worker nothing ready; retry ``ready`` after ``delay_s``
result     worker→coor one digest-carrying shard record of a lease
shard_failed worker→coor one shard of a lease failed (reason string)
lease_done worker→coor every shard of the lease was accounted for
drain      coor→worker stop asking; close the connection
error      either      protocol violation; sender closes after
========== =========== ====================================================
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Dict, List, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "FrameDecoder",
    "send_message",
    "recv_message",
    "read_message",
    "write_message",
]

#: Wire protocol version; ``hello``/``job`` refuse a mismatch.
PROTOCOL_VERSION = 2

#: Upper bound on one frame (64 MiB) -- far above any real shard record,
#: small enough that a garbage length prefix cannot balloon memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """A malformed, oversized or unexpected frame on the wire."""


def encode_frame(message: Dict[str, object]) -> bytes:
    """Serialise one message dict to a length-prefixed frame."""
    body = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder turning a byte stream back into messages.

    Feed it whatever chunks arrive; it buffers partial frames across
    calls and yields each complete message exactly once, so it works
    unchanged over blocking sockets, asyncio transports or test
    fixtures slicing a frame one byte at a time.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        """Absorb ``data``; return every message completed by it."""
        self._buffer.extend(data)
        messages: List[Dict[str, object]] = []
        while True:
            if len(self._buffer) < _LENGTH.size:
                break
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"incoming frame claims {length} bytes "
                    f"(cap {MAX_FRAME_BYTES}); stream is corrupt"
                )
            if len(self._buffer) < _LENGTH.size + length:
                break
            body = bytes(self._buffer[_LENGTH.size:_LENGTH.size + length])
            del self._buffer[:_LENGTH.size + length]
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"frame body is not JSON: {exc}") from exc
            if not isinstance(message, dict):
                raise ProtocolError("frame body is not a JSON object")
            messages.append(message)
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


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
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body is not a JSON object")
    return message


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
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (cap {MAX_FRAME_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body is not a JSON object")
    return message


async def write_message(writer, message: Dict[str, object]) -> None:
    """Write one framed message to an asyncio writer and drain."""
    writer.write(encode_frame(message))
    await writer.drain()
