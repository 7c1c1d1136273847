"""Wire-protocol framing tests for the distributed coordinator link.

The length-prefixed JSON framing of :mod:`repro.runtime.protocol` must
survive arbitrary payloads, arbitrary chunking (one byte at a time, many
frames per chunk) and reject oversized or corrupt frames -- property
tests drive the round trip with hypothesis, and socket-pair and
stream-reader tests cover the blocking and asyncio helpers the
worker/coordinator actually use.
"""

import asyncio
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import protocol
from repro.runtime.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    read_message,
    recv_message,
    send_message,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=24),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
messages = st.dictionaries(st.text(max_size=16), json_values, max_size=6)


def _recv_all(blob: bytes, count: int):
    """Receive ``count`` messages sent as one ``blob`` over a socket pair."""
    left, right = socket.socketpair()
    try:
        left.sendall(blob)
        left.close()
        return [recv_message(right) for _ in range(count)]
    finally:
        right.close()


def _read_chunked(chunks, count: int):
    """Read ``count`` messages while ``chunks`` arrive one at a time."""

    async def scenario():
        reader = asyncio.StreamReader()

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        out = [await read_message(reader) for _ in range(count)]
        await feeder
        return out

    return asyncio.run(scenario())


class _OneByteAtATime:
    """A socket stand-in whose ``recv`` hands back one byte per call."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def recv(self, nbytes: int) -> bytes:
        chunk, self._data = self._data[:1], self._data[1:]
        return chunk


def _both_helpers_reject(frame: bytes, match: str) -> None:
    """Both receive helpers raise the same ProtocolError on ``frame``."""
    with pytest.raises(ProtocolError, match=match):
        _recv_all(frame, 1)
    with pytest.raises(ProtocolError, match=match):
        _read_chunked([frame], 1)


class TestFraming:
    @given(message=messages)
    @settings(max_examples=80)
    def test_round_trip(self, message):
        assert _recv_all(encode_frame(message), 1) == [message]
        assert _read_chunked([encode_frame(message)], 1) == [message]

    @given(batch=st.lists(messages, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_many_frames_in_one_chunk(self, batch):
        blob = b"".join(encode_frame(m) for m in batch)
        assert _recv_all(blob, len(batch)) == batch
        assert _read_chunked([blob], len(batch)) == batch

    @given(batch=st.lists(messages, min_size=1, max_size=3))
    @settings(max_examples=25)
    def test_byte_at_a_time(self, batch):
        sock = _OneByteAtATime(b"".join(encode_frame(m) for m in batch))
        assert [recv_message(sock) for _ in batch] == batch
        assert recv_message(sock) is None

    def test_partial_frame_is_buffered(self):
        frame = encode_frame({"type": "ready"})
        assert _read_chunked([frame[:5], frame[5:]], 1) == [{"type": "ready"}]

    def test_oversized_length_prefix_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        _both_helpers_reject(header, "cap")

    def test_oversized_body_rejected_on_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"filler": "x" * 64})

    def test_non_json_body_rejected(self):
        body = b"\xff\xfenot json"
        _both_helpers_reject(struct.pack(">I", len(body)) + body, "not JSON")

    def test_non_object_body_rejected(self):
        body = b"[1,2,3]"
        _both_helpers_reject(
            struct.pack(">I", len(body)) + body, "JSON object"
        )

    def test_canonical_encoding_is_deterministic(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b


class TestBlockingSocketHelpers:
    def test_send_recv_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"type": "hello", "worker": "w1"})
            assert recv_message(right) == {"type": "hello", "worker": "w1"}
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        frame = encode_frame({"type": "ready"})
        left.sendall(frame[:-2])
        left.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()


class TestAsyncioHelpers:
    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_message_round_trip(self):
        async def scenario():
            reader = self._reader_with(
                encode_frame({"type": "job", "n": 4})
                + encode_frame({"type": "drain"})
            )
            first = await protocol.read_message(reader)
            second = await protocol.read_message(reader)
            third = await protocol.read_message(reader)
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"type": "job", "n": 4}
        assert second == {"type": "drain"}
        assert third is None

    def test_read_message_eof_mid_frame(self):
        async def scenario():
            reader = self._reader_with(encode_frame({"type": "drain"})[:-1])
            await protocol.read_message(reader)

        with pytest.raises(ProtocolError, match="mid-frame"):
            asyncio.run(scenario())

    def test_read_message_oversized_prefix(self):
        async def scenario():
            reader = self._reader_with(struct.pack(">I", MAX_FRAME_BYTES + 9))
            await protocol.read_message(reader)

        with pytest.raises(ProtocolError, match="cap"):
            asyncio.run(scenario())
