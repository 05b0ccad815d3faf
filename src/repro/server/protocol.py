"""Length-prefixed JSON framing shared by the server and the client.

Every message — request or response — is one UTF-8 JSON object preceded
by its byte length as a big-endian ``u32``::

    <length: u32 BE> <payload: UTF-8 JSON>

Requests carry an ``op`` field; responses carry ``ok`` (and either the
op's payload or an ``error`` object). The first request on a connection
must be ``hello``, which names the user and creates the session.

The ``error`` object carries ``type`` (the server-side exception class
name), ``message``, ``serialization`` (True for snapshot-isolation
commit conflicts), and ``retryable`` (True for any transient failure —
conflicts, statement timeouts, admission refusals — that a client may
retry verbatim, e.g. via ``Client.with_retries``).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

__all__ = [
    "MAX_MESSAGE",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "next_frame",
    "read_message",
]

PROTOCOL_VERSION = 2

_HEADER = struct.Struct(">I")

#: guard against interpreting garbage as a gigantic message
MAX_MESSAGE = 16 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame or JSON payload on the wire."""


def encode_message(doc: dict) -> bytes:
    """Frame one message for the wire."""
    payload = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    if len(payload) > MAX_MESSAGE:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> dict:
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable message payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("message payload must be a JSON object")
    return doc


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE:
        raise ProtocolError(
            f"declared message length {length} exceeds the "
            f"{MAX_MESSAGE}-byte limit"
        )


def next_frame(buffer: bytearray, offset: int) -> Optional[tuple[dict, int]]:
    """Decode the frame starting at ``buffer[offset]``: ``(message, end)``
    where ``end`` is the offset just past it, or ``None`` while the frame
    is still incomplete. A declared length over :data:`MAX_MESSAGE` is
    refused as soon as the header is in, before its payload arrives."""
    start = offset + _HEADER.size
    if len(buffer) < start:
        return None
    (length,) = _HEADER.unpack_from(buffer, offset)
    _check_length(length)
    end = start + length
    if len(buffer) < end:
        return None
    return _decode_payload(buffer[start:end]), end


def read_message(sock: socket.socket) -> Optional[dict]:
    """Blocking read of one message; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-message")
    return _decode_payload(payload)


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-message")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
