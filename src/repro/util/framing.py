"""Framed socket messages: versioned, digest-stamped, typed on every defect.

The one message codec of the repo.  The hyperwall control protocol
(:mod:`repro.hyperwall.protocol`) and the serving session protocol
(:mod:`repro.serving.wire`) both speak it; each only adds its own frame
kinds and names its own fault site.  A frame carries a JSON header next
to an arbitrary binary payload (frame pixels for a serving client,
empty on the hyperwall, where pixels never cross the wire), and is
stamped with a sha256 content digest so a peer can prove the bytes it
received are the bytes that were sent (the same digest discipline the
``.cdz`` container applies to chunks on disk).

Frame layout (all integers big-endian)::

    magic    4 bytes   b"RSWP"
    version  1 byte    WIRE_VERSION
    hlen     4 bytes   header length
    plen     8 bytes   payload length
    header   hlen bytes   JSON: {"kind": ..., "meta": {...}}
    payload  plen bytes   opaque binary (frame pixels, or empty)
    digest   32 bytes  sha256(header + payload)

Every way a peer can present a broken frame maps to a **typed**
:class:`~repro.util.errors.WireError` subclass — the corruption matrix
the wire test suite walks:

* bad magic / absurd lengths / malformed header → :class:`WireFormatError`
* unknown version → :class:`WireVersionError` (refuse the peer)
* stream or buffer ends mid-frame → :class:`WireTruncatedError`
* digest mismatch (bit flip in flight) → :class:`WireCorruptionError`

A clean EOF *between* frames returns ``None`` (orderly close), anywhere
else is truncation.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro import obs
from repro.resilience import faults
from repro.util.errors import (
    WireCorruptionError,
    WireFormatError,
    WireTruncatedError,
    WireVersionError,
)

if TYPE_CHECKING:  # asyncio stays unimported for the socket-only peers
    import asyncio

MAGIC = b"RSWP"
WIRE_VERSION = 1

_PREFIX = struct.Struct(">4sBIQ")  # magic, version, header len, payload len
_DIGEST_BYTES = 32

MAX_HEADER_BYTES = 1 * 1024 * 1024
MAX_PAYLOAD_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class WireFrame:
    """One framed message: a kind, JSON metadata, and binary payload."""

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""

    def payload_digest(self) -> str:
        """Hex sha256 of the payload alone (what FRAME meta advertises)."""
        return hashlib.sha256(self.payload).hexdigest()


def encode_frame(frame: WireFrame, version: int = WIRE_VERSION) -> bytes:
    """Serialize *frame* to wire bytes (header + payload digest-stamped)."""
    header = json.dumps(
        {"kind": frame.kind, "meta": frame.meta}, sort_keys=True
    ).encode("utf-8")
    if len(header) > MAX_HEADER_BYTES:
        raise WireFormatError(f"header of {len(header)} bytes exceeds limit")
    if len(frame.payload) > MAX_PAYLOAD_BYTES:
        raise WireFormatError(
            f"payload of {len(frame.payload)} bytes exceeds limit"
        )
    return b"".join((
        _PREFIX.pack(MAGIC, version, len(header), len(frame.payload)),
        header,
        frame.payload,
        _content_digest(header, frame.payload),
    ))


def _content_digest(header: bytes, payload: bytes) -> bytes:
    # sha256(header + payload), without building header + payload
    h = hashlib.sha256(header)
    h.update(payload)
    return h.digest()


def _parse(header: bytes, payload: bytes, digest: bytes) -> WireFrame:
    if _content_digest(header, payload) != digest:
        raise WireCorruptionError(
            "frame content digest mismatch (bytes corrupted in flight)"
        )
    try:
        data = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"malformed frame header: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise WireFormatError(f"malformed frame header structure: {data!r}")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise WireFormatError(f"frame meta is not an object: {meta!r}")
    return WireFrame(str(data["kind"]), meta, payload)


def _check_prefix(prefix: bytes) -> Tuple[int, int]:
    """Validate a 17-byte frame prefix; returns (header len, payload len)."""
    magic, version, hlen, plen = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"unsupported wire version {version} (this endpoint speaks "
            f"{WIRE_VERSION})"
        )
    if hlen > MAX_HEADER_BYTES:
        raise WireFormatError(f"frame header of {hlen} bytes exceeds limit")
    if plen > MAX_PAYLOAD_BYTES:
        raise WireFormatError(f"frame payload of {plen} bytes exceeds limit")
    return hlen, plen


def decode_frame(data: bytes) -> Tuple[WireFrame, int]:
    """Decode one frame from a byte buffer; returns (frame, bytes consumed).

    Raises :class:`WireTruncatedError` when the buffer holds less than
    one whole frame — the streaming-socket analog is EOF mid-frame.
    """
    if len(data) < _PREFIX.size:
        raise WireTruncatedError(
            f"buffer of {len(data)} bytes is shorter than a frame prefix"
        )
    hlen, plen = _check_prefix(data[: _PREFIX.size])
    total = _PREFIX.size + hlen + plen + _DIGEST_BYTES
    if len(data) < total:
        raise WireTruncatedError(
            f"buffer ends mid-frame ({len(data)} of {total} bytes)"
        )
    start = _PREFIX.size
    header = data[start : start + hlen]
    payload = data[start + hlen : start + hlen + plen]
    digest = data[start + hlen + plen : total]
    return _parse(header, payload, digest), total


def _count(site: str, direction: str, kind: str, nbytes: int) -> None:
    # ``serving.wire.send`` counts as ``serving.wire.frames.sent`` and so on
    if obs.enabled():
        channel = site.rpartition(".")[0]
        obs.counter(f"{channel}.frames.{direction}", kind=kind)
        obs.counter(f"{channel}.bytes.{direction}", nbytes, kind=kind)


def write_frame(sock: socket.socket, frame: WireFrame, site: str) -> None:
    """Encode and send one frame; *site* names the caller's fault site.

    A ``drop`` fault closes the connection instead of sending (a node
    falling over mid-stream: the peer sees EOF); a ``corrupt`` fault
    flips a byte behind the prefix, so the peer reads a whole frame
    whose digest check raises :class:`WireCorruptionError`.
    """
    data = encode_frame(frame)
    fault = faults.check(site, kind=frame.kind)
    if fault is not None:
        if fault.action == "drop":
            sock.close()
            return
        if fault.action == "corrupt":
            at = _PREFIX.size
            data = data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]
    _count(site, "sent", frame.kind, len(data))
    sock.sendall(data)


def read_frame(sock: socket.socket, site: str) -> Optional[WireFrame]:
    """Read one frame; None on orderly EOF at a frame boundary.  *site*
    is the one given to :func:`write_frame`; here it names the counters."""
    prefix = recv_exact(sock, _PREFIX.size)
    if prefix is None:
        return None
    hlen, plen = _check_prefix(prefix)
    rest = recv_exact(sock, hlen + plen + _DIGEST_BYTES)
    if rest is None:
        raise WireTruncatedError("connection closed after frame prefix")
    frame = _parse(rest[:hlen], rest[hlen : hlen + plen], rest[hlen + plen :])
    _count(site, "received", frame.kind, _PREFIX.size + len(rest))
    return frame


async def read_frame_async(
    reader: asyncio.StreamReader, site: str
) -> Optional[WireFrame]:
    """:func:`read_frame` over an :class:`asyncio.StreamReader`: the same
    typed errors and counters, None on orderly EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except EOFError as exc:  # asyncio.IncompleteReadError
        if exc.partial:
            raise WireTruncatedError("connection closed mid-frame") from exc
        return None
    hlen, plen = _check_prefix(prefix)
    try:
        rest = await reader.readexactly(hlen + plen + _DIGEST_BYTES)
    except EOFError as exc:
        raise WireTruncatedError("connection closed after frame prefix") from exc
    frame = _parse(rest[:hlen], rest[hlen : hlen + plen], rest[hlen + plen :])
    _count(site, "received", frame.kind, _PREFIX.size + len(rest))
    return frame


def recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; None on clean EOF before the first byte.

    EOF after a partial read raises :class:`WireTruncatedError`.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise WireTruncatedError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
