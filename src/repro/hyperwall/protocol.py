"""The hyperwall wire protocol.

"An instance of UV-CDAT runs on each node, coordinated using socket
connections between the client nodes and the server node."  Messages
are the shared digest-stamped frames of :mod:`repro.util.framing` — a
kind plus JSON metadata, inspectable and sufficient for workflow
shipping and event propagation.  Pixel data never crosses the wire
(each node renders its own display), so the binary payload stays empty;
clients report image *summaries* (shape, checksum, timing) instead.

This module names the hyperwall's frame kinds and binds the codec to
the ``protocol.send`` fault site.  Every framing defect (truncation,
digest mismatch, absurd lengths) reaches the hyperwall as a
:class:`~repro.util.errors.HyperwallError` whose cause is the typed
:class:`~repro.util.errors.WireError`, so the dead-client and failover
paths handle a corrupt frame exactly like a lost connection.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro.util import framing
from repro.util.errors import HyperwallError, WireError
from repro.util.framing import WireFrame

SEND_SITE = "protocol.send"

#: message kinds used by the server/client pair
KIND_HELLO = "hello"
KIND_WORKFLOW = "workflow"
KIND_EXECUTE = "execute"
KIND_EVENT = "event"
KIND_RENDER = "render"
KIND_REPORT = "report"
KIND_ACK = "ack"
KIND_HEARTBEAT = "heartbeat"
KIND_SHUTDOWN = "shutdown"
KIND_ERROR = "error"


def send_frame(sock: socket.socket, frame: WireFrame) -> None:
    try:
        framing.write_frame(sock, frame, SEND_SITE)
    except WireError as exc:
        raise HyperwallError(f"cannot send {frame.kind!r}: {exc}") from exc


def recv_frame(sock: socket.socket) -> Optional[WireFrame]:
    """Read one frame; None on orderly EOF at a frame boundary."""
    try:
        return framing.read_frame(sock, SEND_SITE)
    except WireError as exc:
        raise HyperwallError(f"bad frame from peer: {exc}") from exc
