"""The hyperwall wire protocol.

"An instance of UV-CDAT runs on each node, coordinated using socket
connections between the client nodes and the server node."  Messages
are the shared digest-stamped frames of :mod:`repro.util.framing` — a
kind plus JSON metadata, inspectable and sufficient for workflow
shipping and gesture propagation (an ``event`` frame carries one
:class:`~repro.dv3d.interaction.Gesture`'s ``to_dict()`` plus the
``cell_id`` it is for).  Pixel data never crosses the wire
(each node renders its own display), so the binary payload stays empty;
clients report image *summaries* (shape, checksum, timing) instead.

This module names the hyperwall's frame kinds, binds the codec to the
``protocol.send`` fault site, and provides :class:`InlineLink` — the
same bytes through the same codec to a display node that lives in the
caller's process.  Every framing defect (truncation,
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


class _Pipe:
    """One direction of an in-memory connection: bytes in, bytes out."""

    def __init__(self) -> None:
        self._data = bytearray()
        self._open = True

    def sendall(self, data: bytes) -> None:
        if not self._open:
            raise OSError("link is closed")
        self._data += data

    def recv(self, count: int) -> bytes:
        chunk = bytes(self._data[:count])
        del self._data[:count]
        return chunk

    def close(self) -> None:
        self._open = False
        self._data.clear()


class InlineLink:
    """A display node behind a socket's ``sendall`` / ``recv`` / ``close``.

    ``sendall`` is one turn of the client loop on the caller's thread:
    the node reads the frame off the wire bytes, handles it and writes
    its reply, which ``recv`` then hands back.  Both directions pass
    through :func:`send_frame` / :func:`recv_frame`, so an in-process
    wall carries only what a socket could, counts ``protocol.*`` like
    one, and a frame the node cannot read hangs the link up (EOF).
    """

    def __init__(self, node) -> None:
        self.node = node
        self._down, self._up = _Pipe(), _Pipe()

    def sendall(self, data: bytes) -> None:
        self._down.sendall(data)
        try:
            message = recv_frame(self._down)
            reply = None if message is None else self.node.handle(message)
            if reply is not None:
                send_frame(self._up, reply)
        except HyperwallError:
            self.close()

    def recv(self, count: int) -> bytes:
        return self._up.recv(count)

    def close(self) -> None:
        self._down.close()
        self._up.close()
