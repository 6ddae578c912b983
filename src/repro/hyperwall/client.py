"""The hyperwall client (display) node.

"Each client instance opens a single-cell visualization spreadsheet
window, covering its hyperwall display."  The client connects to the
server, receives its sub-workflow(s), executes them at full display
resolution, applies propagated interaction events, and reports results
(timings and image summaries — pixels stay local to the display node).

A node normally owns exactly one cell, but failover can hand it a
dead neighbor's cell too, so workflows are keyed by ``cell_id`` and
every ``execute``/``event``/``render`` message names the cell it is
for.  :class:`DisplayNode` is the node itself — messages in, replies
out, no transport; :class:`HyperwallClient` is the socket loop around
one, and :class:`~repro.hyperwall.inproc.InProcessHyperwall` drives the
same nodes on the caller's thread.  The ``hyperwall.client.execute``
fault site lets tests kill or fail a node deterministically
mid-execution (``client``/``cell`` labels).
"""

from __future__ import annotations

import hashlib
import socket
import time
from typing import Any, Dict, Optional

import numpy as np

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.hyperwall import protocol
from repro.resilience import faults
from repro.util.errors import DV3DError, HyperwallError
from repro.util.framing import WireFrame
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline


def image_digest(image: np.ndarray) -> str:
    """SHA-256 of a rendered frame's uint8 bytes.

    Reports carry this instead of pixels (which stay on the display
    node), so byte-identity of repeated frames — e.g. a warm-cache
    replay, or a reassigned cell matching its original — is assertable
    across process boundaries.
    """
    arr = np.ascontiguousarray(image)
    return hashlib.sha256(arr.tobytes()).hexdigest()


class DisplayNode:
    """One display node, transport-free: :meth:`handle` takes a message
    and returns the reply.

    *cache* (a :class:`repro.cache.CacheConfig`) opts this node's
    executor into the shared result cache.
    """

    def __init__(self, client_id: int, cache=None) -> None:
        self.client_id = int(client_id)
        #: sub-workflows and their executed cells, keyed by cell id —
        #: more than one entry only after a failover reassignment
        self.pipelines: Dict[int, Pipeline] = {}
        self.cells: Dict[int, DV3DCell] = {}
        self.executor = Executor(caching=True, cache=cache)

    # -- message handling -------------------------------------------------------

    def handle(self, message: WireFrame) -> Optional[WireFrame]:
        """Process one message; returns the reply (None = no reply)."""
        if message.kind == protocol.KIND_WORKFLOW:
            cell_id = int(message.meta["cell_id"])
            self.pipelines[cell_id] = Pipeline.from_dict(message.meta["pipeline"])
            self.cells.pop(cell_id, None)  # a re-shipped workflow resets the cell
            return WireFrame(
                protocol.KIND_ACK, {"client_id": self.client_id, "cell_id": cell_id}
            )
        if message.kind == protocol.KIND_EXECUTE:
            return self._execute(message.meta)
        if message.kind == protocol.KIND_EVENT:
            return self._apply_event(message.meta)
        if message.kind == protocol.KIND_RENDER:
            return self._render(message.meta)
        if message.kind == protocol.KIND_HEARTBEAT:
            return WireFrame(
                protocol.KIND_HEARTBEAT,
                {"client_id": self.client_id, "cells": sorted(self.cells)},
            )
        if message.kind == protocol.KIND_SHUTDOWN:
            return None
        return self._error(f"unknown kind {message.kind!r}")

    def _error(self, text: str) -> WireFrame:
        return WireFrame(
            protocol.KIND_ERROR, {"client_id": self.client_id, "error": text}
        )

    def _report(self, cell_id: int, start: float, image, **extra: Any) -> WireFrame:
        """The per-frame summary sent instead of pixels."""
        return WireFrame(
            protocol.KIND_REPORT,
            {
                "client_id": self.client_id,
                "cell_id": cell_id,
                "duration": time.perf_counter() - start,
                "image_shape": list(image.shape),
                "image_mean": float(image.mean()),
                "image_digest": image_digest(image),
                **extra,
            },
        )

    def _execute(self, payload: Dict[str, Any]) -> WireFrame:
        cell_id = payload.get("cell_id")
        if cell_id not in self.pipelines:
            return self._error("no workflow received")
        start = time.perf_counter()
        try:
            faults.check(
                "hyperwall.client.execute", client=self.client_id, cell=cell_id
            )
            with obs.span(
                "hyperwall.client.execute",
                node=f"client-{self.client_id}",
                cell=cell_id,
            ):
                result = self.executor.execute(self.pipelines[cell_id])
            self.cells[cell_id] = result.output(cell_id, "cell")
            image = result.output(cell_id, "image")
        except Exception as exc:  # noqa: BLE001 - reported to the server
            return self._error(repr(exc))
        return self._report(
            cell_id, start, image,
            cache_hits=result.cache_hits, cache_misses=result.cache_misses,
        )

    def _apply_event(self, payload: Dict[str, Any]) -> WireFrame:
        cell_id = payload.get("cell_id")
        if cell_id not in self.cells:
            return self._error("event before execution")
        try:
            delta = self.cells[cell_id].handle_event(
                str(payload.get("event_kind", "key")),
                **dict(payload.get("event", {})),
            )
        except DV3DError:
            # incompatible gesture for this cell's plot type: acknowledged
            # and ignored (heterogeneous-wall semantics)
            delta = {}
        except Exception as exc:  # noqa: BLE001
            return self._error(repr(exc))
        return WireFrame(
            protocol.KIND_ACK,
            {
                "client_id": self.client_id,
                "cell_id": cell_id,
                "delta_keys": sorted(delta),
            },
        )

    def _render(self, payload: Dict[str, Any]) -> WireFrame:
        """Re-render a live cell (after propagated events changed it).

        This is the interactive refresh loop: events mutate the cell's
        plot state cheaply; a render message produces the new frame for
        the display without re-executing the data pipeline.  A message
        without a size means the size the cell's sub-workflow was
        shipped with.
        """
        cell_id = payload.get("cell_id")
        if cell_id not in self.cells:
            return self._error("render before execution")
        start = time.perf_counter()
        try:
            shipped = self.pipelines[cell_id].modules[cell_id].parameters
            width = int(payload.get("width") or shipped["width"])
            height = int(payload.get("height") or shipped["height"])
            with obs.span(
                "hyperwall.client.render",
                node=f"client-{self.client_id}",
                cell=cell_id,
            ):
                image = self.cells[cell_id].render(width, height).to_uint8()
        except Exception as exc:  # noqa: BLE001
            return self._error(repr(exc))
        return self._report(cell_id, start, image)


class HyperwallClient:
    """The socket loop around one :class:`DisplayNode`.

    *io_timeout* bounds every socket read/write once connected, so a
    dead server (or a dropped reply) surfaces as a timeout instead of a
    hang.  *cache* is the node's.
    """

    def __init__(
        self, host: str, port: int, client_id: int, io_timeout: float = 60.0,
        cache=None,
    ) -> None:
        self.host = host
        self.port = port
        self.io_timeout = float(io_timeout)
        self.node = DisplayNode(client_id, cache=cache)
        self._sock: Optional[socket.socket] = None

    def connect(self, timeout: float = 10.0) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=timeout)
        sock.settimeout(self.io_timeout)
        self._sock = sock
        protocol.send_frame(
            sock, WireFrame(protocol.KIND_HELLO, {"client_id": self.node.client_id})
        )

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def run(self) -> int:
        """Serve until shutdown; returns the number of messages handled.

        A lost server connection (reset, timeout, corrupt frame) ends
        the loop cleanly — the display node goes dark, it does not
        crash.
        """
        if self._sock is None:
            raise HyperwallError("client not connected")
        handled = 0
        while True:
            try:
                message = protocol.recv_frame(self._sock)
                if message is None:
                    break
                handled += 1
                if message.kind == protocol.KIND_SHUTDOWN:
                    break
                reply = self.node.handle(message)
                if reply is not None:
                    protocol.send_frame(self._sock, reply)
            except (OSError, HyperwallError):
                break
        self.close()
        return handled


def run_client(
    host: str, port: int, client_id: int, io_timeout: float = 60.0, cache=None
) -> int:
    """Process entry point: connect, serve, exit (used by the cluster)."""
    if cache is not None:
        # install process-wide so interactive re-renders (which happen
        # outside executor.execute) also reach the ambient result cache —
        # the tier shared with other processes; the cell's own kept
        # scene and frame need no config
        from repro.cache.config import set_config

        set_config(cache)
    client = HyperwallClient(host, port, client_id, io_timeout=io_timeout, cache=cache)
    client.connect()
    try:
        return client.run()
    finally:
        client.close()
