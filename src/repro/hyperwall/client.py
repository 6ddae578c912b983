"""The hyperwall client (display) node.

"Each client instance opens a single-cell visualization spreadsheet
window, covering its hyperwall display."  The client connects to the
server, receives its sub-workflow(s), executes them at full display
resolution, applies propagated interaction events, and reports results
(timings and image summaries — pixels stay local to the display node).

A client normally owns exactly one cell, but failover can hand it a
dead neighbor's cell too: workflows are keyed by ``cell_id``, and
``execute``/``render`` messages may target a specific cell.  The
``hyperwall.client.execute`` fault site lets tests kill or fail a
client deterministically mid-execution (``client``/``cell`` labels).
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
from repro.util.errors import HyperwallError
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


class HyperwallClient:
    """One display node's control loop.

    *io_timeout* bounds every socket read/write once connected, so a
    dead server (or a dropped reply) surfaces as a timeout instead of a
    hang.  *cache* (a :class:`repro.cache.CacheConfig`) opts this
    node's executor into the shared result cache.
    """

    def __init__(
        self, host: str, port: int, client_id: int, io_timeout: float = 60.0,
        cache=None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = int(client_id)
        self.io_timeout = float(io_timeout)
        #: sub-workflows and their executed cells, keyed by cell id —
        #: more than one entry only after a failover reassignment
        self.pipelines: Dict[int, Pipeline] = {}
        self.cells: Dict[int, DV3DCell] = {}
        self.executor = Executor(caching=True, cache=cache)
        self._sock: Optional[socket.socket] = None

    # -- connection -------------------------------------------------------

    def connect(self, timeout: float = 10.0) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=timeout)
        sock.settimeout(self.io_timeout)
        self._sock = sock
        protocol.send_frame(sock, WireFrame(protocol.KIND_HELLO, {"client_id": self.client_id}))

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    # -- message handling -------------------------------------------------------

    def _handle(self, message: WireFrame) -> Optional[WireFrame]:
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

    def _target_cell(self, payload: Dict[str, Any], executed: bool) -> Optional[int]:
        """Which cell a message addresses: explicit ``cell_id``, else the
        first un-executed workflow (*executed* False) or first live cell."""
        if payload.get("cell_id") is not None:
            return int(payload["cell_id"])
        universe = self.cells if executed else self.pipelines
        if not universe:
            return None
        if not executed:
            pending = [cid for cid in sorted(self.pipelines) if cid not in self.cells]
            if pending:
                return pending[0]
        return min(universe)

    def _execute(self, payload: Dict[str, Any]) -> WireFrame:
        cell_id = self._target_cell(payload, executed=False)
        if cell_id is None or cell_id not in self.pipelines:
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
        if not self.cells:
            return self._error("event before execution")
        from repro.util.errors import DV3DError

        delta_keys: set = set()
        for cell in (self.cells[cid] for cid in sorted(self.cells)):
            try:
                delta = cell.handle_event(
                    str(payload.get("event_kind", "key")),
                    **dict(payload.get("event", {})),
                )
            except DV3DError:
                # incompatible gesture for this cell's plot type: acknowledged
                # and ignored (heterogeneous-wall semantics)
                delta = {}
            except Exception as exc:  # noqa: BLE001
                return self._error(repr(exc))
            delta_keys.update(delta)
        return WireFrame(
            protocol.KIND_ACK,
            {"client_id": self.client_id, "delta_keys": sorted(delta_keys)},
        )

    def _render(self, payload: Dict[str, Any]) -> WireFrame:
        """Re-render a live cell (after propagated events changed it).

        This is the interactive refresh loop: events mutate the cell's
        plot state cheaply; a render message produces the new frame for
        the display without re-executing the data pipeline.
        """
        cell_id = self._target_cell(payload, executed=True)
        if cell_id is None or cell_id not in self.cells:
            return self._error("render before execution")
        cell = self.cells[cell_id]
        width = int(payload.get("width", 0))
        height = int(payload.get("height", 0))
        start = time.perf_counter()
        try:
            with obs.span(
                "hyperwall.client.render",
                node=f"client-{self.client_id}",
                cell=cell_id,
            ):
                if width > 0 and height > 0:
                    frame = cell.render(width, height)
                else:
                    # reuse the executed cell's own size via a fresh render
                    frame = cell.render(320, 240)
                image = frame.to_uint8()
        except Exception as exc:  # noqa: BLE001
            return self._error(repr(exc))
        return self._report(cell_id, start, image)

    # -- main loop ---------------------------------------------------------------

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
                reply = self._handle(message)
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
