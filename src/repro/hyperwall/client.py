"""The hyperwall client (display) node, and the one host of live cells.

"Each client instance opens a single-cell visualization spreadsheet
window, covering its hyperwall display."  The client connects to the
server, receives its sub-workflow(s), executes them, draws each cell
once at full display resolution, applies propagated gestures, and
reports results (timings and image summaries — pixels stay local to
the display node).

Every live cell — a wall tile's, the mirror's, a spreadsheet's, the
serving backend's — lives in a :class:`DisplayNode`, whose
:meth:`~DisplayNode.execute` is the one rule: an unchanged workflow
returns the kept cell.  Failover can hand a node a dead neighbor's
cell, so cells are keyed by ``cell_id`` and every message names its
cell.  :class:`HyperwallClient` is the socket loop around one node, and
:class:`~repro.hyperwall.inproc.InProcessHyperwall` drives the same
nodes on the caller's thread.  The ``hyperwall.client.execute`` fault
site lets tests kill or fail a node deterministically mid-execution
(``client``/``cell`` labels).
"""

from __future__ import annotations

import hashlib
import socket
import time
from typing import Any, Dict, FrozenSet, Hashable, Optional, Tuple

import numpy as np

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.dv3d.interaction import Gesture
from repro.dv3d.view import View
from repro.hyperwall import protocol
from repro.resilience import faults
from repro.util.errors import HyperwallError
from repro.util.framing import WireFrame
from repro.workflow.executor import ExecutionResult, Executor, ModuleRun
from repro.workflow.pipeline import Pipeline


def image_digest(image: np.ndarray) -> str:
    """SHA-256 of a rendered frame's uint8 bytes.

    Reports carry this instead of pixels (which stay on the display
    node), so byte-identity of repeated frames — e.g. a replayed
    gesture, or a reassigned cell matching its original — is assertable
    across process boundaries.
    """
    arr = np.ascontiguousarray(image)
    return hashlib.sha256(arr.tobytes()).hexdigest()


class DisplayNode:
    """One display node, transport-free: the live cells it hosts, and
    :meth:`handle`, which takes a message and returns the reply.
    """

    def __init__(self, client_id: int) -> None:
        self.client_id = int(client_id)
        #: shipped sub-workflows, keyed by cell id — more than one entry
        #: only after a failover reassignment
        self.pipelines: Dict[int, Pipeline] = {}
        #: live cells by key; per key, the signature of the sink that
        #: built it and the signatures of that sink's upstream closure
        self.cells: Dict[Hashable, DV3DCell] = {}
        self._holds: Dict[Hashable, Tuple[str, FrozenSet[str]]] = {}
        self.executor = Executor(caching=True)

    def execute(self, key: Hashable, pipeline: Pipeline, sink: int) -> ExecutionResult:
        """The cell *pipeline*'s *sink* module builds, kept under *key*.

        When the sink's signature equals the kept one, the kept cell —
        camera, picks, scene and frame memos — is the result, recorded as
        one ``cached`` run of the sink, and nothing executes.  Otherwise
        the sink's upstream closure executes and its cell replaces it.
        The signature is the one kept on *pipeline*
        (:meth:`Executor.signatures`), so on a graph no mutator touched
        since the last call nothing is hashed: the check is a lookup.

        An executor memo entry lives while some live cell's upstream
        closure names it.  The old cell goes before the new one is built;
        its closure holds until the execute ends, so an edit below the
        reader still hits the reader.  A failed execute releases *key*.
        """
        signatures = self.executor.signatures(pipeline)
        held = self._holds.get(key)
        if held is not None and held[0] == signatures[sink]:
            run = ModuleRun(sink, pipeline.modules[sink].name, "cached", 0.0)
            return ExecutionResult({(sink, "cell"): self.cells[key]}, [run], cache_hits=1)
        self.cells.pop(key, None)
        try:
            result = self.executor.execute(pipeline, targets=[sink])
        except BaseException:
            self.release(key)
            raise
        self.cells[key] = result.output(sink, "cell")
        closure = frozenset(signatures[m] for m in pipeline.upstream_closure([sink]))
        self._holds[key] = (signatures[sink], closure)
        self._prune()
        return result

    def release(self, key: Hashable) -> None:
        """Drop *key*'s live cell, with the cell's memos and every
        executor memo entry no other live cell's closure names."""
        self.cells.pop(key, None)
        self._holds.pop(key, None)
        self._prune()

    def _prune(self) -> None:
        self.executor.retain(frozenset().union(*(c for _, c in self._holds.values())))

    # -- message handling -------------------------------------------------------

    def handle(self, message: WireFrame) -> Optional[WireFrame]:
        """Process one message; returns the reply (None = no reply)."""
        if message.kind == protocol.KIND_WORKFLOW:
            cell_id = int(message.meta["cell_id"])
            self.pipelines[cell_id] = Pipeline.from_dict(message.meta["pipeline"])
            self.release(cell_id)  # a re-shipped workflow starts the cell over
            return WireFrame(
                protocol.KIND_ACK, {"client_id": self.client_id, "cell_id": cell_id}
            )
        if message.kind == protocol.KIND_EXECUTE:
            return self._execute(message.meta)
        if message.kind == protocol.KIND_EVENT:
            return self._apply_event(message.meta)
        if message.kind == protocol.KIND_RENDER:
            return self._render(message.meta, time.perf_counter())
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
                result = self.execute(cell_id, self.pipelines[cell_id], cell_id)
        except Exception as exc:  # noqa: BLE001 - reported to the server
            return self._error(repr(exc))
        return self._render(
            payload, start,
            cache_hits=result.cache_hits, cache_misses=result.cache_misses,
        )

    def _apply_event(self, payload: Dict[str, Any]) -> WireFrame:
        cell_id = payload.get("cell_id")
        if cell_id not in self.cells:
            return self._error("event before execution")
        try:  # a frame without a well-formed gesture is an error reply
            gesture = Gesture.from_dict(payload)
            delta = self.cells[cell_id].handle_event(gesture.kind, **gesture.payload)
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

    def _render(self, payload: Dict[str, Any], start: float, **extra: Any) -> WireFrame:
        """Draw a live cell (after propagated gestures changed it).

        This is the interactive refresh loop: gestures mutate the cell's
        plot state cheaply; a render message produces the new frame for
        the display without re-executing the data pipeline.  A dimension
        the message leaves 0 or out is the one the cell's sub-workflow
        was shipped with; :meth:`View.parse <repro.dv3d.view.View.parse>`
        checks the size.  An execute's one draw is this one.
        """
        cell_id = payload.get("cell_id")
        if cell_id not in self.cells:
            return self._error("render before execution")
        try:
            shipped = self.pipelines[cell_id].modules[cell_id].parameters
            view = View.parse({k: payload.get(k) or shipped[k] for k in ("width", "height")})
            with obs.span(
                "hyperwall.client.render",
                node=f"client-{self.client_id}",
                cell=cell_id,
            ):
                image = view.draw(self.cells[cell_id]).to_uint8()
        except Exception as exc:  # noqa: BLE001
            return self._error(repr(exc))
        return self._report(cell_id, start, image, **extra)


class HyperwallClient:
    """The socket loop around one :class:`DisplayNode`.

    *io_timeout* bounds every socket read/write once connected, so a
    dead server (or a dropped reply) surfaces as a timeout instead of a
    hang.
    """

    def __init__(
        self, host: str, port: int, client_id: int, io_timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.io_timeout = float(io_timeout)
        self.node = DisplayNode(client_id)
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


def run_client(host: str, port: int, client_id: int, io_timeout: float = 60.0) -> int:
    """Process entry point: connect, serve, exit (used by the cluster)."""
    client = HyperwallClient(host, port, client_id, io_timeout=io_timeout)
    client.connect()
    try:
        return client.run()
    finally:
        client.close()
