"""The hyperwall server (control) node.

"In a typical scenario the user would open (or construct) a workflow
with 15 cell modules on the server node.  At execution time the server
instance sends edited versions of the workflow to each client node for
local execution."  :class:`ControlNode` is that orchestration over
whatever links it is given:

1. partitions the multi-cell workflow and ships each client its
   1-cell sub-workflow (full tile resolution),
2. executes the reduced-resolution full workflow locally and draws
   each of its cells once (the GUI mirror spreadsheet, a
   :class:`~repro.hyperwall.client.DisplayNode`),
3. broadcasts each gesture (a :class:`~repro.dv3d.interaction.Gesture`)
   to every cell and collects replies,
4. asks for fresh frames, and recovers the cells of clients it lost.

A link is a connected socket, or anything with a socket's ``sendall`` /
``recv`` / ``close`` (:class:`~repro.hyperwall.protocol.InlineLink`);
every exchange goes through :meth:`ControlNode._send` /
:meth:`ControlNode._recv`.  :class:`HyperwallServer` is the control node
that listens on a port and accepts one connection per wall tile.

Fault tolerance (see docs/fault-tolerance.md): every per-client send
and receive is failure-checked (and, on a socket, deadline-bounded by
*io_timeout*).  A client whose link dies mid-frame is marked dead and
its cell is recovered according to *failover*:

* ``"reassign"`` (default) — the dead client's full-resolution
  sub-workflow is re-shipped to a surviving client (survivors tried
  under the *retry* :class:`~repro.resilience.RetryPolicy`), executed
  there, brought up to date with the session's gestures and drawn,
  falling back to the degraded mirror when no survivor can take it;
* ``"degrade"`` — the cell is served from the server's own
  reduced-resolution mirror cell;
* ``"fail_fast"`` — the pre-resilience behavior: raise
  :class:`~repro.util.errors.HyperwallError`.

Recovered frames are *partial, never silent*: each per-cell report
carries ``status`` (``live`` | ``reassigned`` | ``degraded``).
Application-level errors (a client replying ``KIND_ERROR``) still
raise — failover covers lost nodes, not broken workflows.  Tests drop
links deterministically through the ``hyperwall.server.send`` /
``hyperwall.server.recv`` fault sites (``client`` label).
"""

from __future__ import annotations

import socket
import time
from contextlib import suppress
from typing import Any, Dict, List, Optional

from repro import obs
from repro.dv3d.interaction import Gesture
from repro.dv3d.view import View
from repro.hyperwall import protocol
from repro.hyperwall.client import DisplayNode, image_digest
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.partition import (
    make_reduced_pipeline,
    partition_by_cell,
    reduced_size,
    set_cell_resolution,
)
from repro.resilience import RetryPolicy, faults
from repro.util.errors import HyperwallError
from repro.util.framing import WireFrame
from repro.workflow.pipeline import Pipeline

#: how the server recovers a cell whose client died mid-session
FAILOVER_POLICIES = ("reassign", "degrade", "fail_fast")


class ControlNode:
    """The control node: owns the mirror cells and one link per client."""

    def __init__(
        self,
        workflow: Pipeline,
        wall: Optional[WallGeometry] = None,
        reduction: int = 4,
        failover: str = "reassign",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if failover not in FAILOVER_POLICIES:
            raise HyperwallError(
                f"failover must be one of {FAILOVER_POLICIES}, got {failover!r}"
            )
        #: full-resolution 1-cell sub-workflows, keyed by cell id
        self._partitions = partition_by_cell(workflow)
        self.cell_ids = sorted(self._partitions)
        self.wall = wall or WallGeometry(columns=len(self.cell_ids), rows=1)
        if len(self.cell_ids) > self.wall.n_tiles:
            raise HyperwallError(
                f"{len(self.cell_ids)} cells exceed the wall's {self.wall.n_tiles} tiles"
            )
        for cell_id, sub in self._partitions.items():
            set_cell_resolution(sub, cell_id, self.wall.tile_width, self.wall.tile_height)
        self.reduction = int(reduction)
        self.failover = failover
        self.retry = retry or RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=0.5, seed="hyperwall"
        )
        self.server_pipeline = make_reduced_pipeline(workflow, self.reduction)
        #: the mirror's cells, keyed by cell id
        self.mirror = DisplayNode(-1)
        #: one link per connected client
        self._connections: Dict[int, Any] = {}
        #: primary cell ownership from :meth:`distribute_workflows`
        self.assignment: Dict[int, int] = {}
        #: cells re-homed by failover: cell_id -> surviving client
        self._standby: Dict[int, int] = {}
        #: clients lost this session: client_id -> reason
        self._dead: Dict[int, str] = {}
        #: gestures broadcast since the session started — what a
        #: re-homed cell is brought up to date with
        self.event_history: List[Gesture] = []

    # -- links ----------------------------------------------------------------

    def _conn(self, client_id: int):
        try:
            return self._connections[client_id]
        except KeyError:
            raise HyperwallError(f"no connected client {client_id}") from None

    @property
    def dead_clients(self) -> Dict[int, str]:
        """Clients lost this session and why (empty when all healthy)."""
        return dict(self._dead)

    def _mark_dead(self, client_id: int, reason: str) -> None:
        conn = self._connections.pop(client_id, None)
        if conn is not None:
            with suppress(OSError):
                conn.close()
        self._dead[client_id] = reason
        obs.counter("hyperwall.clients.lost", client=str(client_id))

    def _send(self, client_id: int, message: WireFrame) -> bool:
        """Send to one client; False (and client marked dead) on failure."""
        conn = self._connections.get(client_id)
        if conn is None:
            return False
        fault = faults.check("hyperwall.server.send", client=client_id, kind=message.kind)
        if fault is not None and fault.action == "drop":
            self._mark_dead(client_id, "injected connection drop on send")
            return False
        try:
            protocol.send_frame(conn, message)
            return True
        except (OSError, HyperwallError) as exc:
            self._mark_dead(client_id, f"send failed: {exc}")
            return False

    def _recv(self, client_id: int) -> Optional[WireFrame]:
        """Receive one reply; None (and client marked dead) on EOF,
        timeout, connection error, or a corrupt frame."""
        conn = self._connections.get(client_id)
        if conn is None:
            return None
        fault = faults.check("hyperwall.server.recv", client=client_id)
        if fault is not None and fault.action == "drop":
            self._mark_dead(client_id, "injected connection drop on recv")
            return None
        try:
            reply = protocol.recv_frame(conn)
        except (OSError, HyperwallError) as exc:
            self._mark_dead(client_id, f"recv failed: {exc}")
            return None
        if reply is None:
            self._mark_dead(client_id, "connection closed")
            return None
        return reply

    def _ask(self, client_id: int, message: WireFrame) -> Optional[WireFrame]:
        """One request/reply exchange; None when the client was lost."""
        return self._recv(client_id) if self._send(client_id, message) else None

    def _owners(self) -> Dict[int, int]:
        """``{cell_id: client_id}`` for every cell some client holds now."""
        owners = {cell_id: client_id for client_id, cell_id in self.assignment.items()}
        owners.update(self._standby)
        return dict(sorted(owners.items()))

    # -- workflow distribution --------------------------------------------------

    def distribute_workflows(self) -> Dict[int, int]:
        """Start the session over: ship each connected client its 1-cell
        sub-workflow (which releases that cell on the client), release
        the mirror's cells and clear the gesture history.  Until the next
        call, an execute keeps each unchanged cell with the gestures it
        received, so a cell re-homed at any point replays the history.

        Clients are assigned cells in (client_id-sorted, cell_id-sorted)
        order.  Returns ``{client_id: cell_id}``.  A client lost here is
        marked dead and keeps its assignment, so :meth:`execute_clients`
        recovers its cell (or raises, under ``fail_fast``).
        """
        client_ids = sorted(self._connections)
        if len(client_ids) < len(self.cell_ids):
            raise HyperwallError(
                f"{len(self.cell_ids)} cells need {len(self.cell_ids)} clients; "
                f"only {len(client_ids)} connected"
            )
        self.assignment = dict(zip(client_ids, self.cell_ids))
        self._standby.clear()
        self.event_history.clear()
        for cell_id in self.cell_ids:
            self.mirror.release(cell_id)
        for client_id, cell_id in self.assignment.items():
            ack = self._ask(client_id, self._workflow_frame(cell_id))
            if ack is not None and ack.kind != protocol.KIND_ACK:
                raise HyperwallError(f"client {client_id} failed to ack its workflow")
        return dict(self.assignment)

    def _workflow_frame(self, cell_id: int) -> WireFrame:
        return WireFrame(
            protocol.KIND_WORKFLOW,
            {"pipeline": self._partitions[cell_id].to_dict(), "cell_id": cell_id},
        )

    # -- execution ------------------------------------------------------------------

    def execute_server(self) -> Dict[str, Any]:
        """Run the reduced-resolution mirror workflow on this node and
        draw each mirror cell once, at its reduced size."""
        start = time.perf_counter()
        shapes = {}
        with obs.span("hyperwall.server.execute", node="server"):
            for cid in self.cell_ids:
                cell = self.mirror.execute(cid, self.server_pipeline, cid).output(cid, "cell")
                size = self.server_pipeline.modules[cid].parameters
                frame = View(size["width"], size["height"]).draw(cell)
                shapes[cid] = [frame.height, frame.width, 3]
        return {
            "duration": time.perf_counter() - start,
            "n_cells": len(self.cell_ids),
            "image_shapes": shapes,
        }

    def execute_clients(self) -> List[Dict[str, Any]]:
        """Trigger every cell's client and gather the per-cell reports.

        Every report carries ``status``: ``live`` for a healthy client,
        ``reassigned``/``degraded`` for cells recovered from a dead one
        (see the module docstring).  Under ``fail_fast`` a lost client
        raises instead; an application-level ``KIND_ERROR`` reply
        always raises.
        """
        with obs.span("hyperwall.server.execute_clients", clients=len(self._connections)):
            return self._round(protocol.KIND_EXECUTE, "execution")

    def request_renders(self, width: int = 0, height: int = 0) -> List[Dict[str, Any]]:
        """Ask every cell's client for a fresh frame of its (possibly
        gesture-mutated) cell — the display refresh after interaction.
        Without a size each cell renders at the size it was shipped.

        A cell whose client is lost here is recovered as in
        :meth:`execute_clients` and rendered with the session's gestures
        applied.
        """
        return self._round(protocol.KIND_RENDER, "render", width=width, height=height)

    def _round(self, kind: str, what: str, **size: int) -> List[Dict[str, Any]]:
        """Send *kind* to every cell's owner (all triggered before any
        reply is awaited, so clients work in parallel), gather one report
        per cell and recover the cells whose owner is, or was just, lost."""
        owners = self._owners()
        triggered = {
            cell_id: self._send(client_id, WireFrame(kind, dict(size, cell_id=cell_id)))
            for cell_id, client_id in owners.items()
        }
        reports, lost = [], []
        for cell_id in self.cell_ids:
            client_id = owners.get(cell_id)
            reply = self._recv(client_id) if triggered.get(cell_id) else None
            if reply is None:
                if self.failover == "fail_fast":
                    raise HyperwallError(f"client {client_id} disconnected during {what}")
                lost.append(cell_id)
                continue
            if reply.kind == protocol.KIND_ERROR:
                raise HyperwallError(f"client {client_id} failed: {reply.meta.get('error')}")
            obs.histogram(
                "hyperwall.client.duration",
                float(reply.meta.get("duration", 0.0)),
                client=str(client_id),
            )
            if cell_id in self._standby:
                reports.append(dict(reply.meta, status="reassigned", reassigned_to=client_id))
            else:
                reports.append(dict(reply.meta, status="live"))
        for cell_id in lost:
            if cell_id in self._standby:
                del self._standby[cell_id]
            elif cell_id in owners:
                del self.assignment[owners[cell_id]]
            reports.append(self._recover_cell(cell_id, size))
        return reports

    # -- failover -------------------------------------------------------------------

    def _recover_cell(self, cell_id: int, size: Dict[str, int]) -> Dict[str, Any]:
        """Produce a report for a cell whose client died; *size* is the
        render a refresh asked for (empty during an execute)."""
        t0 = time.monotonic()
        report = None
        if self.failover == "reassign":
            report = self._reassign_cell(cell_id, size)
        if report is None:
            report = self._degraded_report(cell_id)
        obs.histogram(
            "resilience.recovery.seconds",
            time.monotonic() - t0,
            site="hyperwall",
            cell=str(cell_id),
        )
        return report

    def _reassign_cell(self, cell_id: int, size: Dict[str, int]) -> Optional[Dict[str, Any]]:
        """Re-home *cell_id* on a survivor; None when none can take it.

        The survivor is shipped the workflow, executes it, applies the
        session's gestures in order and renders — at the size a refresh
        asked for, or at the shipped size — so the report is the picture
        the lost client would have shown.
        """
        steps = [
            self._workflow_frame(cell_id),
            WireFrame(protocol.KIND_EXECUTE, {"cell_id": cell_id}),
            *(self._event_frame(gesture, cell_id) for gesture in self.event_history),
            WireFrame(protocol.KIND_RENDER, dict(size, cell_id=cell_id)),
        ]
        candidates = iter(sorted(self._connections))

        def try_next_survivor() -> Dict[str, Any]:
            survivor = next(candidates, None)
            if survivor is None:
                raise HyperwallError(f"no surviving client can take cell {cell_id}")
            report: Dict[str, Any] = {}
            for step in steps:
                reply = self._ask(survivor, step)
                if reply is None or reply.kind == protocol.KIND_ERROR:
                    raise HyperwallError(
                        f"survivor {survivor} failed at {step.kind!r} of cell {cell_id}"
                    )
                if reply.kind == protocol.KIND_REPORT:
                    report = reply.meta  # the last frame drawn is the one shown
            self._standby[cell_id] = survivor
            return dict(report, status="reassigned", reassigned_to=survivor)

        try:
            return self.retry.run(
                try_next_survivor,
                retry_on=(HyperwallError,),
                label=f"hyperwall.reassign.cell-{cell_id}",
            )
        except HyperwallError:
            return None

    def _degraded_report(self, cell_id: int) -> Dict[str, Any]:
        """Serve a lost cell from the reduced-resolution mirror."""
        if cell_id not in self.mirror.cells:
            self.execute_server()  # mirror not built yet: build it lazily
        view = View(*reduced_size(self.wall.tile_width, self.wall.tile_height, self.reduction))
        start = time.perf_counter()
        with obs.span("hyperwall.server.degraded_render", cell=cell_id):
            image = view.draw(self.mirror.cells[cell_id]).to_uint8()
        obs.counter("resilience.degraded", site="hyperwall.mirror", cell=str(cell_id))
        return {
            "client_id": None,
            "cell_id": cell_id,
            "duration": time.perf_counter() - start,
            "image_shape": list(image.shape),
            "image_mean": float(image.mean()),
            "image_digest": image_digest(image),
            "status": "degraded",
        }

    # -- interaction propagation -------------------------------------------------------

    def broadcast_event(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Apply one gesture to the mirror, then propagate it to every
        cell a client holds.

        A malformed gesture raises :class:`~repro.util.errors.DV3DError`
        before any cell, node or the history sees it.  Every cell
        applies a well-formed one through
        :meth:`~repro.dv3d.cell.DV3DCell.handle_event`, so a cell whose
        plot type has no binding for it ignores it (the spreadsheet's
        heterogeneous-cell rule).  Clients lost mid-broadcast are
        skipped (their acks simply do not appear; the next refresh
        recovers their cells, this gesture included) unless *failover*
        is ``fail_fast``.  Returns the mirror's deltas per cell and, per
        client, the state keys each of its cells changed: ``{"server":
        {cell_id: delta}, "clients": {client_id: {cell_id: delta_keys}}}``.
        """
        gesture = Gesture(kind, payload)
        owners = self._owners()
        obs.counter("hyperwall.events.broadcast", kind=kind)
        server_deltas = {
            cid: cell.handle_event(kind, **gesture.payload)
            for cid, cell in self.mirror.cells.items()
        }
        self.event_history.append(gesture)
        sent = {
            cell_id: self._send(client_id, self._event_frame(gesture, cell_id))
            for cell_id, client_id in owners.items()
        }
        acks: Dict[int, Dict[int, List[str]]] = {}
        for cell_id, client_id in owners.items():
            reply = self._recv(client_id) if sent[cell_id] else None
            if reply is None:
                if self.failover == "fail_fast":
                    raise HyperwallError(
                        f"client {client_id} failed to apply event: disconnected"
                    )
                continue
            if reply.kind == protocol.KIND_ERROR:
                raise HyperwallError(
                    f"client {client_id} failed to apply event: {reply.meta}"
                )
            acks.setdefault(client_id, {})[cell_id] = reply.meta["delta_keys"]
        return {"server": server_deltas, "clients": acks}

    @staticmethod
    def _event_frame(gesture: Gesture, cell_id: int) -> WireFrame:
        return WireFrame(protocol.KIND_EVENT, dict(gesture.to_dict(), cell_id=cell_id))

    # -- teardown -------------------------------------------------------------------------

    def shutdown(self) -> None:
        for conn in self._connections.values():
            with suppress(OSError, HyperwallError):
                protocol.send_frame(conn, WireFrame(protocol.KIND_SHUTDOWN))
            with suppress(OSError):
                conn.close()
        self._connections.clear()


class HyperwallServer(ControlNode):
    """The control node of a cluster: a listening socket, one accepted
    connection per display node, every read and write bounded by
    *io_timeout*."""

    def __init__(
        self,
        workflow: Pipeline,
        wall: Optional[WallGeometry] = None,
        reduction: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        io_timeout: float = 120.0,
        failover: str = "reassign",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(workflow, wall, reduction, failover, retry)
        self.io_timeout = float(io_timeout)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(self.wall.n_tiles)
        self.host, self.port = self._listener.getsockname()

    def accept_clients(self, count: int, timeout: float = 30.0) -> List[int]:
        """Accept *count* client connections; returns their ids in order.

        On any error every socket accepted so far is closed — a failed
        accept round must not leak connections.
        """
        self._listener.settimeout(timeout)
        accepted: List[int] = []
        conn: Optional[socket.socket] = None
        try:
            while len(accepted) < count:
                conn, addr = self._listener.accept()
                conn.settimeout(self.io_timeout)
                try:
                    hello = protocol.recv_frame(conn)
                except HyperwallError as exc:
                    raise HyperwallError(
                        f"client at {addr[0]}:{addr[1]} sent a bad hello: {exc}"
                    ) from exc
                if hello is None or hello.kind != protocol.KIND_HELLO:
                    raise HyperwallError(
                        f"client at {addr[0]}:{addr[1]} failed to introduce itself"
                    )
                client_id = int(hello.meta["client_id"])
                self._connections[client_id] = conn
                conn = None
                accepted.append(client_id)
        except Exception:
            for leaked in [conn, *(self._connections.pop(c) for c in accepted)]:
                if leaked is not None:
                    with suppress(OSError):
                        leaked.close()
            raise
        return accepted

    def shutdown(self) -> None:
        super().shutdown()
        self._listener.close()
