"""The hyperwall server (control) node.

"In a typical scenario the user would open (or construct) a workflow
with 15 cell modules on the server node.  At execution time the server
instance sends edited versions of the workflow to each client node for
local execution."  The server here:

1. accepts client connections (one per wall tile),
2. partitions the multi-cell workflow and ships each client its
   1-cell sub-workflow (full tile resolution),
3. executes the reduced-resolution full workflow locally (the GUI
   mirror spreadsheet),
4. broadcasts interaction events to all clients and collects replies.

Fault tolerance (see docs/fault-tolerance.md): every per-client send
and receive is deadline-bounded (*io_timeout*) and failure-checked.  A
client whose connection dies mid-frame is marked dead and its cell is
recovered according to *failover*:

* ``"reassign"`` (default) — the dead client's full-resolution
  sub-workflow is re-shipped to a surviving client (survivors tried
  under the *retry* :class:`~repro.resilience.RetryPolicy`), falling
  back to the degraded mirror when no survivor can take it;
* ``"degrade"`` — the cell is served from the server's own
  reduced-resolution mirror cell;
* ``"fail_fast"`` — the pre-resilience behavior: raise
  :class:`~repro.util.errors.HyperwallError`.

Recovered frames are *partial, never silent*: each per-cell report
carries ``status`` (``live`` | ``reassigned`` | ``degraded``).
Application-level errors (a client replying ``KIND_ERROR``) still
raise — failover covers lost nodes, not broken workflows.  Tests drop
connections deterministically through the ``hyperwall.server.send`` /
``hyperwall.server.recv`` fault sites (``client`` label).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.hyperwall import protocol
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.partition import (
    find_cell_modules,
    make_reduced_pipeline,
    partition_by_cell,
    set_cell_resolution,
)
from repro.resilience import RetryPolicy, faults
from repro.util.errors import HyperwallError
from repro.util.framing import WireFrame
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline

#: how the server recovers a cell whose client died mid-session
FAILOVER_POLICIES = ("reassign", "degrade", "fail_fast")


class HyperwallServer:
    """The control node: owns the listening socket and the mirror cells."""

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
        cache=None,
    ) -> None:
        if failover not in FAILOVER_POLICIES:
            raise HyperwallError(
                f"failover must be one of {FAILOVER_POLICIES}, got {failover!r}"
            )
        self.workflow = workflow
        cells = find_cell_modules(workflow)
        if not cells:
            raise HyperwallError("workflow has no DV3DCell modules")
        self.wall = wall or WallGeometry(columns=max(len(cells), 1), rows=1)
        if len(cells) > self.wall.n_tiles:
            raise HyperwallError(
                f"{len(cells)} cells exceed the wall's {self.wall.n_tiles} tiles"
            )
        self.cell_ids = cells
        self.reduction = int(reduction)
        self.io_timeout = float(io_timeout)
        self.failover = failover
        self.retry = retry or RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=0.5, seed="hyperwall"
        )
        self.server_pipeline = make_reduced_pipeline(workflow, self.reduction)
        #: optional CacheConfig shared with degraded mirror renders
        self.cache = cache
        self.server_executor = Executor(caching=True, cache=cache)
        self.server_cells: Dict[int, DV3DCell] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(self.wall.n_tiles)
        self.host, self.port = self._listener.getsockname()
        self._connections: Dict[int, socket.socket] = {}
        self._lock = threading.Lock()
        #: primary cell ownership from :meth:`distribute_workflows`
        self.assignment: Dict[int, int] = {}
        self._partitions: Dict[int, Pipeline] = {}
        #: cells re-homed by failover: cell_id -> surviving client
        self._standby: Dict[int, int] = {}
        #: clients lost this session: client_id -> reason
        self._dead: Dict[int, str] = {}

    # -- connection management ------------------------------------------------

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
                with self._lock:
                    self._connections[client_id] = conn
                conn = None
                accepted.append(client_id)
        except Exception:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            with self._lock:
                for client_id in accepted:
                    leaked = self._connections.pop(client_id, None)
                    if leaked is not None:
                        try:
                            leaked.close()
                        except OSError:
                            pass
            raise
        return accepted

    def _conn(self, client_id: int) -> socket.socket:
        try:
            return self._connections[client_id]
        except KeyError:
            raise HyperwallError(f"no connected client {client_id}") from None

    @property
    def dead_clients(self) -> Dict[int, str]:
        """Clients lost this session and why (empty when all healthy)."""
        return dict(self._dead)

    def _mark_dead(self, client_id: int, reason: str) -> None:
        with self._lock:
            conn = self._connections.pop(client_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
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

    # -- workflow distribution --------------------------------------------------

    def distribute_workflows(self) -> Dict[int, int]:
        """Ship each connected client its 1-cell sub-workflow.

        Clients are assigned cells in (client_id-sorted, cell_id-sorted)
        order.  Returns ``{client_id: cell_id}``.
        """
        self._partitions = partition_by_cell(self.workflow)
        assignment: Dict[int, int] = {}
        client_ids = sorted(self._connections)
        if len(client_ids) < len(self._partitions):
            raise HyperwallError(
                f"{len(self._partitions)} cells need {len(self._partitions)} clients; "
                f"only {len(client_ids)} connected"
            )
        for client_id, cell_id in zip(client_ids, sorted(self._partitions)):
            sub = self._partitions[cell_id]
            set_cell_resolution(sub, cell_id, self.wall.tile_width, self.wall.tile_height)
            message = WireFrame(
                protocol.KIND_WORKFLOW,
                {"pipeline": sub.to_dict(), "cell_id": cell_id},
            )
            conn = self._conn(client_id)
            protocol.send_frame(conn, message)
            ack = protocol.recv_frame(conn)
            if ack is None or ack.kind != protocol.KIND_ACK:
                raise HyperwallError(f"client {client_id} failed to ack its workflow")
            assignment[client_id] = cell_id
        self.assignment = dict(assignment)
        return assignment

    # -- execution ------------------------------------------------------------------

    def execute_server(self) -> Dict[str, Any]:
        """Run the reduced-resolution mirror workflow on this node."""
        start = time.perf_counter()
        with obs.span("hyperwall.server.execute", node="server"):
            result = self.server_executor.execute(self.server_pipeline)
        self.server_cells = {
            cid: result.output(cid, "cell")
            for cid in find_cell_modules(self.server_pipeline)
        }
        return {"duration": time.perf_counter() - start, "n_cells": len(self.server_cells)}

    def execute_clients(self) -> List[Dict[str, Any]]:
        """Trigger all clients and gather their per-cell reports.

        Every report carries ``status``: ``live`` for a healthy client,
        ``reassigned``/``degraded`` for cells recovered from a dead one
        (see the module docstring).  Under ``fail_fast`` a lost client
        raises instead; an application-level ``KIND_ERROR`` reply
        always raises.
        """
        client_ids = sorted(self._connections)
        with obs.span("hyperwall.server.execute_clients", clients=len(client_ids)):
            triggered = []
            for client_id in client_ids:
                if self._send(client_id, WireFrame(protocol.KIND_EXECUTE)):
                    triggered.append(client_id)
                elif self.failover == "fail_fast":
                    raise HyperwallError(
                        f"client {client_id} disconnected during execution"
                    )
            reports = []
            lost: List[int] = []
            for client_id in client_ids:
                if client_id not in triggered:
                    lost.append(client_id)
                    continue
                reply = self._recv(client_id)
                if reply is None:
                    if self.failover == "fail_fast":
                        raise HyperwallError(
                            f"client {client_id} disconnected during execution"
                        )
                    lost.append(client_id)
                    continue
                if reply.kind == protocol.KIND_ERROR:
                    raise HyperwallError(
                        f"client {client_id} failed: {reply.meta.get('error')}"
                    )
                if obs.enabled():
                    obs.histogram(
                        "hyperwall.client.duration",
                        float(reply.meta.get("duration", 0.0)),
                        client=str(client_id),
                    )
                report = dict(reply.meta)
                report["status"] = "live"
                reports.append(report)
            for client_id in lost:
                cell_id = self.assignment.pop(client_id, None)
                if cell_id is not None:
                    reports.append(self._recover_cell(cell_id))
        return reports

    # -- failover -------------------------------------------------------------------

    def _recover_cell(self, cell_id: int) -> Dict[str, Any]:
        """Produce a report for a cell whose client died."""
        t0 = time.monotonic()
        report = None
        if self.failover == "reassign":
            report = self._reassign_cell(cell_id)
        if report is None:
            report = self._degraded_report(cell_id)
        if obs.enabled():
            obs.histogram(
                "resilience.recovery.seconds",
                time.monotonic() - t0,
                site="hyperwall",
                cell=str(cell_id),
            )
        return report

    def _reassign_cell(self, cell_id: int) -> Optional[Dict[str, Any]]:
        """Re-home *cell_id* on a survivor; None when none can take it."""
        sub = self._partitions.get(cell_id)
        if sub is None:
            return None
        candidates = iter(sorted(self._connections))

        def try_next_survivor() -> Dict[str, Any]:
            survivor = next(candidates, None)
            if survivor is None:
                raise HyperwallError(f"no surviving client can take cell {cell_id}")
            workflow = WireFrame(
                protocol.KIND_WORKFLOW,
                {"pipeline": sub.to_dict(), "cell_id": cell_id},
            )
            if not self._send(survivor, workflow):
                raise HyperwallError(f"survivor {survivor} lost while re-homing")
            ack = self._recv(survivor)
            if ack is None or ack.kind != protocol.KIND_ACK:
                raise HyperwallError(f"survivor {survivor} failed to ack cell {cell_id}")
            if not self._send(
                survivor, WireFrame(protocol.KIND_EXECUTE, {"cell_id": cell_id})
            ):
                raise HyperwallError(f"survivor {survivor} lost during re-execution")
            reply = self._recv(survivor)
            if reply is None or reply.kind != protocol.KIND_REPORT:
                raise HyperwallError(
                    f"survivor {survivor} failed to execute cell {cell_id}"
                )
            report = dict(reply.meta)
            report["status"] = "reassigned"
            report["reassigned_to"] = survivor
            self._standby[cell_id] = survivor
            return report

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
        if cell_id not in self.server_cells:
            self.execute_server()  # mirror not built yet: build it lazily
        cell = self.server_cells.get(cell_id)
        if cell is None:
            raise HyperwallError(f"no mirror cell for lost cell {cell_id}")
        from repro.cache.config import use_config as use_cache_config
        from repro.hyperwall.client import image_digest

        width = max(self.wall.tile_width // self.reduction, 16)
        height = max(self.wall.tile_height // self.reduction, 16)
        start = time.perf_counter()
        with obs.span("hyperwall.server.degraded_render", cell=cell_id):
            with use_cache_config(self.cache):
                image = cell.render(width, height).to_uint8()
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

    # -- health ---------------------------------------------------------------------

    def check_health(self) -> Dict[int, bool]:
        """Heartbeat every client; marks unresponsive ones dead.

        Returns ``{client_id: alive}`` covering connected clients and
        any already known dead.
        """
        alive: Dict[int, bool] = {client_id: False for client_id in self._dead}
        for client_id in sorted(self._connections):
            ok = self._send(
                client_id, WireFrame(protocol.KIND_HEARTBEAT, {"ping": True})
            )
            if ok:
                reply = self._recv(client_id)
                ok = reply is not None and reply.kind == protocol.KIND_HEARTBEAT
                if not ok and client_id in self._connections:
                    self._mark_dead(client_id, "bad heartbeat reply")
            alive[client_id] = ok
        if obs.enabled():
            obs.gauge(
                "hyperwall.clients.alive", float(sum(1 for v in alive.values() if v))
            )
        return alive

    # -- interaction propagation -------------------------------------------------------

    def broadcast_event(self, event_kind: str, **event: Any) -> Dict[str, Any]:
        """Apply an interaction locally, then propagate to every client.

        Cells whose plot type has no binding for the gesture ignore it
        (heterogeneous-wall semantics, mirroring the spreadsheet).
        Clients lost mid-broadcast are skipped (their acks simply do
        not appear) unless *failover* is ``fail_fast``.
        """
        from repro.util.errors import DV3DError

        obs.counter("hyperwall.events.broadcast", kind=event_kind)
        server_deltas: Dict[int, Any] = {}
        for cid, cell in self.server_cells.items():
            try:
                server_deltas[cid] = cell.handle_event(event_kind, **event)
            except DV3DError:
                server_deltas[cid] = {}
        message = WireFrame(
            protocol.KIND_EVENT, {"event_kind": event_kind, "event": event}
        )
        sent = [cid for cid in sorted(self._connections) if self._send(cid, message)]
        acks = {}
        for client_id in sent:
            reply = self._recv(client_id)
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
            acks[client_id] = reply.meta
        return {"server": server_deltas, "clients": acks}

    def request_renders(self, width: int = 0, height: int = 0) -> List[Dict[str, Any]]:
        """Ask every client for a fresh frame of its (possibly event-
        mutated) cell — the display refresh after interaction.

        Cells re-homed by an earlier reassignment are rendered by their
        standby client; cells with no live owner come back degraded
        from the mirror (``fail_fast`` raises instead).
        """
        reports = []
        payload = {"width": width, "height": height}
        for client_id in sorted(self.assignment):
            ok = self._send(client_id, WireFrame(protocol.KIND_RENDER, dict(payload)))
            reply = self._recv(client_id) if ok else None
            if reply is None:
                if self.failover == "fail_fast":
                    raise HyperwallError(
                        f"client {client_id} disconnected during render"
                    )
                cell_id = self.assignment[client_id]
                reports.append(self._recover_cell(cell_id))
                del self.assignment[client_id]
                continue
            if reply.kind == protocol.KIND_ERROR:
                raise HyperwallError(
                    f"client {client_id} failed to render: {reply.meta.get('error')}"
                )
            report = dict(reply.meta)
            report["status"] = "live"
            reports.append(report)
        for cell_id, survivor in sorted(self._standby.items()):
            target = dict(payload, cell_id=cell_id)
            ok = self._send(survivor, WireFrame(protocol.KIND_RENDER, target))
            reply = self._recv(survivor) if ok else None
            if reply is None or reply.kind != protocol.KIND_REPORT:
                reports.append(self._degraded_report(cell_id))
                continue
            report = dict(reply.meta)
            report["status"] = "reassigned"
            report["reassigned_to"] = survivor
            reports.append(report)
        return reports

    # -- teardown -------------------------------------------------------------------------

    def shutdown(self) -> None:
        for client_id in sorted(self._connections):
            try:
                protocol.send_frame(
                    self._connections[client_id], WireFrame(protocol.KIND_SHUTDOWN)
                )
            except OSError:
                pass
        for conn in self._connections.values():
            try:
                conn.close()
            except OSError:
                pass
        self._connections.clear()
        self._listener.close()
