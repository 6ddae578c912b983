"""Deterministic in-process hyperwall simulation.

The same control flow as the socket deployment — partition, reduced
server execution, full-resolution client execution, event propagation —
but with the "client nodes" as plain objects in one process.  Tests
and the Fig. 5 benchmark use this: it exercises every piece of the
distributed logic (partitioning, resolution editing, propagation,
report aggregation) without socket nondeterminism, and supports a
thread pool standing in for the parallel cluster.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.partition import (
    find_cell_modules,
    make_reduced_pipeline,
    partition_by_cell,
    set_cell_resolution,
)
from repro.util.errors import HyperwallError
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline


@dataclass
class ClientReport:
    """What a display node reports back after executing its sub-workflow."""

    cell_id: int
    tile: tuple
    duration: float
    image_shape: tuple
    image_mean: float
    cache_hits: int
    cache_misses: int


@dataclass
class _SimulatedClient:
    """One display node: a sub-workflow plus its live cell after execution."""

    cell_id: int
    tile: tuple
    pipeline: Pipeline
    executor: Executor = field(default_factory=lambda: Executor(caching=True))
    cell: Optional[DV3DCell] = None
    last_image: Any = None

    def execute(self, parent_span_id: Optional[int] = None) -> ClientReport:
        start = time.perf_counter()
        with obs.span(
            "hyperwall.client.execute",
            parent_id=parent_span_id,
            node=f"client-{self.cell_id}",
            cell=self.cell_id,
        ):
            result = self.executor.execute(self.pipeline)
        self.cell = result.output(self.cell_id, "cell")
        self.last_image = result.output(self.cell_id, "image")
        return ClientReport(
            cell_id=self.cell_id,
            tile=self.tile,
            duration=time.perf_counter() - start,
            image_shape=tuple(self.last_image.shape),
            image_mean=float(self.last_image.mean()),
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
        )

    def apply_event(self, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.cell is None:
            raise HyperwallError(f"client {self.cell_id}: not executed yet")
        from repro.util.errors import DV3DError

        try:
            return self.cell.handle_event(kind, **payload)
        except DV3DError:
            # plot-specific gesture on an incompatible plot type: ignored,
            # matching the spreadsheet's heterogeneous-sheet semantics
            return {}


class InProcessHyperwall:
    """Server + N simulated clients in one process."""

    def __init__(
        self,
        workflow: Pipeline,
        wall: Optional[WallGeometry] = None,
        reduction: int = 4,
        client_resolution: Optional[tuple] = None,
        max_workers: int = 1,
    ) -> None:
        cells = find_cell_modules(workflow)
        if not cells:
            raise HyperwallError("workflow has no DV3DCell modules")
        self.wall = wall or WallGeometry(columns=max(len(cells), 1), rows=1)
        if len(cells) > self.wall.n_tiles:
            raise HyperwallError(
                f"{len(cells)} cells exceed the wall's {self.wall.n_tiles} tiles"
            )
        self.reduction = int(reduction)
        self.max_workers = max(int(max_workers), 1)
        self.server_pipeline = make_reduced_pipeline(workflow, self.reduction)
        self.server_executor = Executor(caching=True)
        self.server_cells: Dict[int, DV3DCell] = {}
        self.clients: List[_SimulatedClient] = []
        partitions = partition_by_cell(workflow)
        for index, cell_id in enumerate(sorted(partitions)):
            sub = partitions[cell_id]
            if client_resolution is not None:
                set_cell_resolution(sub, cell_id, *client_resolution)
            else:
                set_cell_resolution(
                    sub, cell_id, self.wall.tile_width, self.wall.tile_height
                )
            self.clients.append(
                _SimulatedClient(cell_id, self.wall.tile_of(index), sub)
            )
        self.event_history: List[Dict[str, Any]] = []

    # -- execution ---------------------------------------------------------

    def execute_server(self) -> Dict[str, Any]:
        """Run the reduced-resolution full workflow on the server node."""
        start = time.perf_counter()
        with obs.span("hyperwall.server.execute", node="server"):
            result = self.server_executor.execute(self.server_pipeline)
        self.server_cells = {
            cid: result.output(cid, "cell")
            for cid in find_cell_modules(self.server_pipeline)
        }
        shapes = {
            cid: tuple(result.output(cid, "image").shape)
            for cid in self.server_cells
        }
        return {
            "duration": time.perf_counter() - start,
            "n_cells": len(self.server_cells),
            "image_shapes": shapes,
        }

    def execute_clients(self) -> List[ClientReport]:
        """Run every client's full-resolution 1-cell sub-workflow.

        With ``max_workers > 1`` clients run concurrently (the physical
        wall's clients are separate machines; a thread pool models the
        parallelism on one host).
        """
        with obs.span(
            "hyperwall.execute_clients", clients=len(self.clients)
        ) as _span:
            if self.max_workers == 1:
                return [client.execute(_span.id) for client in self.clients]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                # client spans open on pool threads, so the parent edge
                # is passed explicitly (thread-local stacks are empty)
                return list(pool.map(lambda c: c.execute(_span.id), self.clients))

    def execute_all(self) -> Dict[str, Any]:
        """The full Fig. 5 cycle: server mirror plus all wall tiles."""
        server = self.execute_server()
        reports = self.execute_clients()
        return {"server": server, "clients": reports}

    # -- interaction propagation ------------------------------------------------

    def propagate_event(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Apply an interaction to the server's active cells, then to the
        corresponding client cells — the §III.H propagation path."""
        if not self.server_cells and all(c.cell is None for c in self.clients):
            raise HyperwallError("propagate_event before any execution")
        from repro.util.errors import DV3DError

        server_deltas = {}
        for cid, cell in self.server_cells.items():
            try:
                server_deltas[cid] = cell.handle_event(kind, **payload)
            except DV3DError:
                server_deltas[cid] = {}
        if obs.enabled():
            # the simulation has no wire; account for the event frames a
            # socket deployment would have sent (one per client)
            from repro.hyperwall.protocol import KIND_EVENT
            from repro.util.framing import WireFrame, encode_frame

            frame = len(
                encode_frame(
                    WireFrame(KIND_EVENT, {"event_kind": kind, "event": payload})
                )
            )
            n_clients = sum(1 for c in self.clients if c.cell is not None)
            obs.counter("protocol.frames.sent", n_clients, kind=KIND_EVENT)
            obs.counter("protocol.bytes.sent", frame * n_clients, kind=KIND_EVENT)
        client_deltas = {}
        for client in self.clients:
            if client.cell is not None:
                client_deltas[client.cell_id] = client.apply_event(kind, payload)
        record = {"kind": kind, "payload": payload}
        self.event_history.append(record)
        return {"server": server_deltas, "clients": client_deltas}

    def consistency_check(self) -> Dict[int, bool]:
        """Whether each client cell's plot state matches its server mirror.

        Camera state is compared too; render resolution legitimately
        differs, so only plot state participates.
        """
        result = {}
        for client in self.clients:
            server_cell = self.server_cells.get(client.cell_id)
            if server_cell is None or client.cell is None:
                result[client.cell_id] = False
                continue
            result[client.cell_id] = (
                server_cell.plot.state() == client.cell.plot.state()
            )
        return result
