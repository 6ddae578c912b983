"""A localhost cluster standing in for the physical hyperwall.

The NCCS wall's client nodes become ``multiprocessing`` processes on
this machine, each running the real socket client against the real
socket server — so the full network protocol (workflow shipping,
execution triggering, gesture propagation, failover, shutdown) is
exercised end-to-end, just without the 46-inch displays.  The gestures
a session propagates are :class:`~repro.dv3d.interaction.Gesture`
records::

    out = cluster.run_session([Gesture("key", {"key": "c"})])

Faults armed on the registry *before* :meth:`LocalCluster.start` are
inherited by the forked clients, so tests can kill a real client
process mid-execution deterministically::

    faults.arm("hyperwall.client.execute", "exit", match={"client": 2})
    with LocalCluster(p, n_clients=4, wall=wall) as cluster:
        out = cluster.run_session()   # completes; cell 2 is recovered

No result cache is involved: a re-homed cell is rebuilt from its
workflow on the surviving node, and its frame carries the same
``image_digest`` an undisturbed run draws.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.dv3d.interaction import Gesture
from repro.hyperwall.client import run_client
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.server import HyperwallServer
from repro.workflow.pipeline import Pipeline


class LocalCluster:
    """Run a server plus N client processes for one hyperwall session.

    *io_timeout* bounds every socket operation on both sides;
    *failover* selects the server's recovery policy for dead clients
    (``reassign`` | ``degrade`` | ``fail_fast``).  The processes share
    no result cache: every node builds its cells from their workflows.
    """

    def __init__(
        self,
        workflow: Pipeline,
        n_clients: int,
        wall: Optional[WallGeometry] = None,
        reduction: int = 4,
        io_timeout: float = 60.0,
        failover: str = "reassign",
    ) -> None:
        self.io_timeout = float(io_timeout)
        self.server = HyperwallServer(
            workflow,
            wall=wall,
            reduction=reduction,
            io_timeout=self.io_timeout,
            failover=failover,
        )
        self.n_clients = int(n_clients)
        self._processes: List[mp.Process] = []

    def start(self, timeout: float = 60.0) -> List[int]:
        """Spawn client processes and wait for all to connect.

        A failed accept (a client dying before its hello, a timeout)
        tears the whole cluster down before re-raising — ``__exit__``
        never runs when ``__enter__`` fails, so the cleanup must happen
        here or the spawned clients would outlive the failed test.
        """
        ctx = mp.get_context("fork")
        for client_id in range(self.n_clients):
            proc = ctx.Process(
                target=run_client,  # exceptions surface via the exit code
                args=(self.server.host, self.server.port, client_id, self.io_timeout),
                daemon=True,
                name=f"repro-hyperwall-client-{client_id}",
            )
            proc.start()
            self._processes.append(proc)
        try:
            return self.server.accept_clients(self.n_clients, timeout=timeout)
        except BaseException:
            self.stop()
            raise

    def run_session(self, events: Sequence[Gesture] = ()) -> Dict[str, Any]:
        """One full session: distribute, execute everywhere, broadcast
        each of *events* in order.

        Returns all reports and timings; ``cell_status`` summarizes how
        each cell was produced (``live`` | ``reassigned`` | ``degraded``).
        """
        assignment = self.server.distribute_workflows()
        server_report = self.server.execute_server()
        start = time.perf_counter()
        client_reports = self.server.execute_clients()
        clients_wall = time.perf_counter() - start
        event_results = [
            self.server.broadcast_event(gesture.kind, **gesture.payload)
            for gesture in events
        ]
        return {
            "assignment": assignment,
            "server": server_report,
            "clients": client_reports,
            "clients_wall_time": clients_wall,
            "cell_status": {
                r["cell_id"]: r.get("status", "live") for r in client_reports
            },
            "dead_clients": self.server.dead_clients,
            "events": event_results,
        }

    def stop(self, timeout: float = 10.0) -> None:
        self.server.shutdown()
        deadline = time.time() + timeout
        for proc in self._processes:
            proc.join(max(deadline - time.time(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():  # terminate() ignored — escalate to SIGKILL
                proc.kill()
                proc.join(1.0)
        self._processes.clear()

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
