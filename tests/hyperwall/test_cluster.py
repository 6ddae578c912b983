"""The socket server/client pair and the multiprocessing cluster.

These run a real localhost session: server in this process, clients in
forked processes, the full protocol (hello → workflow → execute →
events → shutdown) over TCP.  Sizes are small to keep it fast.
"""

import threading

import pytest

from repro.hyperwall.client import HyperwallClient
from repro.hyperwall.cluster import LocalCluster
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.server import HyperwallServer
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

TINY_WALL = WallGeometry(columns=2, rows=1, tile_width=48, tile_height=36)


@pytest.fixture()
def two_cell_pipeline(registry):
    p = Pipeline(registry)
    for _ in range(2):
        build_cell_chain(p, width=48, height=36)
    return p


class TestServerClientThreads:
    """Protocol-level tests with the client on a thread (same process)."""

    def run_session(self, pipeline, n_clients=2, events=()):
        server = HyperwallServer(pipeline, wall=TINY_WALL, reduction=4)
        clients = []
        threads = []
        for cid in range(n_clients):
            client = HyperwallClient(server.host, server.port, cid)
            client.connect()
            thread = threading.Thread(target=client.run, daemon=True)
            thread.start()
            clients.append(client)
            threads.append(thread)
        try:
            server.accept_clients(n_clients)
            assignment = server.distribute_workflows()
            server_report = server.execute_server()
            reports = server.execute_clients()
            event_acks = [
                server.broadcast_event(kind, **payload) for kind, payload in events
            ]
        finally:
            server.shutdown()
            for thread in threads:
                thread.join(5.0)
        return assignment, server_report, reports, event_acks

    def test_full_session(self, two_cell_pipeline):
        assignment, server_report, reports, _ = self.run_session(two_cell_pipeline)
        assert len(assignment) == 2
        assert server_report["n_cells"] == 2
        assert len(reports) == 2
        for report in reports:
            assert report["image_shape"] == [36, 48, 3]  # full tile resolution

    def test_render_after_event_refreshes_frame(self, two_cell_pipeline):
        server = HyperwallServer(two_cell_pipeline, wall=TINY_WALL, reduction=4)
        clients, threads = [], []
        for cid in range(2):
            client = HyperwallClient(server.host, server.port, cid)
            client.connect()
            thread = threading.Thread(target=client.run, daemon=True)
            thread.start()
            clients.append(client)
            threads.append(thread)
        try:
            server.accept_clients(2)
            server.distribute_workflows()
            server.execute_server()
            server.execute_clients()
            before = server.request_renders(48, 36)
            server.broadcast_event("key", key="c")  # colormap change
            after = server.request_renders(48, 36)
            assert len(before) == len(after) == 2
            # the frames changed because the cell state changed
            for b, a in zip(before, after):
                assert b["image_shape"] == a["image_shape"] == [36, 48, 3]
                assert b["image_mean"] != a["image_mean"]
        finally:
            server.shutdown()
            for thread in threads:
                thread.join(5.0)

    def test_refresh_without_a_size_redraws_the_executed_frame(self, two_cell_pipeline):
        server = HyperwallServer(two_cell_pipeline, wall=TINY_WALL, reduction=4)
        threads = []
        for cid in range(2):
            client = HyperwallClient(server.host, server.port, cid)
            client.connect()
            threads.append(threading.Thread(target=client.run, daemon=True))
            threads[-1].start()
        try:
            server.accept_clients(2)
            server.distribute_workflows()
            executed = server.execute_clients()
            refreshed = server.request_renders()
        finally:
            server.shutdown()
            for thread in threads:
                thread.join(5.0)
        # each cell at the size it was shipped, not a size of the node's own
        assert [r["image_shape"] for r in refreshed] == [[36, 48, 3], [36, 48, 3]]
        assert [r["image_digest"] for r in refreshed] == [
            r["image_digest"] for r in executed
        ]

    def test_event_broadcast(self, two_cell_pipeline):
        _, _, _, acks = self.run_session(
            two_cell_pipeline,
            events=[("key", {"key": "c"}), ("drag", {"dx": 0.1, "dy": 0.0, "mode": "camera"})],
        )
        assert len(acks) == 2
        for ack in acks:
            assert len(ack["clients"]) == 2
            assert len(ack["server"]) == 2

    def test_too_few_clients_detected(self, two_cell_pipeline):
        server = HyperwallServer(two_cell_pipeline, wall=TINY_WALL)
        client = HyperwallClient(server.host, server.port, 0)
        client.connect()
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        try:
            server.accept_clients(1)
            from repro.util.errors import HyperwallError

            with pytest.raises(HyperwallError, match="clients"):
                server.distribute_workflows()
        finally:
            server.shutdown()
            thread.join(5.0)


class TestLocalCluster:
    """End-to-end with real child processes (the Fig. 5 configuration)."""

    def test_multiprocess_session(self, two_cell_pipeline):
        cluster = LocalCluster(two_cell_pipeline, n_clients=2, wall=TINY_WALL, reduction=4)
        try:
            cluster.start()
            out = cluster.run_session(events=[{"event_kind": "key", "key": "c"}])
        finally:
            cluster.stop()
        assert len(out["clients"]) == 2
        assert out["server"]["n_cells"] == 2
        assert out["clients"][0]["image_shape"] == [36, 48, 3]
        assert len(out["events"]) == 1
        # client execution reports carry cache statistics
        assert all("cache_misses" in r for r in out["clients"])
