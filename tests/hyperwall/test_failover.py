"""Hyperwall failover: dead clients, reassignment, degraded mirror frames.

Connection losses are injected deterministically through the fault
registry — server-side (``hyperwall.server.recv`` drops a connection),
client-side (``hyperwall.client.execute`` kills a real forked client
process mid-execution), and wire-level (``protocol.send`` corrupts a
frame).  The wall must always complete a full frame: every cell comes
back ``live``, ``reassigned`` or ``degraded``, and only ``fail_fast``
is allowed to raise.
"""

import threading

import pytest

from repro import obs
from repro.dv3d.interaction import Gesture
from repro.hyperwall import protocol
from repro.hyperwall.client import HyperwallClient
from repro.hyperwall.cluster import LocalCluster
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.server import HyperwallServer
from repro.resilience import RetryPolicy, faults
from repro.util.errors import HyperwallError
from repro.util.framing import WireFrame
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

TINY_WALL = WallGeometry(columns=2, rows=1, tile_width=48, tile_height=36)
QUAD_WALL = WallGeometry(columns=2, rows=2, tile_width=32, tile_height=24)

#: no backoff waits in tests
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture()
def two_cell_pipeline(registry):
    p = Pipeline(registry)
    for _ in range(2):
        build_cell_chain(p, width=48, height=36)
    return p


def start_wall(pipeline, n_clients, failover, wall=TINY_WALL):
    """Threaded server/client pair with a given failover policy."""
    server = HyperwallServer(
        pipeline, wall=wall, reduction=4, failover=failover, retry=FAST_RETRY
    )
    threads = []
    for cid in range(n_clients):
        client = HyperwallClient(server.host, server.port, cid)
        client.connect()
        thread = threading.Thread(target=client.run, daemon=True)
        thread.start()
        threads.append(thread)
    server.accept_clients(n_clients)
    return server, threads


def stop_wall(server, threads):
    server.shutdown()
    for thread in threads:
        thread.join(5.0)


class TestReassignment:
    def test_dropped_client_cell_reassigned_to_survivor(self, two_cell_pipeline):
        faults.arm("hyperwall.server.recv", "drop", match={"client": 1})
        server, threads = start_wall(two_cell_pipeline, 2, "reassign")
        try:
            server.distribute_workflows()
            reports = server.execute_clients()
        finally:
            stop_wall(server, threads)
        assert len(reports) == 2
        by_status = {r["status"]: r for r in reports}
        assert set(by_status) == {"live", "reassigned"}
        # the survivor executed the lost cell at full tile resolution
        assert by_status["reassigned"]["reassigned_to"] == 0
        assert by_status["reassigned"]["image_shape"] == [36, 48, 3]
        assert 1 in server.dead_clients

    def test_no_survivors_falls_back_to_degraded(self, registry):
        p = Pipeline(registry)
        build_cell_chain(p, width=48, height=36)
        faults.arm("hyperwall.server.recv", "drop", match={"client": 0})
        wall = WallGeometry(columns=1, rows=1, tile_width=48, tile_height=36)
        server, threads = start_wall(p, 1, "reassign", wall=wall)
        try:
            server.distribute_workflows()
            reports = server.execute_clients()
        finally:
            stop_wall(server, threads)
        assert len(reports) == 1
        assert reports[0]["status"] == "degraded"

    def test_render_after_failover_uses_standby(self, two_cell_pipeline):
        faults.arm("hyperwall.server.recv", "drop", match={"client": 1})
        server, threads = start_wall(two_cell_pipeline, 2, "reassign")
        try:
            server.distribute_workflows()
            server.execute_clients()
            renders = server.request_renders(48, 36)
        finally:
            stop_wall(server, threads)
        assert len(renders) == 2
        statuses = sorted(r["status"] for r in renders)
        assert statuses == ["live", "reassigned"]
        assert all(r["image_shape"] == [36, 48, 3] for r in renders)


class TestDegradedMirror:
    def test_degrade_policy_serves_mirror_cell(self, two_cell_pipeline):
        recorder = obs.enable(obs.Recorder())
        try:
            faults.arm("hyperwall.server.recv", "drop", match={"client": 0})
            server, threads = start_wall(two_cell_pipeline, 2, "degrade")
            try:
                server.distribute_workflows()
                server.execute_server()
                reports = server.execute_clients()
            finally:
                stop_wall(server, threads)
        finally:
            obs.disable()
        assert len(reports) == 2
        degraded = [r for r in reports if r["status"] == "degraded"]
        assert len(degraded) == 1
        # mirror frames are reduced-resolution, clamped at 16px
        assert degraded[0]["image_shape"] == [16, 16, 3]
        assert recorder.counter_total("resilience.degraded") == 1
        assert any(
            k.name == "resilience.recovery.seconds" for k in recorder.histograms
        )

    def test_event_broadcast_skips_dead_client(self, two_cell_pipeline):
        faults.arm("hyperwall.server.recv", "drop", match={"client": 1})
        server, threads = start_wall(two_cell_pipeline, 2, "degrade")
        try:
            server.distribute_workflows()
            server.execute_server()
            server.execute_clients()
            ack = server.broadcast_event("key", key="c")
        finally:
            stop_wall(server, threads)
        assert sorted(ack["clients"]) == [0]
        assert len(ack["server"]) == 2


class TestFailFast:
    def test_fail_fast_policy_raises(self, two_cell_pipeline):
        faults.arm("hyperwall.server.recv", "drop", match={"client": 1})
        server, threads = start_wall(two_cell_pipeline, 2, "fail_fast")
        try:
            server.distribute_workflows()
            with pytest.raises(HyperwallError, match="disconnected during execution"):
                server.execute_clients()
        finally:
            stop_wall(server, threads)

    def test_invalid_policy_rejected(self, two_cell_pipeline):
        with pytest.raises(HyperwallError, match="failover"):
            HyperwallServer(two_cell_pipeline, wall=TINY_WALL, failover="retry-forever")


class TestCorruptPayload:
    def test_corrupt_report_detected_and_recovered(self, two_cell_pipeline):
        # corrupt one client's execution report on the wire: the server
        # must detect it by the frame's content digest (not by the JSON
        # happening not to parse) and recover the cell, never propagate
        # garbage
        faults.arm("protocol.send", "corrupt", match={"kind": "report"})
        server, threads = start_wall(two_cell_pipeline, 2, "reassign")
        try:
            server.distribute_workflows()
            server.execute_server()
            reports = server.execute_clients()
            causes = list(server.dead_clients.values())
        finally:
            stop_wall(server, threads)
        assert causes and all("digest mismatch" in cause for cause in causes)
        assert len(reports) == 2
        statuses = [r["status"] for r in reports]
        assert statuses.count("live") == 1
        recovered = [s for s in statuses if s != "live"]
        assert recovered in (["reassigned"], ["degraded"])


class TestAcceptRobustness:
    def test_malformed_hello_closes_all_accepted(self, two_cell_pipeline):
        import socket as socket_module

        server = HyperwallServer(two_cell_pipeline, wall=TINY_WALL)
        good = HyperwallClient(server.host, server.port, 0)
        good.connect()
        rogue = socket_module.create_connection((server.host, server.port), timeout=5)
        try:
            protocol.send_frame(rogue, WireFrame("execute", {}))
            with pytest.raises(HyperwallError, match=r"at 127\.0\.0\.1:\d+"):
                server.accept_clients(2, timeout=5)
            # the previously accepted connection was closed too, not leaked
            assert server._connections == {}
            good._sock.settimeout(5.0)
            assert protocol.recv_frame(good._sock) is None  # EOF
        finally:
            rogue.close()
            good.close()
            server.shutdown()

    def test_client_io_timeout_parameter(self, two_cell_pipeline):
        server = HyperwallServer(two_cell_pipeline, wall=TINY_WALL)
        client = HyperwallClient(server.host, server.port, 0, io_timeout=0.5)
        try:
            client.connect()
            assert client._sock.gettimeout() == 0.5
            server.accept_clients(1)
        finally:
            client.close()
            server.shutdown()


class TestLocalClusterFailover:
    """The acceptance scenario: a real client process killed mid-frame."""

    def test_killed_client_process_frame_completes(self, registry):
        p = Pipeline(registry)
        for _ in range(4):
            build_cell_chain(p, width=32, height=24)
        # the kill is armed before start(): forked clients inherit it,
        # and the label confines it to client 2's process
        faults.arm("hyperwall.client.execute", "exit", match={"client": 2})
        cluster = LocalCluster(
            p, n_clients=4, wall=QUAD_WALL, reduction=4,
            io_timeout=30.0, failover="reassign",
        )
        with cluster:
            out = cluster.run_session(events=[Gesture("key", {"key": "c"})])
        reports = out["clients"]
        assert len(reports) == 4
        assert sorted(out["cell_status"].values()).count("live") == 3
        recovered = [r for r in reports if r["status"] != "live"]
        assert len(recovered) == 1
        assert recovered[0]["status"] in ("reassigned", "degraded")
        # a full frame: every cell produced an image
        assert all(len(r["image_shape"]) == 3 for r in reports)
        assert 2 in out["dead_clients"]
        # the event still propagated to the three survivors
        assert len(out["events"][0]["clients"]) == 3

    def test_killed_client_cell_matches_an_undisturbed_run(self, registry):
        """The cell of a client process killed on execute comes back
        reassigned with the bytes an undisturbed wall draws: the
        survivor rebuilds it from its workflow, and no result cache
        answers for it anywhere."""
        from repro.hyperwall.inproc import InProcessHyperwall

        p = Pipeline(registry)
        for _ in range(4):
            build_cell_chain(p, width=32, height=24)
        reference = InProcessHyperwall(p, QUAD_WALL)
        expected = {
            r["cell_id"]: r["image_digest"] for r in reference.execute_all()["clients"]
        }
        faults.arm("hyperwall.client.execute", "exit", match={"client": 2})
        with LocalCluster(
            p, n_clients=4, wall=QUAD_WALL, io_timeout=30.0, failover="reassign",
        ) as cluster:
            cluster.server.distribute_workflows()
            cluster.server.execute_server()
            reports = cluster.server.execute_clients()
            assert 2 in cluster.server.dead_clients
        statuses = sorted(r["status"] for r in reports)
        assert statuses == ["live", "live", "live", "reassigned"]
        assert {r["cell_id"]: r["image_digest"] for r in reports} == expected

    def test_degrade_cluster_serves_mirror(self, registry):
        p = Pipeline(registry)
        for _ in range(2):
            build_cell_chain(p, width=48, height=36)
        faults.arm("hyperwall.client.execute", "exit", match={"client": 1})
        cluster = LocalCluster(
            p, n_clients=2, wall=TINY_WALL, reduction=4,
            io_timeout=30.0, failover="degrade",
        )
        with cluster:
            out = cluster.run_session()
        statuses = sorted(out["cell_status"].values())
        assert statuses == ["degraded", "live"]

    def test_rehomed_cell_shows_the_post_event_picture(self, registry):
        """Lose client 0 on the refresh after an event: one report per
        cell, and the re-homed cell's frame is the one an undisturbed
        wall draws — executed, the event replayed, addressed by name."""
        from repro.hyperwall.inproc import InProcessHyperwall

        p = Pipeline(registry)
        for variable in ("ta", "zg"):
            build_cell_chain(p, width=48, height=36, variable=variable)
        reference = InProcessHyperwall(p, TINY_WALL)
        reference.execute_all()
        reference.broadcast_event("key", key="c")
        expected = {
            r["cell_id"]: r["image_digest"] for r in reference.request_renders(48, 36)
        }
        with LocalCluster(p, n_clients=2, wall=TINY_WALL, io_timeout=30.0) as cluster:
            cluster.run_session(events=[Gesture("key", {"key": "c"})])
            faults.arm(
                "hyperwall.server.send", "drop", match={"client": 0, "kind": "render"}
            )
            renders = cluster.server.request_renders(48, 36)
        assert sorted((r["cell_id"], r["status"]) for r in renders) == [
            (3, "reassigned"), (7, "live"),
        ]
        assert {r["cell_id"]: r["image_digest"] for r in renders} == expected

    def test_rehomed_after_an_execute_replays_the_sessions_events(self, registry):
        """Events, then an execute that keeps the live cells, then a lost
        node: the re-homed cell matches a wall that lost no node."""
        from repro.hyperwall.inproc import InProcessHyperwall

        p = Pipeline(registry)
        for variable in ("ta", "zg"):
            build_cell_chain(p, width=48, height=36, variable=variable)
        reference = InProcessHyperwall(p, TINY_WALL)
        reference.execute_all()
        reference.broadcast_event("key", key="c")
        expected = {r["cell_id"]: r["image_digest"] for r in reference.request_renders()}
        with LocalCluster(p, n_clients=2, wall=TINY_WALL, io_timeout=30.0) as cluster:
            cluster.run_session(events=[Gesture("key", {"key": "c"})])
            executed = cluster.server.execute_clients()
            faults.arm(
                "hyperwall.server.send", "drop", match={"client": 0, "kind": "render"}
            )
            renders = cluster.server.request_renders()
        assert {r["cell_id"]: r["image_digest"] for r in executed} == expected
        assert sorted((r["cell_id"], r["status"]) for r in renders) == [
            (3, "reassigned"), (7, "live"),
        ]
        assert {r["cell_id"]: r["image_digest"] for r in renders} == expected
