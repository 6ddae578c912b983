"""Failure injection: the distributed layer must fail loudly and cleanly."""

import socket
import threading

import pytest

from repro.hyperwall import protocol
from repro.hyperwall.client import HyperwallClient
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.server import HyperwallServer
from repro.util.errors import HyperwallError, WireFormatError, WireTruncatedError
from repro.util.framing import MAX_HEADER_BYTES, WireFrame, encode_frame
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

TINY_WALL = WallGeometry(columns=1, rows=1, tile_width=32, tile_height=24)


@pytest.fixture()
def one_cell_pipeline(registry):
    p = Pipeline(registry)
    build_cell_chain(p, width=32, height=24)
    return p


def run_client_thread(server):
    client = HyperwallClient(server.host, server.port, 0)
    client.connect()
    thread = threading.Thread(target=client.run, daemon=True)
    thread.start()
    return client, thread


class TestClientSideFailures:
    def test_execute_before_workflow_reports_error(self, one_cell_pipeline):
        server = HyperwallServer(one_cell_pipeline, wall=TINY_WALL)
        _client, thread = run_client_thread(server)
        try:
            server.accept_clients(1)
            # skip distribute_workflows: trigger execution directly
            conn = server._conn(0)
            protocol.send_frame(conn, WireFrame(protocol.KIND_EXECUTE))
            reply = protocol.recv_frame(conn)
            assert reply.kind == protocol.KIND_ERROR
            assert "no workflow" in reply.meta["error"]
        finally:
            server.shutdown()
            thread.join(5.0)

    def test_broken_workflow_reports_error_not_hang(self, registry, one_cell_pipeline):
        # ship a workflow whose reader has an invalid source
        bad = Pipeline(registry)
        ids = build_cell_chain(bad, width=16, height=16)
        bad.set_parameter(ids["reader"], "source", "no_such_catalog_entry")
        server = HyperwallServer(one_cell_pipeline, wall=TINY_WALL)
        _client, thread = run_client_thread(server)
        try:
            server.accept_clients(1)
            conn = server._conn(0)
            protocol.send_frame(
                conn,
                WireFrame(protocol.KIND_WORKFLOW,
                        {"pipeline": bad.to_dict(), "cell_id": ids["cell"]}),
            )
            assert protocol.recv_frame(conn).kind == protocol.KIND_ACK
            protocol.send_frame(
                conn, WireFrame(protocol.KIND_EXECUTE, {"cell_id": ids["cell"]})
            )
            reply = protocol.recv_frame(conn)
            assert reply.kind == protocol.KIND_ERROR
            assert "no_such_catalog_entry" in reply.meta["error"]
        finally:
            server.shutdown()
            thread.join(5.0)

    def test_server_surfaces_client_error(self, registry, one_cell_pipeline):
        """execute_clients raises HyperwallError naming the failing client."""
        broken = Pipeline(registry)
        ids = build_cell_chain(broken, width=16, height=16)
        broken.set_parameter(ids["reader"], "source", "bogus")
        server = HyperwallServer(broken, wall=TINY_WALL)
        _client, thread = run_client_thread(server)
        try:
            server.accept_clients(1)
            server.distribute_workflows()
            with pytest.raises(HyperwallError, match="client 0 failed"):
                server.execute_clients()
        finally:
            server.shutdown()
            thread.join(5.0)

    def test_unknown_message_kind_answered_with_error(self, one_cell_pipeline):
        server = HyperwallServer(one_cell_pipeline, wall=TINY_WALL)
        _client, thread = run_client_thread(server)
        try:
            server.accept_clients(1)
            conn = server._conn(0)
            protocol.send_frame(conn, WireFrame("teleport", {}))
            reply = protocol.recv_frame(conn)
            assert reply.kind == protocol.KIND_ERROR
        finally:
            server.shutdown()
            thread.join(5.0)


class TestProtocolRobustness:
    def test_mid_frame_disconnect_detected(self):
        server_sock, client_sock = socket.socketpair()
        try:
            # deliver the prefix and 10 bytes of the announced frame, hang up
            data = encode_frame(WireFrame(protocol.KIND_REPORT, {"x": "y" * 100}))
            client_sock.sendall(data[:27])
            client_sock.close()
            with pytest.raises(HyperwallError, match="mid-frame") as info:
                protocol.recv_frame(server_sock)
            assert isinstance(info.value.__cause__, WireTruncatedError)
        finally:
            server_sock.close()

    def test_oversized_frame_rejected(self):
        server_sock, client_sock = socket.socketpair()
        try:
            import struct

            client_sock.sendall(
                struct.pack(">4sBIQ", b"RSWP", 1, MAX_HEADER_BYTES + 1, 0)
            )
            with pytest.raises(HyperwallError, match="exceeds") as info:
                protocol.recv_frame(server_sock)
            assert isinstance(info.value.__cause__, WireFormatError)
        finally:
            server_sock.close()
            client_sock.close()

    def test_client_must_say_hello(self, one_cell_pipeline):
        server = HyperwallServer(one_cell_pipeline, wall=TINY_WALL)
        try:
            rogue = socket.create_connection((server.host, server.port), timeout=5)
            protocol.send_frame(rogue, WireFrame("execute", {}))  # not a hello
            with pytest.raises(HyperwallError, match="introduce"):
                server.accept_clients(1, timeout=5)
            rogue.close()
        finally:
            server.shutdown()

    def test_heterogeneous_wall_event_tolerance(self, registry):
        """A leveling drag propagated to a slicer-only wall is ignored."""
        from repro.hyperwall.inproc import InProcessHyperwall

        p = Pipeline(registry)
        build_cell_chain(p, plot="Slicer", width=24, height=18)
        build_cell_chain(p, plot="VolumeRender", width=24, height=18)
        hw = InProcessHyperwall(p, WallGeometry(2, 1, tile_width=24, tile_height=18))
        hw.execute_all()
        result = hw.broadcast_event("drag", dx=0.1, dy=0.0, mode="leveling")
        deltas = [keys for ack in result["clients"].values() for keys in ack.values()]
        assert [] in deltas  # the slicer ignored it
        assert any(d for d in deltas)  # the volume applied it
