"""The wire protocol and the in-process hyperwall."""

import hashlib
import socket
import struct

import numpy as np
import pytest

from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.hyperwall.protocol import recv_frame, send_frame
from repro.util.errors import HyperwallError, WireFormatError
from repro.util.framing import WireFrame, decode_frame, encode_frame
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain


def recv_raw_header(header: bytes):
    """Deliver a frame whose digest is valid but whose header is *header*."""
    server, client = socket.socketpair()
    try:
        client.sendall(
            struct.pack(">4sBIQ", b"RSWP", 1, len(header), 0)
            + header
            + hashlib.sha256(header).digest()
        )
        return recv_frame(server)
    finally:
        server.close()
        client.close()


class TestMessage:
    def test_encode_decode_roundtrip(self):
        msg = WireFrame("workflow", {"pipeline": {"modules": []}, "cell_id": 3})
        decoded, _ = decode_frame(encode_frame(msg))
        assert decoded == msg

    def test_malformed_body(self):
        # an intact (digest-valid) frame that is not JSON: typed for the
        # hyperwall, with the codec's own error as the cause
        with pytest.raises(HyperwallError) as info:
            recv_raw_header(b"not json at all")
        assert isinstance(info.value.__cause__, WireFormatError)

    def test_missing_kind(self):
        with pytest.raises(HyperwallError):
            recv_raw_header(b'{"meta": {}}')

    def test_socket_roundtrip(self):
        server, client = socket.socketpair()
        try:
            sent = WireFrame("event", {"event_kind": "key", "event": {"key": "c"}})
            send_frame(client, sent)
            received = recv_frame(server)
            assert received == sent
        finally:
            server.close()
            client.close()

    def test_multiple_frames_in_order(self):
        server, client = socket.socketpair()
        try:
            for i in range(3):
                send_frame(client, WireFrame("ack", {"n": i}))
            for i in range(3):
                assert recv_frame(server).meta["n"] == i
        finally:
            server.close()
            client.close()

    def test_eof_returns_none(self):
        server, client = socket.socketpair()
        client.close()
        try:
            assert recv_frame(server) is None
        finally:
            server.close()


@pytest.fixture()
def wall_pipeline(registry):
    p = Pipeline(registry)
    ids = [build_cell_chain(p, width=64, height=48) for _ in range(3)]
    return p, ids


def tiles(width, height, columns=3):
    return WallGeometry(columns=columns, rows=1, tile_width=width, tile_height=height)


class TestInProcessHyperwall:
    def test_requires_cells(self, registry):
        p = Pipeline(registry)
        p.add_module("CDMSDatasetReader")
        with pytest.raises(HyperwallError):
            InProcessHyperwall(p)

    def test_server_renders_reduced(self, wall_pipeline):
        p, ids = wall_pipeline
        hw = InProcessHyperwall(p, tiles(64, 48), reduction=4)
        report = hw.execute_server()
        assert report["n_cells"] == 3
        # reduced by 4x, clamped at the 16-pixel minimum
        for shape in report["image_shapes"].values():
            assert shape == [max(48 // 4, 16), max(64 // 4, 16), 3]

    def test_clients_render_full_resolution(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(64, 48), reduction=4)
        reports = hw.execute_clients()
        assert len(reports) == 3
        assert all(r["image_shape"] == [48, 64, 3] for r in reports)
        assert all(r["status"] == "live" for r in reports)

    def test_tiles_assigned_distinctly(self, wall_pipeline):
        p, ids = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24))
        # one node per tile, each shipped a cell of its own
        assert sorted(hw.assignment) == [node.client_id for node in hw.nodes]
        assert sorted(hw.assignment.values()) == sorted(i["cell"] for i in ids)
        assert [sorted(node.pipelines) for node in hw.nodes] == [
            [hw.assignment[node.client_id]] for node in hw.nodes
        ]

    def test_too_many_cells_for_wall(self, wall_pipeline):
        p, _ = wall_pipeline
        with pytest.raises(HyperwallError):
            InProcessHyperwall(p, wall=WallGeometry(columns=2, rows=1))

    def test_event_propagation_keeps_consistency(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24), reduction=2)
        hw.execute_all()
        assert all(hw.consistency_check().values())
        hw.broadcast_event("key", key="c")
        hw.broadcast_event("key", key="t")
        hw.broadcast_event("drag", dx=0.1, dy=0.05, mode="camera")
        assert all(hw.consistency_check().values())
        assert len(hw.event_history) == 3

    def test_event_changes_client_render(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24), reduction=2)
        hw.execute_all()
        cell = hw.nodes[0].cells[hw.assignment[0]]
        before = cell.render(32, 24).to_uint8()
        hw.broadcast_event("key", key="c")  # colormap change
        after = cell.render(32, 24).to_uint8()
        assert not np.array_equal(before, after)

    def test_event_before_execution_fails(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24))
        with pytest.raises(HyperwallError):
            hw.broadcast_event("key", key="c")

    def test_execute_all_combined(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24), reduction=4)
        out = hw.execute_all()
        assert out["server"]["n_cells"] == 3
        assert len(out["clients"]) == 3

    def test_refresh_without_a_size_is_the_shipped_size(self, wall_pipeline):
        """``request_renders()`` redraws each cell at the size its
        sub-workflow was shipped with, not at a size of the node's own."""
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(48, 36))
        executed = hw.execute_clients()
        refreshed = hw.request_renders()
        assert [r["image_shape"] for r in refreshed] == [[36, 48, 3]] * 3
        assert [r["image_digest"] for r in refreshed] == [
            r["image_digest"] for r in executed
        ]

    def test_opens_no_socket(self, wall_pipeline):
        """Construct, execute, interact, refresh: not one file descriptor."""
        import os

        p, _ = wall_pipeline
        before = len(os.listdir("/proc/self/fd"))
        hw = InProcessHyperwall(p, tiles(32, 24))
        hw.execute_all()
        for key in "ctc":
            hw.broadcast_event("key", key=key)
        hw.request_renders(32, 24)
        assert len(os.listdir("/proc/self/fd")) == before

    def test_frames_cross_the_codec(self, wall_pipeline):
        """An in-process frame is encoded, counted and decoded like a
        socket's: what JSON cannot carry is refused, not passed by
        reference."""
        from repro import obs

        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, tiles(32, 24))
        with obs.recording() as rec:
            hw.execute_all()
            hw.broadcast_event("key", key="c")
        assert rec.counter_value("protocol.frames.sent", kind="event") == 3
        assert rec.counter_value("protocol.frames.received", kind="ack") == 3
        assert rec.counter_value("protocol.bytes.sent", kind="execute") > 0
        with pytest.raises(TypeError):
            hw.broadcast_event("key", key=object())
