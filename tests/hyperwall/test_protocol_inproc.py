"""The wire protocol and the in-process hyperwall simulation."""

import hashlib
import socket
import struct

import numpy as np
import pytest

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


class TestInProcessHyperwall:
    def test_requires_cells(self, registry):
        p = Pipeline(registry)
        p.add_module("CDMSDatasetReader")
        with pytest.raises(HyperwallError):
            InProcessHyperwall(p)

    def test_server_renders_reduced(self, wall_pipeline):
        p, ids = wall_pipeline
        hw = InProcessHyperwall(p, reduction=4, client_resolution=(64, 48))
        report = hw.execute_server()
        assert report["n_cells"] == 3
        # reduced by 4x, clamped at the 16-pixel minimum
        for shape in report["image_shapes"].values():
            assert shape == (max(48 // 4, 16), max(64 // 4, 16), 3)

    def test_clients_render_full_resolution(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, reduction=4, client_resolution=(64, 48))
        reports = hw.execute_clients()
        assert len(reports) == 3
        assert all(r.image_shape == (48, 64, 3) for r in reports)

    def test_tiles_assigned_distinctly(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, client_resolution=(32, 24))
        tiles = [client.tile for client in hw.clients]
        assert len(set(tiles)) == 3

    def test_too_many_cells_for_wall(self, wall_pipeline):
        from repro.hyperwall.display import WallGeometry

        p, _ = wall_pipeline
        with pytest.raises(HyperwallError):
            InProcessHyperwall(p, wall=WallGeometry(columns=2, rows=1))

    def test_event_propagation_keeps_consistency(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, reduction=2, client_resolution=(32, 24))
        hw.execute_all()
        assert all(hw.consistency_check().values())
        hw.propagate_event("key", key="c")
        hw.propagate_event("key", key="t")
        hw.propagate_event("drag", dx=0.1, dy=0.05, mode="camera")
        assert all(hw.consistency_check().values())
        assert len(hw.event_history) == 3

    def test_event_changes_client_render(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, reduction=2, client_resolution=(32, 24))
        hw.execute_all()
        client = hw.clients[0]
        before = client.cell.render(32, 24).to_uint8()
        hw.propagate_event("key", key="c")  # colormap change
        after = client.cell.render(32, 24).to_uint8()
        assert not np.array_equal(before, after)

    def test_event_before_execution_fails(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, client_resolution=(32, 24))
        with pytest.raises(HyperwallError):
            hw.propagate_event("key", key="c")

    def test_parallel_clients_match_serial(self, wall_pipeline):
        p, _ = wall_pipeline
        serial = InProcessHyperwall(p, client_resolution=(32, 24), max_workers=1)
        parallel = InProcessHyperwall(p, client_resolution=(32, 24), max_workers=3)
        reports_serial = sorted(serial.execute_clients(), key=lambda r: r.cell_id)
        reports_parallel = sorted(parallel.execute_clients(), key=lambda r: r.cell_id)
        for a, b in zip(reports_serial, reports_parallel):
            assert a.image_shape == b.image_shape
            assert a.image_mean == pytest.approx(b.image_mean)

    def test_execute_all_combined(self, wall_pipeline):
        p, _ = wall_pipeline
        hw = InProcessHyperwall(p, reduction=4, client_resolution=(32, 24))
        out = hw.execute_all()
        assert out["server"]["n_cells"] == 3
        assert len(out["clients"]) == 3
