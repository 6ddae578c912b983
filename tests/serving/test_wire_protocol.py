"""The wire corruption matrix: every mangled frame fails with a typed error.

Each damage mode — a truncated frame, a bit flip against the content
digest, an unknown protocol version, garbage magic, oversized length
fields, a malformed header — must raise the matching
:class:`~repro.util.errors.WireError` subclass (all of them
:class:`~repro.util.errors.ServingError`s), never a bare
``struct.error``, ``KeyError`` or ``json.JSONDecodeError``.  The
endpoint half covers the live-socket modes: mid-stream disconnect is a
:class:`WireTruncatedError` on the reading side, and
reconnect-with-resume replays the missed frames byte-identically.
"""

from __future__ import annotations

import struct

import pytest

from repro.resilience import faults
from repro.serving import ServingConfig
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.util.framing import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    WIRE_VERSION,
    WireFrame,
    decode_frame,
    encode_frame,
)
from repro.util.errors import (
    ServingError,
    WireCorruptionError,
    WireError,
    WireFormatError,
    WireTruncatedError,
    WireVersionError,
)

from tests.serving.conftest import CountingBackend, memory_cache


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def sample_frame() -> bytes:
    return encode_frame(
        WireFrame("frame", {"seq": 7, "status": "ok"}, b"pixels" * 100)
    )


class TestRoundTrip:
    def test_encode_decode_round_trip(self):
        frame = WireFrame("frame", {"seq": 3, "digest": "abc"}, b"\x00\x01\x02")
        decoded, consumed = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert consumed == len(encode_frame(frame))

    def test_empty_payload_and_meta(self):
        decoded, _ = decode_frame(encode_frame(WireFrame("hello")))
        assert decoded.kind == "hello"
        assert decoded.meta == {}
        assert decoded.payload == b""

    def test_back_to_back_frames_consume_exactly(self):
        a, b = encode_frame(WireFrame("open")), encode_frame(WireFrame("close"))
        first, consumed = decode_frame(a + b)
        assert first.kind == "open"
        second, _ = decode_frame((a + b)[consumed:])
        assert second.kind == "close"


class TestCorruptionMatrix:
    def test_truncated_at_every_boundary(self):
        """Any prefix of a valid frame is typed truncation."""
        data = sample_frame()
        for cut in (0, 3, 16, 17, 30, len(data) - 33, len(data) - 1):
            with pytest.raises(WireTruncatedError):
                decode_frame(data[:cut])

    def test_bit_flip_in_payload_vs_digest(self):
        """A single flipped payload bit violates the content digest."""
        data = bytearray(sample_frame())
        data[len(data) - 40] ^= 0x01  # inside the payload, before digest
        with pytest.raises(WireCorruptionError):
            decode_frame(bytes(data))

    def test_bit_flip_in_header_vs_digest(self):
        data = bytearray(sample_frame())
        data[20] ^= 0x01  # inside the JSON header
        with pytest.raises(WireCorruptionError):
            decode_frame(bytes(data))

    def test_bit_flip_in_digest_itself(self):
        data = bytearray(sample_frame())
        data[-1] ^= 0xFF
        with pytest.raises(WireCorruptionError):
            decode_frame(bytes(data))

    def test_bad_version(self):
        data = bytearray(sample_frame())
        data[4] = WIRE_VERSION + 9
        with pytest.raises(WireVersionError):
            decode_frame(bytes(data))

    def test_bad_magic(self):
        data = bytearray(sample_frame())
        data[:4] = b"ZZZZ"
        with pytest.raises(WireFormatError):
            decode_frame(bytes(data))

    def test_absurd_header_length(self):
        prefix = struct.pack(">4sBIQ", b"RSWP", WIRE_VERSION,
                             MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(WireFormatError):
            decode_frame(prefix + b"\x00" * 64)

    def test_absurd_payload_length(self):
        prefix = struct.pack(">4sBIQ", b"RSWP", WIRE_VERSION,
                             2, MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(WireFormatError):
            decode_frame(prefix + b"\x00" * 64)

    def test_header_not_json(self):
        """Digest-valid frame whose header is garbage: format error."""
        import hashlib
        header, payload = b"not json at all", b""
        digest = hashlib.sha256(header + payload).digest()
        data = (struct.pack(">4sBIQ", b"RSWP", WIRE_VERSION,
                            len(header), len(payload))
                + header + payload + digest)
        with pytest.raises(WireFormatError):
            decode_frame(data)

    def test_header_json_without_kind(self):
        import hashlib
        header = b'{"meta": {}}'
        digest = hashlib.sha256(header).digest()
        data = (struct.pack(">4sBIQ", b"RSWP", WIRE_VERSION, len(header), 0)
                + header + digest)
        with pytest.raises(WireFormatError):
            decode_frame(data)

    def test_every_wire_error_is_a_serving_error(self):
        for exc_type in (WireError, WireFormatError, WireVersionError,
                         WireTruncatedError, WireCorruptionError):
            assert issubclass(exc_type, ServingError)

    def test_oversized_encode_refused(self):
        with pytest.raises(WireFormatError):
            encode_frame(WireFrame("frame", {"pad": "x" * (MAX_HEADER_BYTES)}))


class TestEndpoint:
    """Live-socket modes: the dialogue, disconnects, and resume."""

    @staticmethod
    def make_server():
        backend = CountingBackend()
        config = ServingConfig(slots=2, speculation_budget=1)
        return backend, WireSessionServer(backend, config, cache=memory_cache())

    def test_session_stream_end_to_end(self):
        from repro.serving.request import Request

        backend, server = self.make_server()
        with server:
            with WireSessionClient(server.host, server.port) as client:
                assert client.open("wire-1", tenant="t1") == []
                for t in range(4):
                    params = {"scene": "w", "timestep": t}
                    frame = client.render(params)
                    assert frame.meta["status"] == "ok"
                    assert frame.meta["seq"] == t
                    assert frame.payload == backend.payload_for(
                        Request(params=params))

    def test_mid_stream_disconnect_is_typed_and_resumable(self):
        """The armed send fault drops the connection mid-stream; the
        client sees a typed error, resumes, and receives the lost frame
        byte-identically from the replay ring."""
        backend, server = self.make_server()
        with server:
            client = WireSessionClient(server.host, server.port).connect()
            client.open("wire-2")
            served = [client.render({"scene": "r", "timestep": t})
                      for t in range(3)]

            faults.arm("serving.wire.send", "drop",
                       match={"kind": "frame"}, times=1)
            with pytest.raises(WireError):
                client.render({"scene": "r", "timestep": 3})

            replayed = client.reconnect()
            assert [f.meta["seq"] for f in replayed] == [3]
            assert replayed[0].meta["replayed"] is True
            from repro.serving.request import Request
            expected = backend.payload_for(
                Request(params={"scene": "r", "timestep": 3}))
            assert replayed[0].payload == expected

            cont = client.render({"scene": "r", "timestep": 4})
            assert cont.meta["seq"] == 4
            assert [f.meta["seq"] for f in served] == [0, 1, 2]
            client.close()

    def test_frame_corrupted_in_flight_fails_its_digest_and_is_replayed(self):
        """The send site's other action, ``corrupt``, flips a byte behind
        the prefix: the client's digest check refuses the frame, and the
        resume path delivers it intact."""
        from repro.serving.request import Request

        backend, server = self.make_server()
        with server:
            client = WireSessionClient(server.host, server.port).connect()
            client.open("wire-5")
            faults.arm("serving.wire.send", "corrupt",
                       match={"kind": "frame"}, times=1)
            with pytest.raises(WireCorruptionError):
                client.render({"scene": "c", "timestep": 0})

            replayed = client.reconnect()
            assert [f.meta["seq"] for f in replayed] == [0]
            assert replayed[0].payload == backend.payload_for(
                Request(params={"scene": "c", "timestep": 0}))
            client.close()

    def test_resume_replays_nothing_when_nothing_was_missed(self):
        _backend, server = self.make_server()
        with server:
            client = WireSessionClient(server.host, server.port).connect()
            client.open("wire-3")
            client.render({"scene": "q", "timestep": 0})
            assert client.reconnect() == []
            client.close()

    def test_server_rejects_render_before_open(self):
        _backend, server = self.make_server()
        with server:
            client = WireSessionClient(server.host, server.port).connect()
            with pytest.raises(WireError):
                client.render({"scene": "x"})
            client.close_socket()

    def test_server_refuses_unknown_version_frames(self):
        """A frame stamped with a future version is refused, typed."""
        import socket as socket_module

        _backend, server = self.make_server()
        with server:
            sock = socket_module.create_connection(
                (server.host, server.port), timeout=10.0)
            try:
                bad = bytearray(encode_frame(WireFrame("hello")))
                bad[4] = WIRE_VERSION + 1
                sock.sendall(bytes(bad))
                from repro.serving.wire import read_frame
                reply = read_frame(sock)
                assert reply is not None
                assert reply.kind == "error"
                assert reply.meta["error"] == "WireVersionError"
            finally:
                sock.close()

    def test_malformed_open_and_render_meta_get_a_typed_error(self):
        """An OPEN whose ``resume_from`` is no int and a RENDER whose
        ``params`` is no mapping are answered with a ``WireFormatError``
        frame, not a bare EOF; another session keeps rendering."""
        import socket as socket_module

        from repro.serving import wire

        cases = [  # (frames sent after HELLO, the replies before the error)
            ([WireFrame(wire.KIND_OPEN, {"session": "s", "resume_from": "x"})], []),
            ([WireFrame(wire.KIND_OPEN, {"session": "s", "tenant": "t"}),
              WireFrame(wire.KIND_RENDER, {"params": 3})], [wire.KIND_OPENED]),
        ]
        _backend, server = self.make_server()
        with server:
            for frames, replies in cases:
                with socket_module.create_connection(
                        (server.host, server.port), timeout=10.0) as sock:
                    wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
                    assert wire.read_frame(sock).kind == wire.KIND_WELCOME
                    for frame in frames:
                        wire.write_frame(sock, frame)
                    for kind in replies:
                        assert wire.read_frame(sock).kind == kind
                    reply = wire.read_frame(sock)
                    assert reply is not None
                    assert reply.kind == wire.KIND_ERROR
                    assert reply.meta["error"] == "WireFormatError"
            with WireSessionClient(server.host, server.port) as client:
                client.open("still-serving")
                assert client.render({"scene": "m"}).meta["status"] == "ok"

    def test_an_exception_escaping_a_connection_fails_stop(self, monkeypatch):
        """What a connection task lets escape reaches the loop's exception
        handler, which asyncio would only log: ``stop()`` raises it, so
        the test that caused it fails."""

        async def broken(self, reader, writer):
            raise RuntimeError("the dialogue broke")

        monkeypatch.setattr(WireSessionServer, "_dialogue", broken)
        _backend, server = self.make_server()
        server.start()
        try:
            client = WireSessionClient(server.host, server.port)
            with pytest.raises((WireError, OSError)):
                client.connect()  # the server hangs up
            client.close_socket()
        finally:
            with pytest.raises(RuntimeError, match="the dialogue broke"):
                server.stop()
        server.stop()  # raised once: a second stop is quiet

    def test_a_peer_stalled_mid_frame_does_not_stall_another(self):
        """A peer that sends a frame prefix and withholds the body holds
        up no other connection: every connection is its own task."""
        import socket as socket_module
        import time

        from repro.serving import wire

        _backend, server = self.make_server()
        with server:
            with socket_module.create_connection(
                    (server.host, server.port), timeout=10.0) as stalled:
                wire.write_frame(stalled, WireFrame(wire.KIND_HELLO))
                assert wire.read_frame(stalled).kind == wire.KIND_WELCOME
                stalled.sendall(encode_frame(WireFrame(wire.KIND_RENDER))[:17])  # the prefix alone
                t0 = time.monotonic()
                with WireSessionClient(server.host, server.port) as client:
                    client.open("unstalled")
                    for t in range(5):
                        frame = client.render({"scene": "u", "timestep": t})
                        assert frame.meta["seq"] == t
                assert time.monotonic() - t0 < 5.0

    def test_wire_frames_byte_identical_to_direct_serving(self):
        """The wire adds framing, never changes pixels: a frame served
        over the socket equals one served through ServingServer.submit."""
        import asyncio

        from repro.serving.request import Request
        from repro.serving.server import ServingServer

        backend, server = self.make_server()
        params = {"scene": "ident", "timestep": 5}
        with server:
            with WireSessionClient(server.host, server.port) as client:
                client.open("wire-4")
                over_wire = client.render(params).payload

        async def direct():
            config = ServingConfig(slots=2)
            async with ServingServer(CountingBackend(), config=config,
                                     cache=memory_cache()) as srv:
                response = await srv.submit(Request(params=params,
                                                    session="other"))
                return response.payload

        assert over_wire == asyncio.run(direct())
