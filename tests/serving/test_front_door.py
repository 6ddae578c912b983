"""The wire front door's per-frame costs and checks.

* A read of a peer arms one timer on the serving loop instead of
  starting a task (``asyncio.wait_for`` does on Python 3.10 and 3.11):
  a steady stream of repeats creates no task at all.
* A peer that goes silent, before a frame or in the middle of one, is
  still dropped after ``io_timeout``: no ``error`` frame is sent and no
  protocol error is counted.
* A client refuses a ``FRAME`` that advertises no payload digest, so no
  pixels are handed on unchecked.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro import obs
from repro.serving import ServingConfig, wire
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.util.errors import WireCorruptionError, WireFormatError
from repro.util.framing import WireFrame, encode_frame

from tests.serving.conftest import CountingBackend


def test_repeats_over_the_wire_create_no_task():
    created = []

    def factory(loop, coro, **kwargs):
        created.append(getattr(coro, "__qualname__", repr(coro)))
        return asyncio.Task(coro, loop=loop, **kwargs)

    with WireSessionServer(CountingBackend(), ServingConfig(slots=1)) as server:
        with WireSessionClient(server.host, server.port) as client:
            client.open("s")
            client.render({"scene": "a"})  # warm-up
            server._loop.call_soon_threadsafe(server._loop.set_task_factory, factory)
            client.render({"scene": "a"})  # the factory is in place once this returns
            created.clear()
            for _ in range(100):
                assert client.render({"scene": "a"}).meta["status"] == "ok"
            assert created == []
            server._loop.call_soon_threadsafe(server._loop.set_task_factory, None)


@pytest.mark.parametrize("sent", ["nothing", "a frame prefix"])
def test_a_silent_peer_is_dropped_quietly(sent):
    with obs.recording() as rec:
        with WireSessionServer(CountingBackend(), ServingConfig(slots=1), io_timeout=0.2) as server:
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
                assert wire.read_frame(sock).kind == wire.KIND_WELCOME
                if sent != "nothing":
                    sock.sendall(encode_frame(WireFrame(wire.KIND_RENDER))[:17])
                t0 = time.monotonic()
                assert wire.read_frame(sock) is None  # hung up on, no error frame first
                assert time.monotonic() - t0 < 2.0
    assert rec.counter_total("serving.wire.protocol_errors") == 0


def _one_frame_server(meta, payload: bytes):
    """A peer that welcomes, takes one request and answers *meta*/*payload*."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            wire.read_frame(conn)
            wire.write_frame(conn, WireFrame(wire.KIND_WELCOME, {"wire_version": 1}))
            wire.read_frame(conn)
            wire.write_frame(conn, WireFrame(wire.KIND_FRAME, meta, payload))
            wire.read_frame(conn)  # until the client hangs up

    thread = threading.Thread(target=serve, name="fake-wire-peer", daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("meta", [{"seq": 0, "status": "ok"}, {"seq": 0, "status": "ok", "digest": ""}])
def test_a_frame_without_a_digest_is_refused(meta):
    listener, thread = _one_frame_server(meta, b"pixels")
    with listener:
        client = WireSessionClient(*listener.getsockname()).connect()
        try:
            with pytest.raises(WireFormatError, match="digest"):
                client.render({"scene": "a"})
        finally:
            client.close_socket()
        thread.join(timeout=5.0)


def test_a_frame_with_a_wrong_digest_is_still_corrupt():
    listener, thread = _one_frame_server({"seq": 0, "status": "ok", "digest": "0" * 64}, b"pixels")
    with listener:
        client = WireSessionClient(*listener.getsockname()).connect()
        try:
            with pytest.raises(WireCorruptionError):
                client.render({"scene": "a"})
        finally:
            client.close_socket()
        thread.join(timeout=5.0)
