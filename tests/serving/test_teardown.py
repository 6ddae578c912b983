"""Process/thread hygiene when serving tests fail.

A failed serving test must not leak: no executor threads after
``aclose()``, no closed connections kept by the wire endpoint, and
no ``repro-hyperwall-client-`` processes when a cluster fails during
startup.  These are the leaks that turn one red test into a cascade of
unrelated failures (ports held, cores busy).
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import socket
import threading
import time
import warnings

import pytest

from repro.serving import Request, ServingConfig, ServingServer

from tests.serving.conftest import CountingBackend


def _no_children(prefix: str, wait_s: float = 10.0) -> bool:
    """True when no live child process name starts with *prefix*."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if not any(
            p.name.startswith(prefix) for p in multiprocessing.active_children()
        ):
            return True
        time.sleep(0.05)
    return False


def _resource_warnings_on_collect() -> list:
    """The ResourceWarnings a garbage collection raises: unclosed sockets."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def _serving_threads() -> list:
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-serving")
    ]


class TestServerTeardown:
    def test_aclose_leaves_no_executor_threads(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(slots=3), cache=None
            )
            async with server:
                await server.submit(Request(params={"scene": 1}))
                assert _serving_threads() == []  # every render ran on this loop
            return True

        asyncio.run(scenario())
        assert _serving_threads() == []

    def test_aclose_after_backend_failure_leaves_no_threads(self):
        class Exploding(CountingBackend):
            def __call__(self, request, degraded):
                raise RuntimeError("boom")

        async def scenario():
            server = ServingServer(Exploding(), cache=None)
            try:
                async with server:
                    response = await server.submit(Request(params={"s": 1}))
                    assert response.status == "error"
            finally:
                await server.aclose()  # double close: must be safe

        asyncio.run(scenario())
        assert _serving_threads() == []

    def test_aclose_is_idempotent_and_reentrant_from_finally(self, backend):
        async def scenario():
            server = ServingServer(backend, cache=None)
            await server.start()
            await server.aclose()
            await server.aclose()
            return server.stats()

        stats = asyncio.run(scenario())
        assert stats["closed"] and stats["inflight"] == 0


class TestWireEndpointTeardown:
    def test_stop_returns_at_once_with_no_wire_thread(self):
        """stop() closes the acceptor and the loop it runs on at once,
        and leaves no endpoint thread behind."""
        from repro.serving.endpoint import WireSessionServer

        server = WireSessionServer(CountingBackend(), ServingConfig(slots=1))
        server.start()
        time.sleep(0.2)  # let the loop sit idle in its selector
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not [
            t for t in threading.enumerate() if t.name.startswith("repro-wire")
        ]

    def test_stop_hangs_up_on_peers_still_arriving(self):
        """Peers that connect while stop() runs are hung up on: stop()
        returns at once and leaves no socket or task of theirs behind."""
        from repro.serving.endpoint import WireSessionServer

        server = WireSessionServer(CountingBackend(), ServingConfig(slots=1))
        server.start()
        peers = []

        def dial():
            while len(peers) < 200:
                try:
                    peers.append(socket.create_connection(
                        (server.host, server.port), timeout=5.0))
                except OSError:
                    return  # refused: the listener is closed

        dialer = threading.Thread(target=dial)
        dialer.start()
        time.sleep(0.02)
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        dialer.join()
        for peer in peers:
            with peer:
                try:
                    assert peer.recv(1) == b""  # hung up on ...
                except ConnectionResetError:
                    pass  # ... or refused from the backlog
        assert not _resource_warnings_on_collect()

    def test_stop_drops_what_a_stalled_reader_never_took(self):
        """A peer that stopped reading mid-frame does not hold stop() up:
        the bytes it never took are dropped and its socket is closed."""
        from repro.serving import wire
        from repro.serving.endpoint import WireSessionServer
        from repro.util.framing import WireFrame

        def large(request, degraded):
            return b"x" * (8 << 20)

        server = WireSessionServer(large, ServingConfig(slots=1))
        server.start()
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
            assert wire.read_frame(sock).kind == wire.KIND_WELCOME
            wire.write_frame(sock, WireFrame(wire.KIND_OPEN, {"session": "s"}))
            assert wire.read_frame(sock).kind == wire.KIND_OPENED
            wire.write_frame(sock, WireFrame(wire.KIND_RENDER, {"params": {}}))
            time.sleep(0.3)  # the frame is rendered and backs up unread
            t0 = time.monotonic()
            server.stop()
            assert time.monotonic() - t0 < 1.0
        assert not _resource_warnings_on_collect()

    def test_closed_peers_leave_the_connection_set(self):
        """A connection's task leaves the set when its peer goes: after
        many short sessions the endpoint tracks live connections only."""
        from repro.serving.endpoint import WireSessionClient, WireSessionServer

        server = WireSessionServer(CountingBackend(), ServingConfig(slots=1))
        server.start()
        try:
            for i in range(50):
                with WireSessionClient(server.host, server.port) as client:
                    client.open(f"short-{i}")
                    client.render({"scene": "s", "timestep": i})
            with WireSessionClient(server.host, server.port) as live:
                live.open("still-here")
                deadline = time.monotonic() + 5.0
                while len(server._conns) > 1 and time.monotonic() < deadline:
                    time.sleep(0.01)  # the last closed peer's task is unwinding
                assert len(server._conns) == 1
                assert [
                    t.name for t in threading.enumerate()
                    if t.name.startswith("repro-wire")
                ] == ["repro-wire-loop"]
        finally:
            t0 = time.monotonic()
            server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not server._conns

    def test_a_silent_peer_is_dropped_after_io_timeout(self):
        """A peer that says HELLO and then nothing is closed once
        ``io_timeout`` passes, and its task leaves the connection set."""
        from repro.serving import wire
        from repro.serving.endpoint import WireSessionServer
        from repro.util.framing import WireFrame

        with WireSessionServer(
            CountingBackend(), ServingConfig(slots=1), io_timeout=0.2
        ) as server:
            with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
                wire.write_frame(sock, WireFrame(wire.KIND_HELLO))
                assert wire.read_frame(sock).kind == wire.KIND_WELCOME
                t0 = time.monotonic()
                assert wire.read_frame(sock) is None  # the endpoint hung up
                assert time.monotonic() - t0 < 1.0
            deadline = time.monotonic() + 1.0
            while server._conns and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._conns


class TestHyperwallStartupTeardown:
    """``LocalCluster.start()`` failure must not orphan client processes
    (``__exit__`` never runs when ``__enter__`` raises)."""

    def test_failed_accept_tears_down_spawned_clients(self, registry):
        from repro.hyperwall.cluster import LocalCluster
        from repro.util.errors import HyperwallError
        from repro.workflow.pipeline import Pipeline

        from tests.conftest import build_cell_chain

        pipeline = Pipeline(registry)
        build_cell_chain(pipeline, width=24, height=18)
        cluster = LocalCluster(pipeline, n_clients=2)

        def failing_accept(count, timeout=30.0):
            raise HyperwallError("injected accept failure")

        cluster.server.accept_clients = failing_accept
        with pytest.raises(HyperwallError, match="injected accept"):
            cluster.start()
        assert _no_children("repro-hyperwall-client-")
        assert cluster._processes == []
