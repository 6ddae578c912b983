"""Process/thread hygiene when serving tests fail.

A failed serving test must not leak: no executor threads after
``aclose()``, no dead connection threads kept by the wire endpoint, and
no ``repro-hyperwall-client-`` processes when a cluster fails during
startup.  These are the leaks that turn one red test into a cascade of
unrelated failures (ports held, cores busy).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time

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
                assert _serving_threads()  # pool is alive mid-session
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
    def test_stop_wakes_the_accept_thread_at_once(self):
        """Closing a listener does not wake accept() on Linux; stop()
        must shut it down, not sit out the accept thread's join timeout."""
        from repro.serving.endpoint import WireSessionServer

        server = WireSessionServer(CountingBackend(), ServingConfig(slots=1))
        server.start()
        time.sleep(0.2)  # let the accept thread block in accept()
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not [
            t for t in threading.enumerate() if t.name == "repro-wire-accept"
        ]


    def test_closed_connections_leave_no_thread_behind(self):
        """A connection's thread is dropped with its socket: after many
        short sessions the endpoint tracks live connections only."""
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
                while len(server._conn_threads) > 1 and time.monotonic() < deadline:
                    time.sleep(0.01)  # the last closed peer's thread is unwinding
                assert len(server._conn_threads) == 1
                assert all(t.is_alive() for t in server._conn_threads.values())
        finally:
            t0 = time.monotonic()
            server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not server._conn_threads


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
