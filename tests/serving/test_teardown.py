"""Process/thread/shm hygiene when serving tests fail.

A failed serving test must not leak: no executor threads after
``aclose()``, no ``repro-parallel-`` worker processes or shared-memory
segments when a kernel-pool-backed render dies mid-request, and no
``repro-hyperwall-client-`` processes when a cluster fails during
startup.  These are the leaks that turn one red test into a cascade of
unrelated failures (ports held, cores busy, /dev/shm full).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.parallel import ParallelConfig, run_tiles, shared_ndarray
from repro.resilience import faults
from repro.serving import Request, ServingConfig, ServingServer

from tests.serving.conftest import CountingBackend, memory_cache

POOL_AVAILABLE = ParallelConfig(workers=2).enabled


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


# -- module-level tile function (must be importable in forked workers) --------

def _kernel_tile(shm_name, band):
    from repro.parallel.pool import attach_ndarray

    b0, b1 = band
    with attach_ndarray(shm_name, (8,), np.float64) as out:
        out[b0:b1] = 1.0
    return b1 - b0


class TestServerTeardown:
    def test_aclose_leaves_no_executor_threads(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(workers=3), cache=None
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


@pytest.mark.skipif(not POOL_AVAILABLE, reason="POSIX shared memory unavailable")
class TestWireEndpointTeardown:
    def test_stop_wakes_the_accept_thread_at_once(self):
        """Closing a listener does not wake accept() on Linux; stop()
        must shut it down, not sit out the accept thread's join timeout."""
        from repro.serving.endpoint import WireSessionServer

        server = WireSessionServer(CountingBackend(), ServingConfig(workers=1))
        server.start()
        time.sleep(0.2)  # let the accept thread block in accept()
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not [
            t for t in threading.enumerate() if t.name == "repro-wire-accept"
        ]


class TestKernelPoolThroughServing:
    """The serving path on top of :mod:`repro.parallel` must clean up
    even when the pool dies mid-request."""

    @pytest.fixture(autouse=True)
    def clean_registry(self):
        faults.disarm()
        yield
        faults.disarm()

    def test_pool_backed_render_completes_and_cleans_up(self):
        def pool_backend(request: Request, degraded: bool) -> bytes:
            with shared_ndarray((8,), np.float64) as (name, out):
                run_tiles(
                    ParallelConfig(workers=2, min_items=1, timeout=30.0),
                    _kernel_tile, [(0, 4), (4, 8)], payload=name,
                )
                return out.tobytes()

        async def scenario():
            server = ServingServer(pool_backend, cache=memory_cache())
            async with server:
                return await server.submit(Request(params={"scene": 1}))

        response = asyncio.run(scenario())
        assert response.status == "ok"
        assert np.frombuffer(response.payload).tolist() == [1.0] * 8
        assert _no_children("repro-parallel-")

    def test_worker_death_mid_request_leaks_nothing(self):
        """A SIGKILLed pool worker inside a serving request: the request
        errors, the shm segment is unlinked, no processes survive."""
        from multiprocessing import shared_memory

        faults.arm("parallel.tile", "exit", match={"tile": 1}, times=0)
        leaked: dict = {}

        def doomed_backend(request: Request, degraded: bool) -> bytes:
            with shared_ndarray((8,), np.float64) as (name, _out):
                leaked["shm"] = name
                run_tiles(
                    ParallelConfig(
                        workers=2, min_items=1, timeout=30.0, respawn_budget=2
                    ),
                    _kernel_tile, [(0, 4), (4, 8)], payload=name,
                )
            raise AssertionError("the injected kill never fired")

        async def scenario():
            server = ServingServer(
                doomed_backend,
                config=ServingConfig(workers=2, breaker_failures=10),
                cache=memory_cache(),
            )
            async with server:
                return await server.submit(Request(params={"scene": 1}))

        response = asyncio.run(scenario())
        assert response.status == "error"
        assert "died with exit code" in response.reason
        # the failed request tore its own resources down
        assert _no_children("repro-parallel-")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=leaked["shm"])
        assert _serving_threads() == []


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
