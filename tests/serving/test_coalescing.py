"""Coalescing correctness: N identical digests, one execution, N frames.

The acceptance contract of the serving layer: 64 concurrent requests
for the same product from 8 different tenants must execute the backend
exactly once (asserted through the ``serving.outcome`` obs counter
*and* the backend's own call log) and every requester must receive
byte-identical payload.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.serving import Request, ServingConfig, ServingServer
from repro.util.errors import ServingError

from tests.serving.conftest import (
    CountingBackend,
    executions,
    memory_cache,
    submit_deferred,
)


class TestAcceptance:
    def test_64_identical_requests_8_tenants_one_execution(self):
        """The headline contract, end to end with obs counters."""

        async def scenario():
            backend = CountingBackend()
            server = ServingServer(
                backend,
                config=ServingConfig(slots=4, queue_limit=128),
                cache=memory_cache(),
            )
            params = {"scene": 7, "width": 64, "height": 48}
            requests = [
                Request(
                    params=dict(params),
                    tenant=f"tenant-{i % 8}",
                    session=f"session-{i}",
                )
                for i in range(64)
            ]
            responses = await submit_deferred(server, requests)
            return backend, responses

        recorder = obs.enable(obs.Recorder())
        try:
            backend, responses = asyncio.run(scenario())
        finally:
            obs.disable()

        # exactly one kernel execution, by both accounts
        assert backend.full_calls == 1
        assert executions(recorder) == 1
        assert recorder.counter_total("serving.coalesced") == 63
        assert recorder.counter_total("serving.requests") == 64

        # all 64 responses completed, byte-identical, correctly routed
        assert len(responses) == 64
        assert all(r.status == "ok" for r in responses)
        payloads = {r.payload for r in responses}
        assert payloads == {backend.payload_for(Request(params={"scene": 7, "width": 64, "height": 48}))}
        assert {r.tenant for r in responses} == {f"tenant-{i}" for i in range(8)}
        # one leader executed, the rest are marked coalesced
        assert sum(1 for r in responses if r.coalesced) == 63


class TestCoalescing:
    def test_distinct_params_do_not_coalesce(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(slots=2), cache=memory_cache()
            )
            requests = [Request(params={"scene": i}) for i in range(5)]
            return await submit_deferred(server, requests)

        responses = asyncio.run(scenario())
        assert backend.full_calls == 5
        assert len({r.payload for r in responses}) == 5
        assert all(not r.coalesced for r in responses)

    def test_same_params_different_order_coalesce(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(slots=2), cache=memory_cache()
            )
            requests = [
                Request(params={"a": 1, "b": 2.5, "c": "x"}),
                Request(params={"c": "x", "a": 1, "b": 2.5}),
                Request(params={"b": 2.5, "c": "x", "a": 1}),
            ]
            return await submit_deferred(server, requests)

        responses = asyncio.run(scenario())
        assert backend.full_calls == 1
        assert len({r.payload for r in responses}) == 1

    def test_sequential_repeat_served_from_cache_not_reexecuted(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(slots=2), cache=memory_cache()
            )
            request = Request(params={"scene": 3})
            async with server:
                first = await server.submit(request)
                second = await server.submit(request)
            return first, second

        first, second = asyncio.run(scenario())
        assert backend.full_calls == 1
        assert first.source == "render" and second.source == "cache"
        assert first.payload == second.payload

    def test_no_cache_still_coalesces_but_reexecutes_sequentially(self, backend):
        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(slots=2), cache=None
            )
            request = Request(params={"scene": 1})
            burst = await submit_deferred(server, [request] * 6, close=False)
            again = await server.submit(request)
            await server.aclose()
            return burst, again

        burst, again = asyncio.run(scenario())
        # the burst coalesced to one call; the later repeat re-executed
        assert backend.full_calls == 2
        assert len({r.payload for r in burst}) == 1
        assert again.payload == burst[0].payload

    def test_waiters_inherit_leader_error(self, serving_cache):
        class Exploding(CountingBackend):
            def __call__(self, request, degraded):
                super().__call__(request, degraded)
                raise RuntimeError("kernel exploded")

        backend = Exploding()

        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(slots=2),
                cache=serving_cache,
            )
            return await submit_deferred(server, [Request(params={"s": 1})] * 4)

        responses = asyncio.run(scenario())
        assert backend.full_calls == 1  # the failure is also coalesced
        assert all(r.status == "error" for r in responses)
        assert all("kernel exploded" in r.reason for r in responses)

    def test_submit_after_close_raises(self, backend):
        async def scenario():
            server = ServingServer(backend, cache=None)
            async with server:
                pass
            with pytest.raises(ServingError, match="closed"):
                await server.submit(Request(params={"s": 1}))

        asyncio.run(scenario())

    def test_close_resolves_pending_submissions_as_shed(self, backend):
        async def scenario():
            server = ServingServer(backend, cache=None)
            # submitted but never started: close must not strand the waiter
            task = asyncio.create_task(server.submit(Request(params={"s": 9})))
            await asyncio.sleep(0)
            await server.aclose()
            return await task

        response = asyncio.run(scenario())
        assert response.status == "shed"
        assert response.reason == "closed"
        assert backend.full_calls == 0
