"""Every request ends in exactly one outcome, and every speculation too.

``serving.outcome{tenant, status, source, reason}`` is counted once per
``submit``, from its final :class:`~repro.serving.Response`, so per
tenant it sums to ``serving.requests``; ``serving.speculative.outcome
{tenant, outcome}`` is counted once per finished speculation, so it
sums to ``serving.speculative.started``.  Each scenario below drives one
exit under its own tenant, and the test pins both sums and the labels
each exit is counted under.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

import pytest

from repro import obs
from repro.resilience import faults
from repro.serving import Request, ServingConfig, ServingServer, request_key, wire
from repro.serving.endpoint import WireSessionClient, WireSessionServer
from repro.serving.server import BREAKER_FAILURES
from repro.util.errors import ServingError
from repro.util.framing import WireFrame

from tests.serving.conftest import CountingBackend, FakeClock, memory_cache, submit_deferred


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


class SpeculationFails(CountingBackend):
    """Renders timesteps 0–2; the predicted timestep 3 raises."""

    def __call__(self, request: Request, degraded: bool) -> bytes:
        if request.params.get("timestep", 0) >= 3:
            raise RuntimeError("no timestep 3")
        return super().__call__(request, degraded)


def sessionful(tenant: str, **params) -> Request:
    return Request(params=dict(params, scene=tenant), tenant=tenant, session=f"s-{tenant}")


async def render_cache_coalesce(backend):
    server = ServingServer(backend, cache=memory_cache())
    hot = Request(params={"scene": "hot"})
    await submit_deferred(server, [
        Request(params=hot.params, tenant="render"),
        Request(params=hot.params, tenant="coalesced"),
    ], close=False)
    await server.submit(Request(params=hot.params, tenant="cache"))
    await server.aclose()


async def shed_and_fail(backend):
    full = ServingServer(backend, config=ServingConfig(slots=1, queue_limit=1))
    await submit_deferred(full, [
        Request(params={"scene": i}, tenant="queue_full") for i in range(2)
    ])

    async with ServingServer(backend) as server:
        server.admission.observe_service(10.0)  # every queue drains too late
        await server.submit(Request(params={"scene": "late"}, tenant="deadline", deadline_s=1.0))

    clock = FakeClock()
    server = ServingServer(backend, clock=clock)
    queued = asyncio.create_task(
        server.submit(Request(params={"scene": "x"}, tenant="expired", deadline_s=1.0))
    )
    await asyncio.sleep(0)
    clock.advance(2.0)
    await server.start()
    await queued
    await server.aclose()

    server = ServingServer(backend)  # never started: aclose sheds the queue
    stranded = asyncio.create_task(server.submit(Request(params={"scene": "c"}, tenant="closed")))
    await asyncio.sleep(0)
    await server.aclose()
    await stranded

    async with ServingServer(backend) as server:
        faults.arm("serving.execute", "raise", times=1)
        await server.submit(Request(params={"scene": "e"}, tenant="error"))

        await server.submit(sessionful("owner"))
        with pytest.raises(ServingError):
            await server.submit(Request(params={"scene": "owner"}, tenant="intruder",
                                        session="s-owner"))


async def degrade(backend):
    cache = memory_cache()
    server = ServingServer(backend, cache=cache, clock=FakeClock())
    for _ in range(BREAKER_FAILURES):
        server.breaker.record_failure()
    stale = Request(params={"scene": "stale"}, tenant="degraded-cache")
    tasks = [asyncio.create_task(server.submit(r)) for r in
             (stale, Request(params={"scene": "fresh"}, tenant="degraded-render"))]
    await asyncio.sleep(0)  # both queued on a cache miss
    cache.put(request_key(stale), b"stale", site="test")
    await server.start()
    await asyncio.gather(*tasks)
    await server.aclose()


async def speculate():
    config = ServingConfig(speculation_budget=1)
    async with ServingServer(CountingBackend(), config=config, cache=memory_cache()) as server:
        for t in range(3):
            await server.submit(sessionful("spec-rendered", timestep=t))
        await server.drain_speculation()
        for t in range(3):
            await server.submit(sessionful("spec-cancelled", timestep=t))
        # no yield since: the speculation of timestep 3 has not started
        await server.submit(sessionful("spec-cancelled", timestep=40))
    async with ServingServer(SpeculationFails(), config=config) as server:
        for t in range(3):
            await server.submit(sessionful("spec-error", timestep=t))
        await server.drain_speculation()


def queued_at_stop(backend):
    """A RENDER still waiting in the serving queue when the endpoint stops."""
    endpoint = WireSessionServer(backend, cache=memory_cache())
    endpoint.server.start = lambda: asyncio.sleep(0)  # no worker: the frame stays queued
    with endpoint:
        client = WireSessionClient(endpoint.host, endpoint.port).connect()
        client.open("s-wire", tenant="wire")
        wire.write_frame(client._sock, WireFrame(wire.KIND_RENDER, {"params": {"scene": "w"}}))
        deadline = time.monotonic() + 5.0
        while endpoint.server.stats()["queue_depth"] == 0:
            assert time.monotonic() < deadline, "the frame never reached the queue"
            time.sleep(0.005)
    client.close_socket()


def outcomes(recorder, name: str, tenant: str) -> Counter:
    return Counter({
        tuple(v for k, v in key.labels if k != "tenant"): value
        for key, value in recorder.counters.items()
        if key.name == name and key.label_dict()["tenant"] == tenant
    })


def test_every_exit_ends_in_exactly_one_outcome():
    backend = CountingBackend()
    recorder = obs.enable(obs.Recorder())
    try:
        asyncio.run(render_cache_coalesce(backend))
        asyncio.run(shed_and_fail(backend))
        asyncio.run(degrade(backend))
        asyncio.run(speculate())
        queued_at_stop(backend)
    finally:
        obs.disable()

    requests = {dict(k.labels)["tenant"]: v for k, v in recorder.counters.items()
                if k.name == "serving.requests"}
    started = {dict(k.labels)["tenant"]: v for k, v in recorder.counters.items()
               if k.name == "serving.speculative.started"}
    for tenant, count in requests.items():
        assert sum(outcomes(recorder, "serving.outcome", tenant).values()) == count, tenant
    for tenant, count in started.items():
        assert sum(outcomes(recorder, "serving.speculative.outcome", tenant).values()) == count, tenant

    # labels sort as (reason, source, status)
    expected = {
        "render": {("", "render", "ok"): 1},
        "coalesced": {("", "render", "ok"): 1},
        "cache": {("", "cache", "ok"): 1},
        "queue_full": {("", "render", "ok"): 1, ("queue_full", "", "shed"): 1},
        "deadline": {("deadline", "", "shed"): 1},
        "expired": {("expired", "", "shed"): 1},
        "closed": {("closed", "", "shed"): 1},
        "error": {("", "", "error"): 1},
        "owner": {("", "render", "ok"): 1},
        "degraded-cache": {("", "cache", "degraded"): 1},
        "degraded-render": {("", "render", "degraded"): 1},
        "spec-rendered": {("", "render", "ok"): 3},
        "spec-cancelled": {("", "render", "ok"): 4},
        "spec-error": {("", "render", "ok"): 3},
        "wire": {("cancelled", "", "shed"): 1},
    }
    assert {t: dict(outcomes(recorder, "serving.outcome", t)) for t in requests} == expected
    assert "intruder" not in requests  # refused before it counted as a request
    assert {t: dict(outcomes(recorder, "serving.speculative.outcome", t)) for t in started} == {
        "spec-rendered": {("rendered",): 1},
        "spec-cancelled": {("cancelled",): 1},
        "spec-error": {("error",): 1},
    }
