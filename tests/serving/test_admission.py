"""Admission control and graceful degradation under injected overload.

Overload is *manufactured*, never waited for: queues fill because the
workers have not started yet, deadlines expire because the fake clock
jumped, and the kernel path fails because a ``serving.execute`` fault
is armed — the event-loop clock plays no role in any assertion.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.resilience import faults
from repro.serving import (
    AdmissionController,
    Request,
    ServingConfig,
    ServingServer,
)
from repro.serving.server import BREAKER_FAILURES, BREAKER_RESET_S

from tests.serving.conftest import counted, executions, memory_cache, submit_deferred


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


class TestAdmissionController:
    def test_queue_limit(self, fake_clock):
        ctrl = AdmissionController(ServingConfig(queue_limit=2), clock=fake_clock)
        assert ctrl.admit(Request(), 0) == (True, "")
        assert ctrl.admit(Request(), 1) == (True, "")
        assert ctrl.admit(Request(), 2) == (False, "queue_full")

    def test_ewma_tracks_service_time(self, fake_clock):
        ctrl = AdmissionController(ServingConfig(), clock=fake_clock)
        assert ctrl.estimated_wait_s(10) == 0.0  # optimistic until observed
        ctrl.observe_service(2.0)
        assert ctrl.ewma_service_s == 2.0  # first observation seeds directly
        ctrl.observe_service(4.0)
        assert ctrl.ewma_service_s == pytest.approx(2.4)

    def test_predicted_deadline_miss_is_shed(self, fake_clock):
        ctrl = AdmissionController(
            ServingConfig(slots=1, queue_limit=64), clock=fake_clock
        )
        ctrl.observe_service(10.0)
        # 1 queued + the newcomer at 10s each on one worker: wait = 20s
        request = Request(deadline_s=5.0)
        assert ctrl.admit(request, 1) == (False, "deadline")
        # a patient request is admitted
        assert ctrl.admit(Request(deadline_s=30.0), 1) == (True, "")
        # and so is a deadline-less one
        assert ctrl.admit(Request(), 1) == (True, "")

    def test_deadline_of_uses_injected_clock(self, fake_clock):
        ctrl = AdmissionController(ServingConfig(), clock=fake_clock)
        assert ctrl.deadline_of(Request()) is None
        fake_clock.advance(7.0)
        assert ctrl.deadline_of(Request(deadline_s=3.0)) == fake_clock.now + 3.0


class TestQueueOverload:
    def test_queue_full_sheds_excess_requests(self, backend):
        """Distinct requests beyond queue_limit are shed, not queued."""

        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(slots=1, queue_limit=2),
                cache=memory_cache(),
            )
            requests = [Request(params={"scene": i}) for i in range(5)]
            return await submit_deferred(server, requests)

        recorder = obs.enable(obs.Recorder())
        try:
            responses = asyncio.run(scenario())
        finally:
            obs.disable()

        shed = [r for r in responses if r.status == "shed"]
        served = [r for r in responses if r.status == "ok"]
        assert len(served) == 2 and len(shed) == 3
        assert {r.reason for r in shed} == {"queue_full"}
        assert counted(
            recorder, "serving.outcome", status="shed", reason="queue_full", tenant="default"
        ) == 3
        assert backend.full_calls == 2  # shed requests never execute

    def test_coalesced_requests_bypass_admission(self, backend):
        """Waiters attach to in-flight work even when the queue is full."""

        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(slots=1, queue_limit=1),
                cache=memory_cache(),
            )
            # 1 leader fills the queue; 5 identical followers coalesce;
            # 1 distinct request is shed
            requests = [Request(params={"scene": 0})] * 6 + [
                Request(params={"scene": 1})
            ]
            return await submit_deferred(server, requests)

        responses = asyncio.run(scenario())
        assert [r.status for r in responses[:6]] == ["ok"] * 6
        assert responses[6].status == "shed"
        assert backend.full_calls == 1


class TestDeadlineExpiry:
    def test_expired_request_shed_at_dispatch(self, backend, fake_clock):
        """Time passes (on the fake clock) while the request is queued."""

        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(slots=1),
                cache=memory_cache(),
                clock=fake_clock,
            )
            task = asyncio.create_task(
                server.submit(Request(params={"scene": 0}, deadline_s=1.0))
            )
            await asyncio.sleep(0)  # queued, workers not started
            fake_clock.advance(2.0)  # deadline passes in the queue
            await server.start()
            response = await task
            await server.aclose()
            return response

        recorder = obs.enable(obs.Recorder())
        try:
            response = asyncio.run(scenario())
        finally:
            obs.disable()

        assert response.status == "shed"
        assert response.reason == "expired"
        assert backend.full_calls == 0  # dead work is never executed
        assert counted(
            recorder, "serving.outcome", status="shed", reason="expired", tenant="default"
        ) == 1

    def test_unexpired_request_still_served(self, backend, fake_clock):
        async def scenario():
            server = ServingServer(
                backend,
                config=ServingConfig(slots=1),
                cache=memory_cache(),
                clock=fake_clock,
            )
            task = asyncio.create_task(
                server.submit(Request(params={"scene": 0}, deadline_s=5.0))
            )
            await asyncio.sleep(0)
            fake_clock.advance(2.0)  # within budget
            await server.start()
            response = await task
            await server.aclose()
            return response

        assert asyncio.run(scenario()).status == "ok"


class TestGracefulDegradation:
    """Breaker-open behaviour: cached-stale first, then degraded render."""

    def _failing_then_open(self, backend, fake_clock, cache):
        """A server whose breaker opens after BREAKER_FAILURES failures."""
        return ServingServer(
            backend, config=ServingConfig(slots=1), cache=cache, clock=fake_clock
        )

    def test_injected_failures_open_breaker_then_degraded_render(
        self, backend, fake_clock
    ):
        faults.arm("serving.execute", "raise", times=BREAKER_FAILURES)

        async def scenario():
            server = self._failing_then_open(backend, fake_clock, memory_cache())
            async with server:
                errors = [
                    await server.submit(Request(params={"scene": i}))
                    for i in range(BREAKER_FAILURES)
                ]
                degraded = await server.submit(Request(params={"scene": 99}))
            return errors, degraded

        recorder = obs.enable(obs.Recorder())
        try:
            errors, degraded = asyncio.run(scenario())
        finally:
            obs.disable()

        assert [r.status for r in errors] == ["error"] * BREAKER_FAILURES
        assert degraded.status == "degraded"
        assert degraded.source == "render"
        assert backend.degraded_calls == 1
        assert counted(recorder, "serving.outcome", status="degraded", source="render") == 1
        assert executions(recorder) == 0

    def test_open_breaker_serves_cached_stale_first(self, backend, fake_clock):
        async def scenario():
            cache = memory_cache()
            server = self._failing_then_open(backend, fake_clock, cache)
            async with server:
                hot = Request(params={"scene": 0})
                first = await server.submit(hot)  # cached while healthy
                faults.arm("serving.execute", "raise", times=BREAKER_FAILURES)
                for i in range(BREAKER_FAILURES):  # open the breaker
                    await server.submit(Request(params={"scene": i + 1}))
                # same digest again: cache beats degraded render
                stale = await server.submit(hot.with_params())
            return first, stale

        first, stale = asyncio.run(scenario())
        assert stale.status == "ok"  # still in the serving cache: a plain hit
        assert stale.source == "cache"
        assert stale.payload == first.payload
        assert backend.degraded_calls == 0

    def test_breaker_recovers_after_reset_timeout(self, backend, fake_clock):
        faults.arm("serving.execute", "raise", times=BREAKER_FAILURES)

        async def scenario():
            server = self._failing_then_open(backend, fake_clock, memory_cache())
            async with server:
                for i in range(BREAKER_FAILURES):
                    await server.submit(Request(params={"scene": i}))
                assert server.breaker.state == "open"
                fake_clock.advance(BREAKER_RESET_S + 1.0)
                recovered = await server.submit(Request(params={"scene": 5}))
            return recovered

        recovered = asyncio.run(scenario())
        assert recovered.status == "ok"
        assert recovered.source == "render"
        assert backend.full_calls == 1  # the half-open probe that succeeded
