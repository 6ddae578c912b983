"""Chaos suite for sticky session serving.

Backend slots die mid-session — through the armed ``serving.slot``
fault site or the :meth:`SlotPool.kill` hook — and the contract is:

* the in-flight request still completes, **byte-identical** to what the
  dead slot would have produced (backends are deterministic pure
  functions of the request);
* the dead slot's sessions re-pin to survivors (``serving.sessions.
  repinned``), other sessions' pins never move;
* every frame a session was ever served is accounted in its
  FrameRecord-style log — sequence numbers are gapless, digests match
  the returned payloads, and the slot column records where each frame
  actually ran.
"""

from __future__ import annotations

import asyncio
import hashlib

import pytest

from repro import obs
from repro.resilience import faults
from repro.serving import Request, ServingConfig, ServingServer

from tests.serving.conftest import CountingBackend, memory_cache


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def run(coro):
    return asyncio.run(coro)


def make_session_server(backend, slots=3, **overrides):
    config = ServingConfig(slots=slots, **overrides)
    return ServingServer(backend, config=config, cache=memory_cache())


def test_slot_death_mid_session_replays_byte_identical():
    """An armed slot fault kills the pinned slot; the frame still lands."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend) as server:
            request = Request(params={"scene": "a", "timestep": 0},
                              session="sess-1", tenant="t1")
            first = await server.submit(request)
            assert first.status == "ok"
            home = server.sessions.get("sess-1").slot
            assert home in server.slot_pool.live_slots

            # the session's next frame triggers the fault on its slot
            faults.arm("serving.slot", "raise", match={"session": "sess-1"},
                       times=1)
            recorder = obs.enable(obs.Recorder())
            try:
                request2 = request.with_params(timestep=1)
                survived = await server.submit(request2)
                assert survived.status == "ok"
                # byte identity: the retried render equals a pure demand
                # render of the same request on any deterministic backend
                assert survived.payload == backend.payload_for(request2)
                assert recorder.counter_total("serving.sessions.repinned") == 1
            finally:
                obs.disable()

            state = server.sessions.get("sess-1")
            assert home not in server.slot_pool.live_slots
            assert state.slot != home
            assert state.slot in server.slot_pool.live_slots
            assert state.slot_history[0] == home
    run(scenario())


def test_slot_death_under_the_default_config():
    """Every render runs on a slot, so a slot death is survivable with no
    config at all: the session re-pins, a sessionless request is routed
    to the survivor, and both get the unfaulted bytes."""
    backend = CountingBackend()
    session_request = Request(params={"scene": "d"}, session="sess-d")
    sessionless = Request(params={"scene": "anon"})

    async def scenario():
        async with ServingServer(backend) as server:
            return [await server.submit(session_request),
                    await server.submit(sessionless)]

    faults.arm("serving.slot", "raise", times=1)
    recorder = obs.enable(obs.Recorder())
    try:
        responses = run(scenario())
    finally:
        obs.disable()
    assert [r.status for r in responses] == ["ok", "ok"]
    assert [r.payload for r in responses] == [
        backend.payload_for(session_request), backend.payload_for(sessionless)]
    assert recorder.counter_total("serving.sessions.repinned") == 1


def test_killed_slot_moves_only_its_sessions():
    """kill() + next request: victims re-pin, bystanders do not move."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, slots=4) as server:
            sessions = [f"sess-{i}" for i in range(12)]
            for i, session in enumerate(sessions):
                response = await server.submit(Request(
                    params={"scene": session, "timestep": 0},
                    session=session))
                assert response.status == "ok"
            pins = {s: server.sessions.get(s).slot for s in sessions}
            victim = pins[sessions[0]]
            victims = {s for s, slot in pins.items() if slot == victim}
            server.slot_pool.kill(victim)

            for i, session in enumerate(sessions):
                request = Request(params={"scene": session, "timestep": 1},
                                  session=session)
                response = await server.submit(request)
                assert response.status == "ok"
                assert response.payload == backend.payload_for(request)

            for session in sessions:
                now = server.sessions.get(session).slot
                if session in victims:
                    assert now != victim
                    assert now in server.slot_pool.live_slots
                else:
                    assert now == pins[session]
    run(scenario())


def test_every_frame_is_accounted_in_the_session_log():
    """The FrameRecord-style log covers the whole session, chaos included."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend) as server:
            payloads = {}
            for t in range(6):
                if t == 3:  # kill the pinned slot mid-animation
                    faults.arm("serving.slot", "raise",
                               match={"session": "sess-log"}, times=1)
                request = Request(params={"scene": "log", "timestep": t},
                                  session="sess-log")
                response = await server.submit(request)
                assert response.status == "ok"
                payloads[t] = response.payload

            state = server.sessions.get("sess-log")
            assert [frame.seq for frame in state.frames] == list(range(6))
            for t, frame in enumerate(state.frames):
                assert frame.status == "ok"
                assert frame.digest == hashlib.sha256(payloads[t]).hexdigest()
                assert frame.slot in {s for s in state.slot_history}
                assert frame.source in ("render", "cache", "speculative")
            # the re-pin is visible in the log: frames 0-2 ran on the
            # first slot, frames 3+ on the survivor
            slots_used = [frame.slot for frame in state.frames]
            assert slots_used[0] == slots_used[2]
            assert slots_used[3] != slots_used[0]
            assert len(set(slots_used)) == 2
    run(scenario())


def test_cache_hits_and_renders_both_logged():
    """Cache-served frames are session frames too (provenance recorded)."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, slots=2) as server:
            request = Request(params={"scene": "c", "timestep": 0},
                              session="sess-c")
            first = await server.submit(request)
            second = await server.submit(request)
            assert first.status == second.status == "ok"
            assert first.payload == second.payload
            state = server.sessions.get("sess-c")
            assert [f.source for f in state.frames] == ["render", "cache"]
            assert state.frames[0].digest == state.frames[1].digest
    run(scenario())


def test_session_log_ring_is_bounded():
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, slots=2,
                                       session_log_frames=4) as server:
            for t in range(10):
                await server.submit(Request(
                    params={"scene": "ring", "timestep": t},
                    session="sess-ring"))
            state = server.sessions.get("sess-ring")
            assert len(state.frames) == 4
            assert [f.seq for f in state.frames] == [6, 7, 8, 9]
    run(scenario())


def test_all_slots_dead_is_a_served_error_not_a_hang():
    """Total slot loss degrades to an error response, never a deadlock."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, slots=2) as server:
            faults.arm("serving.slot", "raise", times=10)
            response = await server.submit(Request(
                params={"scene": "doom"}, session="sess-doom"))
            assert response.status == "error"
            assert "slot" in response.reason
            assert server.slot_pool.live_slots == []
            # a later request cannot be routed at all; still an error
            response2 = await server.submit(Request(
                params={"scene": "doom2"}, session="sess-doom"))
            assert response2.status == "error"
    run(scenario())


def test_sessionless_requests_route_by_request_key():
    """No session id: requests still run on slots, keyed by digest."""
    backend = CountingBackend()

    async def scenario():
        async with make_session_server(backend, slots=3) as server:
            request = Request(params={"scene": "anon"})
            response = await server.submit(request)
            assert response.status == "ok"
            assert response.payload == backend.payload_for(request)
            stats = server.stats()
            assert sum(s["frames"] for s in stats["slots"].values()) == 1
    run(scenario())

