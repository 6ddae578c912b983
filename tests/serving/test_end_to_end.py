"""End-to-end: two worker threads serving real spreadsheet renders.

The full stack — ServingServer → AppBackend → Application →
spreadsheet cell → DV3D plot → software renderer → PPM bytes — driven
by concurrent multi-tenant sessions.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.serving import AppBackend, Request, ServingConfig, ServingServer

from tests.serving.conftest import memory_cache, submit_deferred

#: tiny workflow grid so the whole stack renders in well under a second
SIZE = {"nlat": 12, "nlon": 18, "nlev": 4, "ntime": 2}


def scene_params(scene: str = "ta", width: int = 32, height: int = 24) -> dict:
    return {
        "template": "Slicer",
        "source": "synthetic_reanalysis",
        "variables": {"variable": scene},
        "size": dict(SIZE),
        "width": width,
        "height": height,
    }


@pytest.fixture()
def app_server():
    config = ServingConfig(workers=2, queue_limit=32)
    return ServingServer(AppBackend(config=config), config=config, cache=memory_cache())


class TestEndToEnd:
    def test_two_worker_session_multi_tenant(self, app_server):
        """Concurrent sessions from two tenants get real, identical frames."""

        async def scenario():
            requests = [
                Request(params=scene_params(), tenant="alice", session="a1"),
                Request(params=scene_params(), tenant="bob", session="b1"),
                Request(params=scene_params(), tenant="alice", session="a2"),
                Request(params=scene_params("zg"), tenant="bob", session="b2"),
            ]
            return await submit_deferred(app_server, requests)

        recorder = obs.enable(obs.Recorder())
        try:
            responses = asyncio.run(scenario())
        finally:
            obs.disable()

        assert all(r.status == "ok" for r in responses)
        # real frames: deterministic binary PPM at the requested size
        for response in responses:
            assert response.payload.startswith(b"P6\n32 24\n255\n")
            assert len(response.payload) == len(b"P6\n32 24\n255\n") + 32 * 24 * 3
        # the three identical 'ta' scenes produced one execution
        ta_payloads = {r.payload for r in responses[:3]}
        assert len(ta_payloads) == 1
        assert responses[3].payload not in ta_payloads  # different variable
        assert recorder.counter_total("serving.executions") == 2
        assert recorder.counter_total("serving.coalesced") == 2

    def test_repeat_session_serves_from_cache(self, app_server):
        async def scenario():
            request = Request(params=scene_params(), tenant="alice")
            async with app_server:
                first = await app_server.submit(request)
                second = await app_server.submit(request)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.source == "render"
        assert second.source == "cache"
        assert first.payload == second.payload

    def test_backend_reuses_scene_slots(self):
        backend = AppBackend(config=ServingConfig(workers=2))

        async def scenario():
            server = ServingServer(
                backend, config=ServingConfig(workers=2), cache=None
            )
            async with server:
                for _ in range(3):
                    await server.submit(Request(params=scene_params()))
                await server.submit(Request(params=scene_params("zg")))

        asyncio.run(scenario())
        # 2 distinct scenes -> 2 hosted cells and 2 vistrails, however
        # many renders, and no sheet
        project = backend.app.project
        assert len(project.node.cells) == 2
        assert len(project.vistrails) == 2
        assert project.sheets == {}

    def test_degraded_render_is_smaller_but_real(self):
        backend = AppBackend(config=ServingConfig(degraded_scale=4))
        frame = backend(Request(params=scene_params(width=64, height=48)), True)
        assert frame.startswith(b"P6\n16 12\n255\n")

    def test_open_draws_nothing_larger_than_the_requested_frame(self):
        """The cell module's execute-time render uses the request's size,
        not the module's 320x240 default (cell_params names no size)."""
        backend = AppBackend()
        params = dict(scene_params(width=64, height=48), template="Volume")
        recorder = obs.enable(obs.Recorder())
        try:
            frame = backend(Request(params=params), False)
        finally:
            obs.disable()
        assert frame.startswith(b"P6\n64 48\n255\n")
        # one render when the workflow executes; the frame itself is that
        # render, kept by the cell
        assert recorder.counter_total("raycast.rays") <= 64 * 48

    def test_animation_hints_the_next_chunk_after_rendering_this_one(self, tmp_path):
        """A 12-step animation over a v2 container: the prefetch window
        must still hold chunk t when frame t renders, so each chunk is
        read about once — hinting t+1 first evicted t and re-read it."""
        from repro.data import catalog

        steps = 12
        path = str(tmp_path / "anim.cdz")
        catalog.synthetic_reanalysis(nlat=12, nlon=18, nlev=4, ntime=steps).save(
            path, version=2, chunk_timesteps=1
        )
        backend = AppBackend()
        recorder = obs.enable(obs.Recorder())
        demand = []
        try:
            for t in range(steps):
                params = {
                    "template": "Volume", "source": path,
                    "variables": {"variable": "ta"},
                    "width": 32, "height": 24, "timestep": t,
                }
                backend(Request(params=params), False)
                demand.append(recorder.counter_total("streaming.prefetch.misses"))
        finally:
            obs.disable()
        per_step = [b - a for a, b in zip(demand, demand[1:])]
        assert max(per_step) <= 1
        # every chunk once, plus the lookahead wrapping past the last step
        assert recorder.counter_total("streaming.chunks.read") <= steps + 3
        assert recorder.counter_total("streaming.prefetch.hits") >= steps - 2

    def test_unknown_kind_surfaces_as_error_response(self, app_server):
        async def scenario():
            async with app_server:
                return await app_server.submit(
                    Request(kind="workflow", params={"x": 1})
                )

        response = asyncio.run(scenario())
        assert response.status == "error"
        assert "render" in response.reason
