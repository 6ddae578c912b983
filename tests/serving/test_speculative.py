"""Speculative rendering: prediction, byte identity, cache hygiene.

The load-bearing guarantee is **differential**: a frame served from a
speculative pre-render must be byte-identical to what a demand render
of the same request would have produced — across every DV3D plot type
the palette serves.  Speculation is an optimization, never an
observable behavior change.

The misprediction cases pin the other half of the contract: wrong
guesses are cancelled or audited out of the cache (``serving.
speculative.waste``), so speculation cannot pollute the serving cache
with frames nobody asked for.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.serving import (
    AppBackend,
    NextFramePredictor,
    Request,
    ServingConfig,
    ServingServer,
    request_key,
)

from tests.serving.conftest import CountingBackend, counted, memory_cache

#: all five DV3D plot families the palette serves, with their variables
PLOT_TYPES = [
    ("Slicer", {"variable": "ta"}),
    ("Volume", {"variable": "ta"}),
    ("Isosurface", {"variable": "ta", "color_variable": "hus"}),
    ("HovmollerSlicer", {"variable": "ta"}),
    ("VectorSlicer", {"u": "ua", "v": "va"}),
]

SIZE = {"nlat": 10, "nlon": 14, "nlev": 3, "ntime": 5}


def run(coro):
    return asyncio.run(coro)


def speculative_config(**overrides):
    overrides.setdefault("slots", 2)
    overrides.setdefault("speculation_budget", 1)
    return ServingConfig(**overrides)


class TestPredictor:
    def test_constant_stride_timestep(self):
        predictor = NextFramePredictor()
        history = [{"scene": "a", "timestep": t} for t in (3, 4, 5)]
        assert predictor.predict(history) == {"scene": "a", "timestep": 6}

    def test_orbit_stride(self):
        predictor = NextFramePredictor()
        history = [{"scene": "a", "azimuth": a} for a in (0.0, 15.0, 30.0)]
        assert predictor.predict(history) == {"scene": "a", "azimuth": 45.0}

    def test_negative_stride(self):
        predictor = NextFramePredictor()
        history = [{"timestep": t} for t in (9, 7, 5)]
        assert predictor.predict(history) == {"timestep": 3}

    def test_short_history_predicts_nothing(self):
        predictor = NextFramePredictor()
        assert predictor.predict([{"timestep": 0}, {"timestep": 1}]) is None

    def test_teleport_predicts_nothing(self):
        predictor = NextFramePredictor()
        assert predictor.predict(
            [{"timestep": 0}, {"timestep": 1}, {"timestep": 9}]) is None

    def test_two_axes_moving_predicts_nothing(self):
        predictor = NextFramePredictor()
        history = [{"timestep": t, "azimuth": t * 10.0} for t in (0, 1, 2)]
        assert predictor.predict(history) is None

    def test_scene_switch_predicts_nothing(self):
        predictor = NextFramePredictor()
        history = [{"scene": "a", "timestep": 0},
                   {"scene": "b", "timestep": 1},
                   {"scene": "a", "timestep": 2}]
        assert predictor.predict(history) is None

    def test_non_numeric_axis_predicts_nothing(self):
        predictor = NextFramePredictor()
        history = [{"level": name} for name in ("a", "b", "c")]
        assert predictor.predict(history) is None

    def test_only_the_trailing_window_counts(self):
        predictor = NextFramePredictor()
        history = [{"timestep": 99}] + [{"timestep": t} for t in (4, 5, 6)]
        assert predictor.predict(history) == {"timestep": 7}

    def test_window_below_three_rejected(self):
        with pytest.raises(ValueError):
            NextFramePredictor(window=2)


class TestDifferentialByteIdentity:
    @pytest.mark.parametrize("template,variables",
                             PLOT_TYPES, ids=[t for t, _ in PLOT_TYPES])
    def test_speculative_equals_demand_over_animation(self, template, variables):
        """A 20-frame animating session; every served frame must equal a
        demand render, whether it came from speculation or not."""
        backend = AppBackend()
        frame_params = [
            {
                "template": template,
                "variables": variables,
                "size": SIZE,
                "width": 32,
                "height": 24,
                "timestep": t,
            }
            for t in range(20)
        ]

        async def scenario():
            cache = memory_cache()
            config = speculative_config()
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=config,
                                         cache=cache) as server:
                    served = []
                    for params in frame_params:
                        response = await server.submit(Request(
                            params=params, session=f"anim-{template}"))
                        assert response.status == "ok"
                        served.append(response.payload)
                        # let the pre-render land before the next demand
                        await server.drain_speculation()
                    hits = recorder.counter_total("serving.speculative.hit")
                    waste = recorder.counter_total("serving.speculative.waste")
                return served, hits, waste
            finally:
                obs.disable()

        served, hits, waste = run(scenario())
        # a steady animation is maximally predictable: the first three
        # frames train the predictor, everything after is speculated
        assert hits >= len(frame_params) // 2
        assert waste == 0
        for params, payload in zip(frame_params, served):
            demand = backend(Request(params=params), False)
            assert payload == demand

    def test_orbit_session_speculates_on_azimuth(self):
        """Camera orbits speculate exactly like timestep animation."""
        backend = AppBackend()
        frame_params = [
            {"template": "Slicer", "size": SIZE,
             "width": 32, "height": 24, "azimuth": 15.0 * k}
            for k in range(8)
        ]

        async def scenario():
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=speculative_config(),
                                         cache=memory_cache()) as server:
                    served = []
                    for params in frame_params:
                        response = await server.submit(Request(
                            params=params, session="orbit"))
                        assert response.status == "ok"
                        served.append(response.payload)
                        await server.drain_speculation()
                    return served, recorder.counter_total(
                        "serving.speculative.hit")
            finally:
                obs.disable()

        served, hits = run(scenario())
        assert hits >= len(frame_params) // 2
        for params, payload in zip(frame_params, served):
            assert payload == backend(Request(params=params), False)


class TestMisprediction:
    def test_stored_misprediction_is_audited_out_of_the_cache(self):
        """A wrong guess that already landed in the cache is removed."""
        backend = CountingBackend()

        async def scenario():
            cache = memory_cache()
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=speculative_config(),
                                         cache=cache) as server:
                    for t in range(3):
                        await server.submit(Request(
                            params={"scene": "m", "timestep": t},
                            session="sess-m"))
                    await server.drain_speculation()  # timestep 3 pre-rendered
                    spec_key = request_key(
                        Request(params={"scene": "m", "timestep": 3}))
                    assert cache.get(spec_key, site="test")[0]

                    # the session teleports: the guess was wrong
                    response = await server.submit(Request(
                        params={"scene": "m", "timestep": 11},
                        session="sess-m"))
                    assert response.status == "ok"
                    assert recorder.counter_total(
                        "serving.speculative.waste") == 1
                    assert recorder.counter_total(
                        "serving.speculative.hit") == 0
                    # cache key audit: the speculative entry is gone
                    assert not cache.get(spec_key, site="test")[0]
            finally:
                obs.disable()
        run(scenario())

    def test_inflight_misprediction_is_cancelled_not_stored(self):
        """A wrong guess still rendering is cancelled; nothing is stored."""
        backend = CountingBackend(delay_s=0.2)

        async def scenario():
            cache = memory_cache()
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=speculative_config(),
                                         cache=cache) as server:
                    for t in range(3):
                        await server.submit(Request(
                            params={"scene": "c", "timestep": t},
                            session="sess-c"))
                    # speculation for timestep 3 is in flight; teleport now
                    response = await server.submit(Request(
                        params={"scene": "c", "timestep": 40},
                        session="sess-c"))
                    assert response.status == "ok"
                    await server.drain_speculation()
                    assert recorder.counter_total(
                        "serving.speculative.waste") == 1
                    spec_key = request_key(
                        Request(params={"scene": "c", "timestep": 3}))
                    assert not cache.get(spec_key, site="test")[0]
            finally:
                obs.disable()
        run(scenario())

    def test_speculation_cancelled_before_it_runs_frees_its_key_and_budget(self):
        """A misprediction can cancel a speculation whose task has not run
        yet.  It is settled all the same: its in-flight entry resolves and
        its budget slot frees, so a later request for the predicted key
        renders instead of waiting on a future nobody resolves."""
        backend = CountingBackend()

        async def scenario():
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=speculative_config(),
                                         cache=memory_cache()) as server:
                    for t in range(3):
                        await server.submit(Request(
                            params={"scene": "l", "timestep": t},
                            session="sess-l"))
                    # no yield since: the speculation for timestep 3 has
                    # not started when this teleport cancels it
                    await server.submit(Request(
                        params={"scene": "l", "timestep": 40},
                        session="sess-l"))
                    request = Request(params={"scene": "l", "timestep": 3},
                                      session="sess-other")
                    response = await asyncio.wait_for(
                        server.submit(request), timeout=5.0)
                    assert response.status == "ok"
                    assert response.payload == backend.payload_for(request)
                    assert counted(recorder, "serving.speculative.outcome",
                                   outcome="cancelled") == 1
                    assert server.stats()["speculations_inflight"] == 0
            finally:
                obs.disable()
        run(scenario())

    def test_demand_coalesces_onto_inflight_speculation(self):
        """The predicted request arriving mid-render attaches, not cancels."""
        backend = CountingBackend(delay_s=0.1)

        async def scenario():
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(backend, config=speculative_config(),
                                         cache=memory_cache()) as server:
                    for t in range(3):
                        await server.submit(Request(
                            params={"scene": "j", "timestep": t},
                            session="sess-j"))
                    # speculation for timestep 3 is rendering right now;
                    # the demand request must coalesce onto it
                    request = Request(params={"scene": "j", "timestep": 3},
                                      session="sess-j")
                    response = await server.submit(request)
                    assert response.status == "ok"
                    assert response.payload == backend.payload_for(request)
                    assert recorder.counter_total(
                        "serving.speculative.hit") == 1
                    assert recorder.counter_total(
                        "serving.speculative.waste") == 0
                    # exactly one render of timestep 3 ever happened
                    t3_calls = [c for c, _ in backend.calls
                                if c.get("timestep") == 3]
                    assert len(t3_calls) == 1
            finally:
                obs.disable()
        run(scenario())

    def test_speculation_respects_budget(self):
        """budget=0 disables speculation entirely."""
        backend = CountingBackend()

        async def scenario():
            recorder = obs.enable(obs.Recorder())
            try:
                async with ServingServer(
                    backend,
                    config=ServingConfig(slots=2, speculation_budget=0),
                    cache=memory_cache(),
                ) as server:
                    for t in range(6):
                        await server.submit(Request(
                            params={"scene": "b", "timestep": t},
                            session="sess-b"))
                    await server.drain_speculation()
                    assert recorder.counter_total(
                        "serving.speculative.started") == 0
                    assert len(backend.calls) == 6
            finally:
                obs.disable()
        run(scenario())
