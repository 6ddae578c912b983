"""A malformed request is the request's fault, not the backend's.

``AppBackend`` parses a request's per-frame keys into a
:class:`~repro.dv3d.view.View` and refuses an unknown top-level key,
all before it looks up or builds a scene, with
:class:`~repro.util.errors.RequestError`.  The server answers that
``error`` and feeds no circuit breaker with it: one tenant's bad
requests cannot open the breaker every tenant shares, a bad request
cannot keep the half-open probe, and a bad first size cannot break the
scene for the valid requests after it.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro import obs
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.serving import Request, ServingServer
from repro.serving.backend import AppBackend
from repro.serving.server import BREAKER_FAILURES, BREAKER_RESET_S
from repro.util.errors import RequestError

from tests.serving.conftest import FakeClock

SCENE = {"template": "Slicer", "variables": {"variable": "ta"},
         "size": {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3}}
VALID = dict(SCENE, width=32, height=24)
MALFORMED = [dict(VALID, width="abc"), dict(VALID, timestep="x"), dict(VALID, azimuth="left")]


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


def test_malformed_requests_do_not_open_the_breaker_for_other_tenants():
    async def scenario():
        async with ServingServer(AppBackend()) as server:
            bad = [await server.submit(Request(params=params, tenant="mallory"))
                   for params in MALFORMED]
            good = await server.submit(Request(params=VALID, tenant="alice"))
            return bad, good, server.breaker.state

    recorder = obs.enable(obs.Recorder())
    try:
        bad, good, breaker = asyncio.run(scenario())
    finally:
        obs.disable()
    assert len(MALFORMED) >= BREAKER_FAILURES
    assert [r.status for r in bad] == ["error"] * len(MALFORMED)
    assert all("RequestError" in r.reason for r in bad)
    assert breaker == "closed"
    assert (good.status, good.source) == ("ok", "render")
    assert good.payload == AppBackend()(Request(params=VALID), False)
    assert good.payload.startswith(b"P6\n32 24\n255\n")
    # still one outcome per request
    outcomes, requests = Counter(), Counter()
    for key, value in recorder.counters.items():
        if key.name in ("serving.outcome", "serving.requests"):
            tally = outcomes if key.name == "serving.outcome" else requests
            tally[dict(key.labels)["tenant"]] += value
    assert outcomes == requests == Counter(mallory=3, alice=1)


def test_a_malformed_request_gives_the_half_open_probe_back():
    clock = FakeClock()

    async def scenario():
        async with ServingServer(AppBackend(), clock=clock) as server:
            faults.arm("serving.execute", "raise", times=BREAKER_FAILURES)
            for t in range(BREAKER_FAILURES):
                await server.submit(Request(params=dict(VALID, timestep=t)))
            assert server.breaker.state == "open"
            clock.advance(BREAKER_RESET_S)
            assert server.breaker.state == "half_open"
            bad = await server.submit(Request(params=dict(VALID, width=0), tenant="mallory"))
            good = await server.submit(Request(params=VALID, tenant="alice"))
            return bad, good, server.breaker.state

    bad, good, breaker = asyncio.run(scenario())
    assert bad.status == "error"
    assert (good.status, good.source) == ("ok", "render")  # it took the probe
    assert breaker == "closed"


def test_release_returns_a_probe_and_records_nothing():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
    breaker.release()  # closed: nothing to give back
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow() and not breaker.allow()  # the one probe is out
    breaker.release()
    assert breaker.state == "half_open"
    assert breaker.allow()


def test_a_bad_first_size_does_not_break_the_scene():
    backend = AppBackend()
    with pytest.raises(RequestError):
        backend(Request(params=dict(VALID, width=0)), False)
    assert backend.app.project.vistrails == {}  # refused before any scene was built
    assert backend(Request(params=VALID), False) == AppBackend()(Request(params=VALID), False)


def test_a_missing_variable_leaves_no_vistrail_and_no_memo_entry():
    backend = AppBackend()
    with pytest.raises(RequestError, match="malformed request"):
        backend(Request(params=dict(VALID, variables={"variable": "nosuch"})), False)
    project = backend.app.project
    assert project.vistrails == {}
    assert project.node.executor.cache_size == 0  # the dataset reader's output went too


@pytest.mark.parametrize("extra", [
    {"elevation": 30.0},
    {"frame": 1},
    {"Width": 32},
])
def test_an_unknown_key_is_refused(extra):
    with pytest.raises(RequestError, match="unknown request params"):
        AppBackend()(Request(params=dict(VALID, **extra)), False)


@pytest.mark.parametrize("bad", [
    {"width": "abc"}, {"height": 0}, {"width": -3}, {"width": 32.5}, {"width": True},
    {"timestep": "x"}, {"timestep": 1.5}, {"timestep": None},
    {"azimuth": "left"}, {"azimuth": float("nan")}, {"azimuth": float("inf")},
    {"azimuth": None},
])
def test_a_malformed_view_key_is_refused(bad):
    with pytest.raises(RequestError, match="malformed request"):
        AppBackend()(Request(params=dict(VALID, **bad)), False)


def test_nested_params_are_the_workflows_to_check():
    """Only top-level keys are checked: ``cell_params`` may carry what the
    cell module takes, and a request without any params still renders."""
    params = dict(VALID, cell_params={"show_basemap": False, "dataset_label": "X"})
    assert AppBackend()(Request(params=params), False).startswith(b"P6\n32 24\n255\n")
    assert AppBackend()(Request(params={}), False).startswith(b"P6\n64 48\n255\n")
