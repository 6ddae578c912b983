"""A request that names a source, container or variable that does not
exist is the request's fault, not the backend's.

The scene's workflow raises :class:`~repro.util.errors.NotFoundError`
where it looks the name up (the dataset reader, ``Dataset.get_variable``),
and ``AppBackend`` answers it with
:class:`~repro.util.errors.RequestError`: one ``error`` outcome, and
the breaker every tenant shares stays closed.  Any other module failure
is still the backend's and feeds the breaker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.resilience import faults
from repro.serving import Request, ServingServer
from repro.serving.backend import AppBackend
from repro.serving.server import BREAKER_FAILURES
from repro.util.errors import ModuleExecutionError, RequestError

SMALL = {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3}
VALID = {"template": "Slicer", "variables": {"variable": "ta"}, "size": SMALL,
         "width": 32, "height": 24}


def _missing(tmp_path):
    return [
        {"source": "nope"},
        {"variables": {"variable": "nosuch"}},
        {"source": str(tmp_path / "absent.cdz")},
    ]


@pytest.mark.parametrize("index", range(3))
def test_the_backend_refuses_a_name_that_names_nothing(tmp_path, index):
    params = dict(VALID, **_missing(tmp_path)[index])
    with pytest.raises(RequestError, match="malformed request"):
        AppBackend()(Request(params=params), False)


def test_a_refused_scene_leaves_no_vistrail_and_a_valid_one_leaves_one(tmp_path):
    backend = AppBackend()
    missing = _missing(tmp_path) + [{"variables": {"variable": f"nosuch{n}"}} for n in range(3)]
    for params in missing:
        with pytest.raises(RequestError):
            backend(Request(params=dict(VALID, **params)), False)
    assert not [name for name in backend.app.project.vistrails if name.startswith("scene_")]
    backend(Request(params=VALID), False)
    backend(Request(params=dict(VALID, timestep=1)), False)  # the same scene
    assert len([name for name in backend.app.project.vistrails
                if name.startswith("scene_")]) == 1


def test_names_that_name_nothing_leave_the_breaker_closed_and_faults_still_open_it(tmp_path):
    def fresh(index):  # a scene new to the backend, so its workflow runs
        return dict(VALID, cell_params={"dataset_label": f"fresh-{index}"})

    async def scenario():
        async with ServingServer(AppBackend()) as server:
            bad = [await server.submit(Request(params=dict(VALID, **missing)))
                   for missing in _missing(tmp_path) for _ in range(BREAKER_FAILURES)]
            after_bad = server.breaker.state
            good = await server.submit(Request(params=fresh(0)))
            with faults.injected("executor.module", "raise", times=BREAKER_FAILURES):
                faulted = [await server.submit(Request(params=fresh(index)))
                           for index in range(1, BREAKER_FAILURES + 1)]
            return bad, after_bad, good, faulted, server.breaker.state

    bad, after_bad, good, faulted, breaker = asyncio.run(scenario())
    assert [r.status for r in bad] == ["error"] * len(bad)
    assert all("RequestError" in r.reason for r in bad)
    assert after_bad == "closed"
    assert (good.status, good.source) == ("ok", "render")
    # a fault at a valid request's module is a backend failure: it opens
    # the breaker and is not taken for the request's fault
    assert [r.status for r in faulted] == ["error"] * BREAKER_FAILURES
    assert all(ModuleExecutionError.__name__ in r.reason for r in faulted)
    assert not any("RequestError" in r.reason for r in faulted)
    assert breaker == "open"
