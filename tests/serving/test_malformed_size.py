"""A malformed grid ``size`` is the request's fault, not the backend's.

``AppBackend`` checks a synthetic source's ``size`` against the
generator's own grid parameters and the least grid it builds and a
template draws (``repro.data.catalog.grid_size``) before it keys or
builds a scene: a one-point longitude is generated, then squeezed away
by translation.  A size of other names, of non-whole numbers or below
that floor is refused with :class:`~repro.util.errors.RequestError`: one
``error`` outcome per request, and the breaker every tenant shares
stays closed.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro import obs
from repro.data import catalog
from repro.dv3d import (DV3DCell, HovmollerSlicerPlot, HovmollerVolumePlot, IsosurfacePlot,
                        SlicerPlot, VolumePlot)
from repro.dv3d.view import View
from repro.serving import Request, ServingServer
from repro.serving.backend import AppBackend
from repro.serving.server import BREAKER_FAILURES
from repro.util.errors import CDMSError, RequestError

SMALL = {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3}
VALID = {"template": "Slicer", "variables": {"variable": "ta"}, "size": SMALL,
         "width": 32, "height": 24}
BAD_SIZES = [
    {"lat": 16, "lon": 16},  # the generator's names are nlat / nlon
    {"nlat": 0},
    {"nlat": 1},
    {"nlat": 2.5},
    {"nlat": "16"},
    {"ntime": True},
    {"seed": 3},
    [16, 16],
    {"nlat": 2, "nlon": 1, "nlev": 1, "ntime": 1},  # generated, but no template draws it
]
#: sizes below a template's own floor: a Hovmöller plot spatializes time
BAD_TEMPLATE_SIZES = [
    ("HovmollerSlicer", {"nlat": 2, "nlon": 2, "nlev": 1, "ntime": 1}),
    ("HovmollerVolume", {"nlat": 2, "nlon": 2, "nlev": 1, "ntime": 1}),
]


def _outcomes(recorder):
    tally = Counter()
    for key, value in recorder.counters.items():
        if key.name == "serving.outcome":
            labels = dict(key.labels)
            tally[labels["tenant"], labels["status"]] += value
    return tally


def test_bad_sizes_are_errors_that_leave_the_breaker_closed():
    async def scenario():
        async with ServingServer(AppBackend()) as server:
            bad = [await server.submit(Request(params=dict(VALID, size=size), tenant="mallory"))
                   for size in BAD_SIZES for _ in range(2)]
            good = await server.submit(Request(params=VALID, tenant="alice"))
            return bad, good, server.breaker.state

    recorder = obs.enable(obs.Recorder())
    try:
        bad, good, breaker = asyncio.run(scenario())
    finally:
        obs.disable()
    assert len(bad) >= BREAKER_FAILURES
    assert [r.status for r in bad] == ["error"] * len(bad)
    assert all("RequestError" in r.reason for r in bad)
    assert breaker == "closed"
    assert (good.status, good.source) == ("ok", "render")
    assert _outcomes(recorder) == Counter({("mallory", "error"): len(bad),
                                           ("alice", "ok"): 1})


@pytest.mark.parametrize("size", BAD_SIZES)
def test_the_backend_refuses_a_bad_size_before_keying_a_scene(size):
    backend = AppBackend()
    with pytest.raises(RequestError):
        backend(Request(params=dict(VALID, size=size)), False)
    assert not backend.app.project.vistrails


@pytest.mark.parametrize("template, size", BAD_TEMPLATE_SIZES)
def test_a_one_step_hovmoller_is_refused_before_keying_a_scene(template, size):
    backend = AppBackend()
    params = dict(VALID, template=template, size=size)
    with pytest.raises(RequestError, match=f"ntime must be at least 2 for {template}"):
        backend(Request(params=params), False)
    assert not backend.app.project.vistrails
    # two steps span the time axis: the floor is the least that draws
    payload = backend(Request(params=dict(params, size=dict(size, ntime=2))), False)
    assert payload.startswith(b"P6\n32 24\n255\n")


def test_a_one_step_hovmoller_leaves_the_breaker_closed():
    async def scenario():
        async with ServingServer(AppBackend()) as server:
            bad = [await server.submit(Request(params=dict(VALID, template=template, size=size)))
                   for template, size in BAD_TEMPLATE_SIZES for _ in range(BREAKER_FAILURES)]
            return bad, server.breaker.state

    bad, breaker = asyncio.run(scenario())
    assert [r.status for r in bad] == ["error"] * len(bad)
    assert all("RequestError" in r.reason for r in bad)
    assert breaker == "closed"


def test_a_size_that_names_no_dimension_or_none_is_the_generators_default():
    backend = AppBackend()
    assert catalog.grid_size("synthetic_reanalysis", None) == {}
    assert catalog.grid_size("synthetic_reanalysis", {}) == {}
    payload = backend(Request(params=dict(VALID, size=dict(SMALL, nlat=2))), False)
    assert payload.startswith(b"P6\n32 24\n255\n")


def _drawn(dataset):
    """The plot types that draw the dataset's first variable at 32x24."""
    variable = dataset(dataset.variable_ids[0])
    drawn = []
    for plot_type in (SlicerPlot, IsosurfacePlot, VolumePlot,
                      HovmollerSlicerPlot, HovmollerVolumePlot):
        try:
            View(32, 24).draw(DV3DCell(plot_type(variable)))
        except Exception:
            continue
        drawn.append(plot_type.plot_type)
    return drawn


@pytest.mark.parametrize("source", sorted(catalog.GRID_MINIMA))
def test_grid_minima_are_the_least_grid_each_generator_builds(source):
    """At the minima the generator builds and some template draws; one
    below any of them, the generator raises or no template draws."""
    minima = catalog.GRID_MINIMA[source]
    generate = getattr(catalog, source)
    dataset = generate(**catalog.grid_size(source, minima))
    assert len(dataset)
    assert _drawn(dataset)
    for name, least in minima.items():
        below = dict(minima, **{name: least - 1})
        with pytest.raises(CDMSError):
            catalog.grid_size(source, below)
        try:
            dataset = generate(**below)
        except Exception:
            continue
        assert _drawn(dataset) == [], below
