"""A served repeat re-derives nothing: a kept frame costs its bytes.

After a scene's first frame, an identical ``AppBackend`` request —
``timestep`` and ``azimuth`` included — hashes no pipeline signature
(the executor's are kept on the scene's pipeline), fits no default
camera (the plot keeps the one it fitted, against its bounds) and
draws nothing (the cell keeps its frame).  Its bytes are what a fresh
backend draws for the same request.
"""

import pytest

from repro.data.catalog import synthetic_reanalysis
from repro.dv3d.slicer import SlicerPlot
from repro.rendering.camera import Camera
from repro.rendering.scene import Renderer
from repro.serving.backend import AppBackend
from repro.serving.request import Request
from repro.workflow.executor import Executor

REPEATS = 5


def _params(template, **extra):
    return {"template": template, "variables": {"variable": "ta"},
            "size": {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3},
            "width": 32, "height": 24, **extra}


@pytest.fixture()
def calls(monkeypatch):
    """Calls to the three derivations a repeat must not make."""
    counts = {"signature": 0, "fit_bounds": 0, "render": 0}
    signature, fit_bounds, render = Executor._signature, Camera.fit_bounds, Renderer.render

    def counted_signature(*args):
        counts["signature"] += 1
        return signature(*args)

    def counted_fit_bounds(*args, **kwargs):
        counts["fit_bounds"] += 1
        return fit_bounds(*args, **kwargs)

    def counted_render(self, *args, **kwargs):
        counts["render"] += 1
        return render(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "_signature", staticmethod(counted_signature))
    monkeypatch.setattr(Camera, "fit_bounds", staticmethod(counted_fit_bounds))
    monkeypatch.setattr(Renderer, "render", counted_render)
    return counts


@pytest.mark.parametrize("template", ["Slicer", "Isosurface", "Volume"])
def test_a_repeat_hashes_fits_and_draws_nothing(template, calls):
    request = Request(params=_params(template, timestep=2, azimuth=45.0))
    backend = AppBackend()
    first = backend(request, False)
    assert all(calls.values())  # the first frame did all three
    before = dict(calls)
    repeats = [backend(request, False) for _ in range(REPEATS)]
    assert calls == before
    assert repeats == [first] * REPEATS
    assert AppBackend()(request, False) == first


def test_an_orbit_keeps_the_default_camera_it_orbits(calls):
    backend = AppBackend()
    backend(Request(params=_params("Slicer", azimuth=0.0)), False)
    fitted, drawn = calls["fit_bounds"], calls["render"]
    frames = [backend(Request(params=_params("Slicer", azimuth=a)), False)
              for a in (15.0, 30.0, 45.0)]
    assert calls["fit_bounds"] == fitted
    assert calls["render"] == drawn + 3  # each view is a new picture
    assert len(set(frames)) == 3
    fresh = AppBackend()
    assert [fresh(Request(params=_params("Slicer", azimuth=a)), False)
            for a in (15.0, 30.0, 45.0)] == frames


def test_the_default_camera_is_refitted_when_the_bounds_change(calls):
    dataset = synthetic_reanalysis(nlat=10, nlon=14, nlev=4, ntime=3)
    plot = SlicerPlot(dataset.get_variable("ta"))
    camera = plot.default_camera()
    assert camera == Camera.fit_bounds(plot.volume.bounds())
    fitted = calls["fit_bounds"]
    plot.set_time_index(1)  # a new volume on the same grid: same bounds
    assert plot.default_camera() is camera
    assert calls["fit_bounds"] == fitted
    plot.set_vertical_exaggeration(3.0 * plot.volume.spacing[2])
    bounds = plot.volume.bounds()
    moved = plot.default_camera()
    assert moved == Camera.fit_bounds(bounds)
    assert moved != camera
    assert plot.default_camera() is moved
