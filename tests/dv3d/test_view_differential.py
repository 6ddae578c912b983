"""Every frame drawn through one ``View`` is the frame the old spellings drew.

``reference_view`` keeps the serving backend's own view arithmetic and
the three frame loops (``Animator``, ``StreamingAnimator``,
``CameraTour``) as they were before :class:`~repro.dv3d.view.View`
replaced them.  Over seeded sizes, time steps and azimuths — ``0.0``
and no azimuth at all included, and degraded requests — the served
bytes, the animation frames, the ladder's records and the tour's
frames must match them exactly, on twin targets built the same way.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from repro.dv3d import (
    Animator,
    CameraTour,
    CombinedPlot,
    DV3DCell,
    IsosurfacePlot,
    SlicerPlot,
    StreamingAnimator,
)
from repro.dv3d.view import View
from repro.rendering.ppm import ppm_bytes
from repro.resilience import faults
from repro.serving.backend import AppBackend
from repro.serving.request import Request
from repro.streaming.config import StreamingConfig
from tests.dv3d import reference_view as reference
from tests.streaming.conftest import make_variable

SIZE = {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3}
TEMPLATES = ("Slicer", "Isosurface", "Volume", "VolumeSlicer")
FRAMES = 10


def _requests(seed: int):
    """Seeded (params, degraded) pairs for one scene: sizes, steps and
    azimuths come and go, so sticky state carries between frames."""
    rng = random.Random(seed)
    requests = []
    for _ in range(FRAMES):
        params = {}
        if rng.random() < 0.8:
            params["width"], params["height"] = rng.choice([(16, 12), (32, 24), (40, 30)])
        if rng.random() < 0.6:
            params["timestep"] = rng.randrange(-1, 2 * SIZE["ntime"])
        roll = rng.random()
        if roll < 0.25:
            params["azimuth"] = 0.0
        elif roll < 0.75:
            params["azimuth"] = rng.choice([-40.0, 15.0, 30.0, 97.5])
        requests.append((params, rng.random() < 0.2))
    return requests


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_served_frame_is_the_old_backend_frame(template, seed):
    scene = {"template": template, "variables": {"variable": "ta"}, "size": dict(SIZE)}
    served, old = AppBackend(), AppBackend()
    for params, degraded in _requests(seed):
        request = dict(scene, **params)
        assert served(Request(params=request), degraded) == \
            reference.backend_call(old, request, degraded), (params, degraded)


def _combined(ta):
    return DV3DCell(CombinedPlot([IsosurfacePlot(ta), SlicerPlot(ta, enabled_planes=("z",))]))


@pytest.mark.parametrize("seed", [0, 1])
def test_a_combined_cell_draws_the_old_backend_frame(ta, seed):
    drawn, old = _combined(ta), _combined(ta)
    for params, degraded in _requests(seed):
        view = View.parse(params)
        view = view.degraded() if degraded else view
        new = ppm_bytes(view.draw(drawn).to_uint8())
        assert new == reference.backend_frame(old, params, view.width, view.height), params


def _twins(ta, kind: str, placed_camera: bool):
    """Two identical targets of *kind*: a bare plot, a cell, a combined cell."""
    def make():
        if kind == "combined":
            target = _combined(ta)
        else:
            plot = SlicerPlot(ta, enabled_planes=("x", "z"))
            target = DV3DCell(plot) if kind == "cell" else plot
        plot = target.plot if isinstance(target, DV3DCell) else target
        if placed_camera:
            plot.camera = plot.default_camera().orbit(25.0, 10.0)
        return target
    return make(), make()


def _same(frames, expected):
    assert len(frames) == len(expected)
    for index, (a, b) in enumerate(zip(frames, expected)):
        assert np.array_equal(a, b), f"frame {index}"


@pytest.mark.parametrize("kind", ["plot", "cell", "combined"])
@pytest.mark.parametrize("placed_camera", [False, True])
def test_an_animation_is_the_old_loop(ta, kind, placed_camera):
    rng = random.Random(f"{kind}-{placed_camera}")
    new, old = _twins(ta, kind, placed_camera)
    for _ in range(3):
        kwargs = {"width": rng.choice([16, 24]), "height": 12,
                  "start": rng.randrange(8), "count": rng.randrange(1, 7),
                  "stride": rng.randrange(1, 4)}
        if rng.random() < 0.5:
            plot = new.plot if isinstance(new, DV3DCell) else new
            kwargs["camera"] = plot.default_camera().orbit(rng.uniform(-60, 60), 5.0)
        _same(Animator(new).render_frames(**kwargs), reference.render_frames(old, **kwargs))
        new_status = StreamingAnimator(new).render_frames_with_status(**kwargs)
        old_status = reference.render_frames_with_status(old, **kwargs)
        _same(new_status[0], old_status[0])
        assert new_status[1] == old_status[1]


@pytest.mark.parametrize("kind", ["plot", "cell", "combined"])
@pytest.mark.parametrize("placed_camera", [False, True])
def test_a_camera_tour_is_the_old_loop(ta, kind, placed_camera):
    new, old = _twins(ta, kind, placed_camera)
    for kwargs in ({"n_frames": 3, "width": 16, "height": 12},
                   {"n_frames": 4, "total_azimuth_deg": 90.0, "elevation_deg": 20.0,
                    "width": 24, "height": 18}):
        _same(CameraTour(new).render_orbit(**kwargs), reference.render_orbit(old, **kwargs))


FAST = StreamingConfig(retry_base_delay=0.0)


@pytest.mark.parametrize("lowres, broken, rungs", [
    # the chunk's low-resolution companion stands in for it
    (None, (2, 5), {"lowres"}),
    # no companions: the first frame has nothing to re-serve, later ones do
    (1, (0, 3), {"blank", "previous"}),
])
@pytest.mark.parametrize("kind", ["plot", "cell"])
def test_a_degraded_streaming_run_is_the_old_ladder(tmp_path, lowres, broken, rungs, kind):
    path = tmp_path / "streamed.cdz"
    write_cdz(path, [make_variable(ntime=6)], version=2, chunk_timesteps=1,
              lowres_factor=lowres)

    def run(render):
        faults.disarm()
        for chunk in broken:
            faults.arm("streaming.read", "raise", match={"chunk": chunk}, times=0)
        try:
            with open_dataset(path, streaming="on", streaming_config=FAST) as ds:
                plot = SlicerPlot(ds.get_variable("ta"))
                return render(DV3DCell(plot) if kind == "cell" else plot)
        finally:
            faults.disarm()

    kwargs = {"width": 24, "height": 18, "count": 9}
    frames, records = run(lambda target: StreamingAnimator(target).render_frames_with_status(**kwargs))
    expected, expected_records = run(lambda target: reference.render_frames_with_status(target, **kwargs))
    assert records == expected_records
    assert {r.source for r in records if r.status == "degraded"} == rungs
    _same(frames, expected)
