"""The blocked ray caster against the one-step-per-iteration loop it replaced.

``reference_raycast`` holds the loop; the contract is its bytes — the
RGBA image, ``raycast.samples``, ``raycast.samples.skipped``,
``raycast.rays`` and the span's ``steps`` — on everything the march's
order decides: NaN and ±inf voxels (a ±inf gradient makes a shade NaN,
which even a zero-opacity sample carries into the color), volumes one
point thick, an empty opacity support, a camera inside the volume, a
pre-filled depth buffer, lighting on and off, step sizes around the
spacing, and frames split into blocks of one step (a sample budget of
1) or into the longest blocks (2²⁰).  Two truth oracles check what the
eliminations must not disturb: the optical depth of a uniform slab and
the sample at which a dense slab terminates.  Two structural guards (interpreter
calls, allocation peak) hold the "a block of steps per numpy call"
property without reading a clock.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.data.catalog import synthetic_reanalysis
from repro.dv3d.volume import VolumePlot
from repro.rendering import raycast, scene
from repro.rendering.camera import Camera
from repro.rendering.image_data import ImageData
from repro.rendering.transfer_function import TransferFunction
from tests.rendering import reference_raycast as reference
from tests.rendering.test_golden_images import HEIGHT, WIDTH, _build_plot
from tests.rendering.test_rasterizer_differential import _interpreter_calls

COUNTERS = ("raycast.samples", "raycast.samples.skipped", "raycast.rays")


def _cast(kernel, *args, **kwargs):
    """(rgba, counters, span steps) of one recorded render."""
    with obs.recording() as rec:
        with np.errstate(all="ignore"):  # ±inf voxels are part of the input
            rgba = kernel(*args, **kwargs)
    counters = {name: rec.counter_total(name) for name in COUNTERS}
    (span,) = [s for s in rec.spans if s.name == "raycast.render"]
    return rgba, counters, span.attrs["steps"]


def _assert_same(*args, **kwargs):
    try:
        want = _cast(reference.raycast_volume, *args, **kwargs)
    except ValueError as error:  # lighting a volume one point thick
        with pytest.raises(type(error), match=re.escape(str(error))):
            _cast(raycast.raycast_volume, *args, **kwargs)
        return None
    got = _cast(raycast.raycast_volume, *args, **kwargs)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    return got


@st.composite
def volumes(draw):
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.5, 1.0, 1.7])) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape)
    for hole in draw(st.sets(st.sampled_from([np.nan, np.inf, -np.inf]))):
        values[rng.random(shape) < 0.15] = hole
    volume = ImageData(shape, origin=(-1.0, 0.5, 2.0), spacing=spacing)
    volume.add_array("f", values)
    return volume


@st.composite
def transfers(draw):
    scalar_range = draw(st.sampled_from([(-2.0, 2.0), (-0.5, 1.5), (5.0, 6.0)]))
    return TransferFunction(
        scalar_range,
        center=draw(st.floats(0.0, 1.0)),
        width=draw(st.floats(0.01, 1.0)),
        # 0: the opacity support is empty
        peak_opacity=draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])),
    )


def _camera(draw, volume):
    """Looking in a random direction from inside the volume, or at its
    centre from outside."""
    azimuth, elevation = draw(st.floats(-3.1, 3.1)), draw(st.floats(-1.5, 1.5))
    look = np.array([
        np.cos(elevation) * np.cos(azimuth),
        np.cos(elevation) * np.sin(azimuth),
        np.sin(elevation),
    ])
    center = volume.center()
    if draw(st.booleans()):
        span = np.asarray(volume.bounds()[1::2]) - np.asarray(volume.bounds()[::2])
        offset = np.array([draw(st.floats(-0.4, 0.4)) for _ in range(3)])
        position = center + offset * span
        focal = position + look
    else:
        position = center - (2.0 * volume.diagonal() + 3.0) * look
        focal = center
    return Camera(position=tuple(position), focal_point=tuple(focal),
                  view_up=(0.3, 0.4, 0.87), fov_degrees=draw(st.sampled_from([30.0, 60.0])))


class TestDifferential:
    @given(data=st.data(), volume=volumes(), transfer=transfers())
    @settings(max_examples=200, deadline=None)
    def test_random_volumes(self, data, volume, transfer):
        draw = data.draw
        width, height = draw(
            st.sampled_from([(1, 1), (5, 3), (33, 17), (64, 48), (160, 120)])
        )
        camera = _camera(draw, volume)
        step = draw(st.sampled_from([None, 0.3, 0.7, 1.0, 2.2, 3.0]))
        step = step and step * min(volume.spacing)
        depth = None
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            depth = rng.choice([0.5, 4.0, 9.0, 20.0, np.inf], size=(height, width))
            depth = depth.astype(np.float32)
        budget = draw(st.sampled_from([1, 300, 1 << 20]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(raycast, "_SAMPLE_BUDGET", budget)
            _assert_same(
                volume, transfer, camera, width, height, step_size=step,
                depth_limit=depth, lighting=draw(st.booleans()),
            )

    @pytest.mark.parametrize("budget", [1, 300, 1 << 14, 1 << 20])
    @pytest.mark.parametrize("size", [(64, 48), (160, 120)])
    def test_stream_animate_grid(self, stream_grid, budget, size, monkeypatch):
        """The e2e grid: many rays, early termination, every block shape."""
        actor, camera = stream_grid
        monkeypatch.setattr(raycast, "_SAMPLE_BUDGET", budget)
        rgba, counters, steps = _assert_same(
            actor.volume, actor.transfer, camera.orbit(40.0, 10.0), *size,
            array_name=actor.array_name, lighting=True,
        )
        assert counters["raycast.samples"] > 0 and steps > 1
        assert counters["raycast.samples.skipped"] > 0

    def test_positions_are_the_loops_repeated_sum(self):
        """The loop's 7th t is ((0.01 + 0.3) + 0.3) + … — one ulp above
        0.01 + 6 · 0.3.  A depth that ends the ray exactly there stops
        it after 6 samples; a block that multiplied would take a 7th."""
        volume, transfer = _slab((41, 41, 41), peak=0.05)
        camera = Camera(position=(20.0, 20.0, 20.0), focal_point=(21.0, 20.0, 20.0))
        t = camera.near
        for _ in range(6):
            t += 0.3
        assert camera.near + 6 * 0.3 < t
        # a 1×1 frame's ray is the forward axis: view depth == ray t
        rgba, counters, steps = _assert_same(
            volume, transfer, camera, 1, 1, step_size=0.3, depth_limit=np.array([[t]]),
        )
        assert counters["raycast.samples"] == steps == 6

    @pytest.mark.parametrize(
        "name", ["volume", "isosurface", "slicer", "vector_slicer", "hovmoller"]
    )
    def test_golden_scenes(self, name, reanalysis, waves, monkeypatch):
        """The five golden scenes: same frame, same counters as the loop."""
        plot = _build_plot(name, reanalysis, waves)
        with obs.recording() as rec:
            fb = plot.render(WIDTH, HEIGHT)
        counters = {n: rec.counter_total(n) for n in COUNTERS}

        def loop(*args, rays=None, **kwargs):  # the loop keeps no view rays
            return reference.raycast_volume(*args, **kwargs)

        monkeypatch.setattr(scene, "raycast_volume", loop)
        with obs.recording() as rec:
            ref_fb = plot.render(WIDTH, HEIGHT)
        assert np.array_equal(fb.color, ref_fb.color)
        assert np.array_equal(fb.depth, ref_fb.depth)
        assert counters == {n: rec.counter_total(n) for n in COUNTERS}


def test_light_vector_is_not_normalised_in_place():
    volume = ImageData((4, 4, 4))
    volume.add_array("f", np.arange(64.0).reshape(4, 4, 4))
    transfer = TransferFunction((0.0, 63.0), center=0.5, width=0.8)
    light = np.array([0.0, 0.0, 2.0])
    raycast.raycast_volume(volume, transfer, Camera.fit_bounds(volume.bounds()), 4, 4,
                           light_direction=light)
    assert light.tolist() == [0.0, 0.0, 2.0]


def _slab(dims, value_span=(0.0, 2.0), peak=0.2):
    """A uniform volume at the opacity window's centre: zero gradient."""
    volume = ImageData(dims, origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0))
    volume.add_array("f", np.full(dims, sum(value_span) / 2))
    transfer = TransferFunction(value_span, center=0.5, width=0.5, peak_opacity=peak)
    return volume, transfer


def _path_lengths(camera, width, height, bounds):
    """Analytic length of each pixel ray inside an axis-aligned box."""
    origins, dirs = camera.pixel_rays(width, height)
    lo, hi = np.asarray(bounds[::2]), np.asarray(bounds[1::2])
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - origins) / dirs
        t1 = (hi - origins) / dirs
    enter = np.maximum(np.minimum(t0, t1).max(axis=1), camera.near)
    leave = np.maximum(t0, t1).min(axis=1)
    return np.maximum(leave - enter, 0.0).reshape(height, width)


class TestTruth:
    """Closed forms the three eliminations must not disturb."""

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lighting", [True, False])
    def test_uniform_slab_matches_optical_depth(self, factor, lighting):
        volume, transfer = _slab((9, 7, 8))
        camera = Camera.fit_bounds(volume.bounds()).orbit(30.0, 20.0)
        step = factor * min(volume.spacing)  # the reference step is 1
        rgba = raycast.raycast_volume(volume, transfer, camera, 48, 36,
                                      step_size=step, lighting=lighting)
        length = _path_lengths(camera, 48, 36, volume.bounds())
        alpha_ref = transfer.peak_opacity
        exact = 1.0 - (1.0 - alpha_ref) ** length  # 1 - e^-tau
        one_sample = 1.0 - (1.0 - alpha_ref) ** step
        assert length.max() > 5.0 and exact.max() < 1.0 - raycast._MIN_TRANSMITTANCE
        assert np.abs(rgba[..., 3] - exact).max() <= one_sample + 1e-6
        # zero gradient shades 1.0: premultiplied color = rgb · alpha
        rgb, _ = transfer.evaluate(np.array([1.0]))
        np.testing.assert_allclose(rgba[..., :3], rgba[..., 3:] * rgb[0], atol=1e-6)

    def test_dense_slab_terminates_at_the_first_opaque_sample(self):
        """α = 0.9 a step: a ray stops at the first sample where
        T = 0.1ⁿ ≤ _MIN_TRANSMITTANCE.  From a camera inside the slab no
        ray leaves the volume first, so every ray takes exactly n."""
        volume, transfer = _slab((41, 41, 41), peak=0.9)
        camera = Camera(position=(20.0, 19.5, 20.5), focal_point=(23.0, 21.0, 18.0))
        rgba, counters, steps = _cast(
            raycast.raycast_volume, volume, transfer, camera, 16, 12
        )
        n = math.ceil(math.log(raycast._MIN_TRANSMITTANCE) / math.log(0.1))
        assert n == 3
        assert counters == {
            "raycast.samples": 16 * 12 * n,
            "raycast.samples.skipped": 0,
            "raycast.rays": 16 * 12,
        }
        assert steps == n
        np.testing.assert_allclose(rgba[..., 3], 1.0 - 0.1**n, rtol=1e-6)


@pytest.fixture(scope="module")
def stream_grid():
    """The stream_animate Volume: a 72×48×12 ``ta`` grid and its camera."""
    dataset = synthetic_reanalysis(nlat=48, nlon=72, nlev=12, ntime=1, seed="raycast")
    plot = VolumePlot(dataset("ta"))
    return plot.build_scene().volume_actors[0], plot.default_camera()


class TestStructure:
    """One frame costs O(blocks) numpy calls, and a block's memory."""

    def _render(self, stream_grid, width, height):
        actor, camera = stream_grid
        return lambda: raycast.raycast_volume(
            actor.volume, actor.transfer, camera.orbit(30.0, 0.0), width, height,
            array_name=actor.array_name, lighting=True,
        )

    def test_calls_per_frame(self, stream_grid):
        render = self._render(stream_grid, 64, 48)
        render()  # gradient and cell bounds are per-volume, built once
        assert _interpreter_calls(render) <= 1_500

    @pytest.mark.parametrize("size, limit_mb", [((64, 48), 4), ((640, 480), 65)])
    def test_peak_memory(self, stream_grid, size, limit_mb):
        render = self._render(stream_grid, *size)
        render()
        tracemalloc.start()
        try:
            render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb << 20
