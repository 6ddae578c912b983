"""The batched rasterizer against the per-primitive loops it replaced.

``reference_rasterizer`` holds the seed loops; the contract is their
bytes — color, depth *and* the returned count — on everything the
loops' draw order decides: exact depth ties between coplanar triangles,
a pre-filled depth buffer, degenerate / off-screen / NaN / behind-eye
geometry, thick polylines that cross the viewport edge and each other,
and meshes that span several fragment batches.  Two structural guards
(interpreter calls, allocation peak) hold the "no per-primitive Python"
property without reading a clock.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.rendering import rasterizer, scene
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData
from repro.rendering.isosurface import marching_tetrahedra
from repro.rendering.scene import Actor
from tests.rendering import reference_rasterizer as reference
from tests.rendering.test_golden_images import HEIGHT, WIDTH, _build_plot

CAMERA = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
LIGHT = np.array([0.3, -0.4, 0.8])


def _run_of_one(poly, camera, fb, light_direction=None, line_color=None, point_size=1):
    """The batched rasterizer over *poly* as one actor, called as the reference is."""
    actor = Actor(poly, line_color=line_color, point_size=point_size)
    return rasterizer.rasterize([actor], camera, fb, light_direction=light_direction)


def _draw_both(poly, width, height, depth=None, camera=CAMERA, **kwargs):
    """(batched, reference) framebuffers and counts for one rasterize call."""
    out = []
    for draw in (_run_of_one, reference.rasterize):
        fb = Framebuffer(width, height)
        if depth is not None:
            fb.depth[:] = depth
        with np.errstate(all="ignore"):  # NaN vertices are part of the input
            out.append((fb, draw(poly, camera, fb, **kwargs)))
    return out


def _assert_identical(batched, expected):
    (fb, count), (ref_fb, ref_count) = batched, expected
    assert count == ref_count
    assert np.array_equal(fb.depth, ref_fb.depth)
    assert np.array_equal(fb.color, ref_fb.color, equal_nan=True)


def _random_scene(rng):
    """A small mesh + polylines built to hit every order-dependent rule."""
    n_points = int(rng.integers(3, 60))
    points = rng.normal(scale=rng.choice([0.5, 1.5, 4.0]), size=(n_points, 3))
    if rng.random() < 0.5:
        points = np.round(points * 2) / 2  # shared positions: exact depth ties
    if rng.random() < 0.3:
        points[:, 2] = 0.0  # one plane: every overlap is a tie
    if rng.random() < 0.3:
        points[rng.integers(n_points)] = np.nan
    if rng.random() < 0.3:
        points[rng.integers(n_points), 2] = 5.99 + rng.random() * 3  # at / behind the eye
    triangles = rng.integers(0, n_points, size=(int(rng.integers(0, 80)), 3))  # some degenerate
    if len(triangles) and rng.random() < 0.5:  # exact duplicates, drawn later
        again = rng.integers(0, len(triangles), size=len(triangles) // 2 + 1)
        triangles = np.concatenate([triangles, triangles[again]])
    lines = [
        rng.integers(0, n_points, size=int(rng.integers(0, 9)))
        for _ in range(int(rng.integers(0, 6)))
    ]
    colors = rng.random((n_points, 3)).astype(np.float32) if rng.random() < 0.6 else None
    return PolyData(points, triangles, lines, colors=colors)


class TestDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([(16, 12), (33, 24), (64, 48)]),
        lit=st.booleans(),
        flat_lines=st.booleans(),
        point_size=st.integers(1, 3),
        prefilled=st.booleans(),
        budget=st.sampled_from([64, 1 << 13]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_scenes(
        self, seed, size, lit, flat_lines, point_size, prefilled, budget
    ):
        rng = np.random.default_rng(seed)
        poly = _random_scene(rng)
        width, height = size
        depth = (
            rng.choice([4.0, 5.5, 6.0, np.inf], size=(height, width)).astype(np.float32)
            if prefilled else None
        )
        kwargs = dict(
            light_direction=LIGHT if lit else None,
            line_color=(0.9, 0.4, 0.1) if flat_lines else None,
            point_size=point_size,
        )
        # a tiny budget makes even these meshes span many batches
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
            batched, expected = _draw_both(poly, width, height, depth, **kwargs)
        _assert_identical(batched, expected)

    def test_mesh_spanning_batches(self, monkeypatch):
        """Big overlapping triangles at the real budget: >= 3 resolves."""
        rng = np.random.default_rng(7)
        points = np.round(rng.normal(scale=1.5, size=(40, 3)) * 2) / 2
        poly = PolyData(
            points, rng.integers(0, 40, size=(200, 3)),
            colors=rng.random((40, 3)).astype(np.float32),
        )
        resolves = []
        resolve = Framebuffer.resolve
        monkeypatch.setattr(
            Framebuffer, "resolve",
            lambda self, *args: resolves.append(1) or resolve(self, *args),
        )
        batched, expected = _draw_both(poly, 64, 48, light_direction=LIGHT)
        assert len(resolves) >= 3
        _assert_identical(batched, expected)

    @pytest.mark.parametrize(
        "name", ["volume", "isosurface", "slicer", "vector_slicer", "hovmoller"]
    )
    def test_golden_scenes(self, name, reanalysis, waves, monkeypatch):
        """The five golden scenes: same frame, same obs counters as the loops."""
        plot = _build_plot(name, reanalysis, waves)
        with obs.recording() as recorder:
            fb = plot.render(WIDTH, HEIGHT)
        counters = {key.name: value for key, value in recorder.counters.items()}

        written = []
        triangles = []

        def loop_rasterize(run, camera, fb, light_direction=None):
            # the run's actors one by one, each with its own options
            written.append(reference.render_actors(run, camera, fb, light_direction))
            triangles.extend(actor.poly.n_triangles for actor in run)

        monkeypatch.setattr(scene, "rasterize", loop_rasterize)
        ref_fb = plot.render(WIDTH, HEIGHT)
        assert np.array_equal(fb.color, ref_fb.color)
        assert np.array_equal(fb.depth, ref_fb.depth)
        assert counters.get("rasterizer.pixels_written", 0) == sum(written)
        assert counters.get("rasterizer.triangles", 0) == sum(triangles)


class TestNearEyePlanePolyline:
    """A segment ending next to the eye plane projects ~10**5 px long;
    only the part inside the viewport may cost anything."""

    POLY = PolyData(
        np.array([[0.0, 0.0, 0.0], [8.4, 0.0, 4.99], [-0.5, 0.3, 0.0]]),
        lines=[np.array([2, 0, 1])],
        colors=np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], dtype=np.float32),
    )
    CAMERA = Camera(position=(0.0, 0.0, 5.0), focal_point=(0.0, 0.0, 0.0))

    def test_projects_far_outside(self):
        px = self.CAMERA.project(self.POLY.points, 64, 48)[:, 0]
        assert px[1] > 5e4 and 0 <= px[0] <= 63

    @pytest.mark.parametrize("point_size", [1, 3])
    def test_same_pixels_as_the_loop(self, point_size):
        batched, expected = _draw_both(
            self.POLY, 64, 48, camera=self.CAMERA, point_size=point_size
        )
        assert expected[1] > 30
        _assert_identical(batched, expected)

    def test_allocation_is_bounded_by_the_viewport(self):
        fb = Framebuffer(64, 48)
        tracemalloc.start()
        try:
            rasterizer.rasterize([Actor(self.POLY, point_size=3)], self.CAMERA, fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"{peak} bytes for a ~30 pixel line"


class TestAxisAlignedPolylines:
    """Segments parallel to a pixel axis or of zero length divide by zero
    when clipped (±inf and NaN crossings); they must still sample what
    the loop sampled."""

    POINTS = np.array([
        [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],  # horizontal
        [0.0, -1.0, 0.0], [0.0, 1.0, 0.0],  # vertical
        [0.3, 0.3, 0.0], [0.3, 0.3, 0.0],  # zero length
        [-30.0, 0.4, 0.0], [30.0, 0.4, 0.0],  # horizontal, far past both sides
        [-0.2, 9.0, 0.0], [0.5, 9.0, 0.0],  # horizontal, above the viewport
        [-0.9, -0.9, 1.0], [-0.9, 0.9, -1.0],  # vertical on screen, sloped in depth
    ])
    LINES = [np.array([2 * i, 2 * i + 1]) for i in range(6)]

    @pytest.mark.parametrize("point_size", [1, 2, 3])
    @pytest.mark.parametrize("line_color", [None, (0.9, 0.2, 0.1)])
    def test_same_pixels_as_the_loop(self, point_size, line_color):
        colors = np.linspace(0.0, 1.0, self.POINTS.size, dtype=np.float32).reshape(-1, 3)
        poly = PolyData(self.POINTS, lines=self.LINES, colors=colors)
        batched, expected = _draw_both(poly, 64, 48, point_size=point_size,
                                       line_color=line_color)
        assert expected[1] > 0
        _assert_identical(batched, expected)


def _sweep_mesh(n):
    volume = reference.make_volume(n)
    return marching_tetrahedra(volume, 0.5), Camera.fit_bounds(volume.bounds())


def _interpreter_calls(fn):
    """Python + C function calls made while *fn* runs."""
    calls = [0]

    def count(_frame, event, _arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls[0]


class TestStructure:
    """One rasterize costs O(batches) numpy calls, and a batch's memory."""

    @pytest.mark.parametrize(
        "n, size, call_limit", [(24, (64, 48), 2_000), (96, (640, 480), 20_000)]
    )
    def test_calls_do_not_scale_with_triangles(self, n, size, call_limit):
        surface, camera = _sweep_mesh(n)  # 3.2k and 59k triangles
        fb = Framebuffer(*size)
        calls = _interpreter_calls(
            lambda: rasterizer.rasterize([Actor(surface)], camera, fb, light_direction=LIGHT)
        )
        assert calls <= call_limit

    def test_peak_memory_is_a_batch_not_a_frame(self):
        surface, camera = _sweep_mesh(96)
        fb = Framebuffer(640, 480)
        tracemalloc.start()
        try:
            rasterizer.rasterize([Actor(surface)], camera, fb, light_direction=LIGHT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20
