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

    def test_peak_memory_of_a_deep_writable_mesh_is_a_batch_not_a_frame(self):
        """40 writable triangles over one quarter of a 640x480 view: 1.5M
        covered fragments, which held at once would pass the bound."""
        rng = np.random.default_rng(0)
        corners = np.tile([[100.0, 100.0], [420.0, 100.0], [100.0, 340.0]], (40, 1))
        points = np.hstack([corners, rng.uniform(1.0, 5.0, size=(120, 1))])
        surface = PolyData(points, np.arange(120).reshape(-1, 3),
                           colors=rng.random((120, 3)).astype(np.float32))
        fb = Framebuffer(640, 480)
        tracemalloc.start()
        try:
            rasterizer.rasterize([Actor(surface)], PixelSpace(), fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20


class PixelSpace:
    """A camera whose projection is the identity: points are given as
    (pixel x, pixel y, depth), so a case can put a vertex exactly where
    it wants, on a pixel centre or a hair beside one."""

    def project(self, points, width, height):
        return np.array(points, dtype=np.float64)


def _old_box_pixels(poly, width, height):
    """Box pixel centres the ``floor(min)..ceil(max)`` boxes hold, over
    the finite, on-screen, non-degenerate triangles."""
    x, y = poly.points[poly.triangles, 0], poly.points[poly.triangles, 1]
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    drawn = (np.isfinite(area) & ~(np.abs(area) < 1e-12)
             & (x.max(1) >= 0) & (x.min(1) <= width - 1)
             & (y.max(1) >= 0) & (y.min(1) <= height - 1))
    x, y = x[drawn], y[drawn]
    box_w = np.ceil(np.minimum(x.max(1), width - 1)) - np.floor(np.maximum(x.min(1), 0)) + 1
    box_h = np.ceil(np.minimum(y.max(1), height - 1)) - np.floor(np.maximum(y.min(1), 0)) + 1
    return int((box_w * box_h).sum())


def _conditioned(poly):
    """Per triangle, whether it takes the box of pixel centres near its
    vertex bounds (the rasterizer's own test, restated)."""
    x, y = poly.points[poly.triangles, 0], poly.points[poly.triangles, 1]
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    span = np.maximum(np.ptp(x, axis=1), np.ptp(y, axis=1))
    return span * (span + 1.0) ** 2 <= rasterizer._WELL_CONDITIONED * np.abs(area)


def _pixel_mesh(corners, rng, depth=(1.0, 5.0)):
    """Triangles from ``(n, 3, 2)`` pixel-space corners, with random
    depths and colours."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 2)
    depths = rng.uniform(*depth, size=(len(corners), 1))
    points = np.hstack([corners, depths])
    triangles = np.arange(len(corners)).reshape(-1, 3)
    colors = rng.random((len(corners), 3)).astype(np.float32)
    return PolyData(points, triangles, colors=colors)


def _draw_in_pixels(poly, width, height, budget=1 << 13, prefilled=False):
    """Draw *poly* both ways through :class:`PixelSpace`, assert the
    frames identical, and return the box pixel centres the batched
    rasterizer tested."""
    depth = None
    if prefilled:
        depth = np.random.default_rng(0).choice(
            [2.0, 3.0, np.inf], size=(height, width)).astype(np.float32)
    with pytest.MonkeyPatch.context() as patch, obs.recording() as recorder:
        patch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
        batched, expected = _draw_both(poly, width, height, depth, camera=PixelSpace(),
                                       light_direction=None)
    _assert_identical(batched, expected)
    return recorder.counter_total("rasterizer.fragments.tested")


class TestPixelCentreBoxes:
    """A triangle tests the pixel centres within a small margin of its
    vertex bounds when it is well-conditioned, and its
    ``floor(min)..ceil(max)`` box when not; either way every frame is
    the loop's, byte for byte."""

    @pytest.mark.parametrize("seed", range(8))
    def test_sub_pixel_triangles(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        centres = rng.uniform(-1.0, [33.0, 25.0], size=(n, 1, 2))
        if seed % 2:
            centres = np.round(centres)  # around pixel centres
        sizes = rng.choice([1e-3, 0.05, 0.3, 0.9], size=(n, 1, 1))
        poly = _pixel_mesh(centres + rng.uniform(-1, 1, size=(n, 3, 2)) * sizes, rng)
        tested = _draw_in_pixels(poly, 32, 24, budget=rng.choice([64, 1 << 13]),
                                 prefilled=bool(seed % 3 == 0))
        assert tested < _old_box_pixels(poly, 32, 24) / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_vertices_on_pixel_centres(self, seed):
        """Edges through centres put exact zeros into the weights."""
        rng = np.random.default_rng(seed)
        n = 150
        corners = rng.integers(-2, [35, 27], size=(n, 3, 2)).astype(np.float64)
        if seed % 2:  # a fan of triangles sharing edges: ties on every edge
            corners[:, 0] = (16.0, 12.0)
        poly = _pixel_mesh(corners, rng)
        tested = _draw_in_pixels(poly, 32, 24, prefilled=bool(seed % 3 == 0))
        assert tested <= _old_box_pixels(poly, 32, 24)

    @pytest.mark.parametrize("seed", range(4))
    def test_slivers_just_above_the_area_skip(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        a = rng.uniform(0.0, [31.0, 23.0], size=(n, 2))
        d = rng.uniform(-3.0, 3.0, size=(n, 2))
        if seed % 2:
            a, d = np.round(a), np.round(d)  # through pixel centres
        # c sits off the line a-b by a double area just above 1e-12
        normal = np.stack([-d[:, 1], d[:, 0]], axis=1) / np.maximum(
            np.hypot(d[:, 0], d[:, 1]), 1e-30)[:, None] ** 2
        target = rng.choice([1.01e-12, 2e-12, 1e-9, 1e-3], size=(n, 1))
        c = a + d * rng.uniform(0, 1, size=(n, 1)) + normal * target
        poly = _pixel_mesh(np.stack([a, a + d, c], axis=1), rng)
        _draw_in_pixels(poly, 32, 24, budget=rng.choice([64, 1 << 13]))

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_triangles_keep_the_old_box(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        # long thin triangles: a span of 10-50 pixels, a width of 1e-5 or less
        a = rng.uniform(-5.0, [37.0, 29.0], size=(n, 2))
        angle = rng.uniform(0, 2 * np.pi, size=n)
        along = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        b = a + along * rng.uniform(10.0, 50.0, size=(n, 1))
        across = along[:, ::-1] * (-1.0, 1.0)
        c = (a + b) / 2 + across * rng.uniform(-1e-5, 1e-5, size=(n, 1))
        poly = _pixel_mesh(np.stack([a, b, c], axis=1), rng)
        assert not _conditioned(poly).any()
        tested = _draw_in_pixels(poly, 32, 24, prefilled=bool(seed % 2))
        assert tested == _old_box_pixels(poly, 32, 24)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertices_far_off_screen(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        corners = rng.uniform(-2.0, [34.0, 26.0], size=(n, 3, 2))
        far = rng.integers(1, 3, size=n)  # one or two corners ~1e5 px away
        for i in range(n):
            corners[i, :far[i]] = rng.choice([-1.0, 1.0], size=(far[i], 2)) * rng.uniform(
                5e4, 2e5, size=(far[i], 2))
        poly = _pixel_mesh(corners, rng)
        conditioned = _conditioned(poly)
        assert conditioned.any() and not conditioned.all()
        _draw_in_pixels(poly, 32, 24, budget=rng.choice([64, 1 << 13]),
                        prefilled=bool(seed % 2))

    def test_meshes_spanning_batches(self):
        """Big overlapping triangles over several budgets' worth of box
        pixels, and a fragment budget that cuts batches inside them."""
        rng = np.random.default_rng(11)
        corners = rng.uniform(-10.0, [74.0, 58.0], size=(200, 3, 2))
        corners[::3] = np.round(corners[::3])
        poly = _pixel_mesh(corners, rng)
        for budget in (64, 1000, 1 << 13):
            tested = _draw_in_pixels(poly, 64, 48, budget=budget, prefilled=True)
            assert tested > 3 * (1 << 13)
