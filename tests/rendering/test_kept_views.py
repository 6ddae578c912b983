"""What read-only geometry keeps of its last view: the projection, and
the line and triangle fragments the rasterizer derives from it.

The projection ``PolyData.viewed`` keeps must equal ``Camera.project``
bit for bit (NaN
rows of points behind the eye included), keep nothing for writable
points, and project again for another camera object, another size or
other points.  A frame drawn from kept line fragments must leave what
the per-primitive loops in ``reference_rasterizer`` leave: colour,
depth and pixels written, flat and interpolated lines, thin and thick
brushes, lines drawn after a triangle run that changed, and runs that
mix meshes whose fragments are kept with meshes made anew each frame.
"""

from typing import List

import numpy as np
import pytest

from repro import obs
from repro.rendering import rasterizer
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData, box_outline
from repro.rendering.scene import Actor, Renderer, Scene
from tests.rendering import reference_rasterizer as reference

LIGHT = (0.3, -0.4, 0.8)


def _counted_projections(monkeypatch) -> List[int]:
    calls: List[int] = []
    project = Camera.project

    def counted(self, *args, **kwargs):
        calls.append(1)
        return project(self, *args, **kwargs)

    monkeypatch.setattr(Camera, "project", counted)
    return calls


def _random_camera(rng) -> Camera:
    position = tuple(rng.normal(scale=rng.choice([2.0, 8.0]), size=3) + (0.0, 0.0, 0.5))
    focal = tuple(rng.normal(scale=0.5, size=3))
    return Camera(position=position, focal_point=focal,
                  view_up=tuple(rng.normal(size=3)),
                  fov_degrees=float(rng.uniform(10, 120)))


def _frozen(points: np.ndarray, **kwargs) -> PolyData:
    points = np.array(points, dtype=np.float64)
    return PolyData(points, **kwargs).freeze()


class TestKeptProjection:
    @pytest.mark.parametrize("seed", range(30))
    def test_bit_equal_to_camera_project(self, seed):
        rng = np.random.default_rng(seed)
        camera = _random_camera(rng)
        points = rng.normal(scale=rng.choice([1.0, 10.0]), size=(int(rng.integers(1, 60)), 3))
        # some points at or behind the eye: their x and y are NaN
        points[: len(points) // 4] = np.asarray(camera.position) + rng.normal(size=(len(points) // 4, 3))
        poly = _frozen(points)
        width, height = int(rng.integers(1, 300)), int(rng.integers(1, 300))
        expected = camera.project(points, width, height)
        for _ in range(2):  # computed, then kept
            kept = poly.viewed(camera, width, height)[0]
            assert kept.dtype == expected.dtype and kept.shape == expected.shape
            assert kept.tobytes() == expected.tobytes()
        assert not kept.flags.writeable

    def test_kept_once_per_camera_object_and_size(self, monkeypatch):
        rng = np.random.default_rng(1)
        camera = _random_camera(rng)
        poly = _frozen(rng.normal(size=(20, 3)))
        calls = _counted_projections(monkeypatch)
        first = poly.viewed(camera, 64, 48)[0]
        assert poly.viewed(camera, 64, 48)[0] is first
        assert len(calls) == 1
        # an equal camera that is another object, another size: projected again
        twin = Camera(**{k: getattr(camera, k) for k in camera.__dataclass_fields__})
        poly.viewed(twin, 64, 48)[0]
        poly.viewed(twin, 65, 48)[0]
        poly.viewed(twin, 65, 49)[0]
        assert len(calls) == 4
        # the one entry holds the last view only
        poly.viewed(camera, 64, 48)[0]
        assert len(calls) == 5

    def test_copies_over_the_same_points_share_it_and_other_points_do_not(self, monkeypatch):
        rng = np.random.default_rng(2)
        camera = _random_camera(rng)
        poly = _frozen(rng.normal(size=(12, 3)), triangles=[[0, 1, 2], [3, 4, 5]])
        calls = _counted_projections(monkeypatch)
        kept = poly.viewed(camera, 32, 24)[0]
        colored = poly.with_scalars(np.arange(12.0)).with_colors(rng.random((12, 3)))
        assert colored.viewed(camera, 32, 24)[0] is kept
        assert len(calls) == 1
        other = PolyData(poly.points.copy(), poly.triangles).freeze()
        assert other.viewed(camera, 32, 24)[0].tobytes() == kept.tobytes()
        assert len(calls) == 2

    def test_writable_points_are_never_kept(self, monkeypatch):
        rng = np.random.default_rng(3)
        camera = _random_camera(rng)
        points = rng.normal(size=(10, 3))
        poly = PolyData(points)
        assert poly.points is points
        calls = _counted_projections(monkeypatch)
        poly.viewed(camera, 40, 30)[0]
        poly.points[0] += 1.0
        moved = poly.viewed(camera, 40, 30)[0]
        assert len(calls) == 2
        assert np.array_equal(moved, camera.project(poly.points, 40, 30), equal_nan=True)

    def test_a_read_only_view_of_writable_points_is_not_kept(self, monkeypatch):
        rng = np.random.default_rng(4)
        camera = _random_camera(rng)
        base = rng.normal(size=(10, 3))
        view = base.view()
        view.flags.writeable = False
        poly = PolyData(view)
        calls = _counted_projections(monkeypatch)
        poly.viewed(camera, 40, 30)[0]
        base[:] += 1.0  # the view's points move under it
        assert np.array_equal(poly.viewed(camera, 40, 30)[0],
                              camera.project(base, 40, 30), equal_nan=True)
        assert len(calls) == 3

    def test_points_made_read_only_later_are_kept_from_then_on(self, monkeypatch):
        rng = np.random.default_rng(5)
        camera = _random_camera(rng)
        poly = box_outline((-1, 1, -1, 1, -1, 1))
        calls = _counted_projections(monkeypatch)
        poly.viewed(camera, 40, 30)[0]
        poly.freeze()
        poly.viewed(camera, 40, 30)[0]
        poly.viewed(camera, 40, 30)[0]
        assert len(calls) == 2


def _render_both(actors, width, height, camera):
    """(this rasterizer, the per-actor loop): framebuffers and pixels written."""
    scene = Scene()
    scene.actors = list(actors)
    scene.lights[0].direction = LIGHT
    with obs.recording() as recorder:
        fb = Renderer(width, height).render(scene, camera)
    ref_fb = Framebuffer(width, height, background=scene.background)
    with np.errstate(all="ignore"):
        ref_written = reference.render_actors(actors, camera, ref_fb, np.asarray(LIGHT))
    assert recorder.counter_total("rasterizer.pixels_written") == ref_written
    assert np.array_equal(fb.depth, ref_fb.depth)
    assert np.array_equal(fb.color, ref_fb.color)


def _line_actors(rng, brush):
    points = rng.normal(scale=1.2, size=(40, 3))
    if rng.random() < 0.5:
        points[:5, 2] = 7.0 + rng.random(5)  # at or behind the eye
    colors = rng.random((40, 3)).astype(np.float32)
    lines = [rng.integers(0, 40, size=int(rng.integers(2, 12))) for _ in range(4)]
    return [
        Actor(_frozen(points, lines=lines, colors=colors), lighting=False,
              point_size=brush),  # interpolated
        Actor(box_outline((-1, 1, -1, 1, -1, 1)).freeze(), line_color=(0.7, 0.7, 0.75),
              point_size=brush),
        Actor(_frozen(points[::-1] * 3.0, lines=lines), color=(0.2, 0.9, 0.4),
              point_size=brush),  # far outside the viewport: clipped
        Actor(_frozen(points * 0.5, lines=lines), line_color=(0.9, 0.1, 0.1),
              point_size=brush),
    ]


def _triangle_actor(rng):
    points = rng.normal(size=(30, 3))
    triangles = rng.integers(0, 30, size=(int(rng.integers(5, 40)), 3))
    return Actor(PolyData(points, triangles), color=tuple(rng.random(3)),
                 lighting=bool(rng.random() < 0.5))


class TestKeptLineSamples:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("brush", [1, 3])
    @pytest.mark.parametrize("budget", [64, 1 << 13])
    def test_kept_runs_equal_the_reference_after_a_changed_triangle_run(
            self, monkeypatch, seed, brush, budget):
        monkeypatch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
        rng = np.random.default_rng(seed)
        camera = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
        lines = _line_actors(rng, brush)
        size = (48, 36) if seed % 2 else (17, 61)
        calls = _counted_projections(monkeypatch)
        # a new triangle run each frame (a time step), over the kept lines
        for _ in range(3):
            _render_both([_triangle_actor(rng), *lines], *size, camera)
        # the reference projects all 5 actors per frame; the rasterizer
        # projects all 5 in the first, then only the new triangle mesh
        assert len(calls) == 3 * 5 + (5 + 1 + 1)

    def test_a_new_camera_derives_the_samples_again(self, monkeypatch):
        rng = np.random.default_rng(7)
        lines = _line_actors(rng, 1)
        camera = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
        derived = []
        line_samples = rasterizer._line_samples

        def counted(*args):
            derived.append(1)
            return line_samples(*args)

        monkeypatch.setattr(rasterizer, "_line_samples", counted)
        orbited = camera.orbit(30.0, 0.0)
        twin = Camera(**{k: getattr(orbited, k) for k in orbited.__dataclass_fields__})
        for view in (camera, camera, orbited, orbited, twin):
            _render_both(lines, 48, 36, view)
        # one pass over every line geometry per camera object: an equal
        # camera is another object
        assert len(derived) == 3

    def test_kept_samples_are_read_only(self):
        poly = box_outline((-1, 1, -1, 1, -1, 1)).freeze()
        camera = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
        fb = Framebuffer(40, 30)
        rasterizer.rasterize([Actor(poly, line_color=(1.0, 1.0, 1.0))], camera, fb)
        (samples,) = poly._view.value[1].values()
        assert samples[0].size > 0
        for array in samples:
            assert not array.flags.writeable

    @pytest.mark.parametrize("seed", range(6))
    def test_one_call_over_points_only_triangles_and_lines(self, seed):
        """A run ``rasterize`` accepts outside ``runs``: kept projections
        keep every actor's points numbered as the run numbers them."""
        rng = np.random.default_rng(seed)
        camera = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
        points_only = Actor(_frozen(rng.normal(size=(7, 3))))
        mesh = _triangle_actor(rng)
        mesh.poly.freeze()
        lines = _line_actors(rng, 1)[:2]
        for _ in range(2):  # computed, then kept
            fb = Framebuffer(48, 36)
            written = rasterizer.rasterize([points_only, mesh, *lines], camera, fb,
                                           np.asarray(LIGHT))
            ref_fb = Framebuffer(48, 36)
            with np.errstate(all="ignore"):
                ref_written = reference.render_actors([points_only, mesh, *lines], camera,
                                                      ref_fb, np.asarray(LIGHT))
            assert written == ref_written
            assert np.array_equal(fb.depth, ref_fb.depth)
            assert np.array_equal(fb.color, ref_fb.color)

    def test_one_geometry_drawn_with_two_brushes_keeps_both(self):
        camera = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
        poly = box_outline((-1, 1, -1, 1, -1, 1)).freeze()
        for brush in (1, 3, 1, 3):
            _render_both([Actor(poly, line_color=(0.9, 0.8, 0.1), point_size=brush)],
                         40, 30, camera)


def _counted_fragment_passes(monkeypatch) -> List[int]:
    """The triangle count of each ``_triangle_fragments`` pass."""
    passes: List[int] = []
    fragments = rasterizer._triangle_fragments

    def counted(pieces, *args):
        passes.append(sum(triangles.shape[0] for triangles, _ in pieces))
        return fragments(pieces, *args)

    monkeypatch.setattr(rasterizer, "_triangle_fragments", counted)
    return passes


def _frozen_mesh(rng):
    mesh = _triangle_actor(rng)
    mesh.poly.freeze()
    return mesh


class TestKeptTriangleFragments:
    CAMERA = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))

    def test_kept_once_per_camera_object_and_size(self, monkeypatch):
        rng = np.random.default_rng(1)
        meshes = [_frozen_mesh(rng) for _ in range(3)]
        passes = _counted_fragment_passes(monkeypatch)
        for size in ((48, 36), (48, 36), (48, 37), (48, 37), (48, 36)):
            _render_both(meshes, *size, self.CAMERA)
        # one pass over the three meshes per (camera, size) it missed
        assert passes == [sum(mesh.poly.n_triangles for mesh in meshes)] * 3

    def test_a_new_camera_derives_them_again(self, monkeypatch):
        rng = np.random.default_rng(2)
        meshes = [_frozen_mesh(rng) for _ in range(2)]
        passes = _counted_fragment_passes(monkeypatch)
        orbited = self.CAMERA.orbit(30.0, 0.0)
        twin = Camera(**{k: getattr(orbited, k) for k in orbited.__dataclass_fields__})
        for view in (self.CAMERA, self.CAMERA, orbited, orbited, twin):
            _render_both(meshes, 48, 36, view)
        # an equal camera is another object
        assert len(passes) == 3

    def test_a_recoloured_copy_shares_them(self, monkeypatch):
        rng = np.random.default_rng(3)
        mesh = _frozen_mesh(rng)
        passes = _counted_fragment_passes(monkeypatch)
        _render_both([mesh], 48, 36, self.CAMERA)
        for _ in range(3):  # a time step: new colours over the same points
            colored = mesh.poly.with_colors(rng.random((mesh.poly.n_points, 3)))
            _render_both([Actor(colored, lighting=mesh.lighting)], 48, 36, self.CAMERA)
        assert len(passes) == 1

    def test_writable_points_are_never_kept(self, monkeypatch):
        rng = np.random.default_rng(4)
        mesh = _triangle_actor(rng)
        passes = _counted_fragment_passes(monkeypatch)
        for _ in range(3):
            _render_both([mesh], 48, 36, self.CAMERA)
        assert len(passes) == 3
        assert mesh.poly._view.value is None  # nothing kept, not even the projection

    def test_kept_fragments_are_read_only(self):
        rng = np.random.default_rng(5)
        mesh = _frozen_mesh(rng)
        rasterizer.rasterize([mesh], self.CAMERA, Framebuffer(48, 36), np.asarray(LIGHT))
        (fragments,) = mesh.poly._view.value[1].values()
        assert fragments[0].size > 0
        for array in fragments:
            assert not array.flags.writeable

    def test_kept_fragments_hold_only_their_own_mesh(self):
        """A pass over a kept mesh and a writable one keeps no view of the
        pass's joint arrays, which would hold the writable mesh's too."""
        rng = np.random.default_rng(6)
        mesh = _frozen_mesh(rng)
        rasterizer.rasterize([_triangle_actor(rng), mesh], self.CAMERA, Framebuffer(48, 36),
                             np.asarray(LIGHT))
        (fragments,) = mesh.poly._view.value[1].values()
        assert fragments[0].size > 0
        for array in fragments:
            assert array.base is None

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("budget", [64, 1 << 13])
    def test_a_run_of_kept_and_unkept_meshes_equals_the_reference(
            self, monkeypatch, seed, budget):
        monkeypatch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
        rng = np.random.default_rng(seed)
        kept = [_frozen_mesh(rng) for _ in range(3)]
        size = (48, 36) if seed % 2 else (17, 61)
        lines = _line_actors(rng, 1)[1:2]
        passes = _counted_fragment_passes(monkeypatch)
        calls = _counted_projections(monkeypatch)
        fresh_triangles = []
        for _ in range(4):
            # a time step: the kept meshes recoloured, a new writable mesh
            # between them, lines after them
            recolored = [Actor(mesh.poly.with_colors(rng.random((mesh.poly.n_points, 3))),
                               lighting=mesh.lighting) for mesh in kept]
            fresh = _triangle_actor(rng)
            fresh_triangles.append(fresh.poly.n_triangles)
            _render_both([recolored[0], fresh, *recolored[1:], *lines], *size, self.CAMERA)
        # the first frame finds every mesh's fragments in one pass, later
        # ones only the new mesh's
        kept_triangles = sum(mesh.poly.n_triangles for mesh in kept)
        assert passes == [kept_triangles + fresh_triangles[0], *fresh_triangles[1:]]
        # the reference projects 5 actors per frame; the rasterizer the 3
        # kept meshes and the outline once, the new mesh every frame
        assert len(calls) == 4 * 5 + 4 + 4
