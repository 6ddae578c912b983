"""A frame draws runs of like actors, one ``rasterize`` call each.

The contract is the per-actor loop ``Renderer.render`` ran before
(``reference_rasterizer.render_actors``): colour, depth and pixels
written identical on scenes that mix lit and unlit meshes, lines with
and without a flat colour, actors holding both, thick lines next to
thin ones, invisible, empty and behind-the-eye actors, contour overlays
between slice planes, and runs that span fragment batches.  The smooth
point normals that shade a lit run are held bit-equal to the
``np.cross`` + ``np.add.at`` formulation they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.view import View
from repro.dv3d.volume import VolumePlot
from repro.rendering import rasterizer, scene as scene_module
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData, box_outline, plane_quad
from repro.rendering.scene import Actor, Renderer, Scene
from repro.util.errors import RenderingError
from tests.rendering import reference_rasterizer as reference

CAMERA = Camera(position=(0.0, 0.0, 6.0), focal_point=(0.0, 0.0, 0.0))
LIGHT = (0.3, -0.4, 0.8)


def _mesh(rng, n_points):
    points = rng.normal(scale=rng.choice([0.5, 1.5]), size=(n_points, 3))
    if rng.random() < 0.5:
        points = np.round(points * 2) / 2  # shared positions: exact depth ties
    triangles = rng.integers(0, n_points, size=(int(rng.integers(1, 40)), 3))
    if rng.random() < 0.4:  # exact repeats, drawn later
        triangles = np.concatenate([triangles, triangles[: len(triangles) // 2 + 1]])
    return points, triangles


def _lines(rng, n_points):
    return [
        rng.integers(0, n_points, size=int(rng.integers(0, 8)))
        for _ in range(int(rng.integers(1, 5)))
    ]


def _random_actor(rng):
    """One actor of a kind the renderer groups: triangles, lines, both,
    or one it must skip."""
    n_points = int(rng.integers(3, 40))
    kind = rng.choice(["triangles", "triangles", "lines", "lines", "both",
                       "invisible", "empty", "behind"])
    colors = rng.random((n_points, 3)).astype(np.float32) if rng.random() < 0.5 else None
    points, triangles = _mesh(rng, n_points)
    lines = None
    if kind == "lines":
        triangles, lines = None, _lines(rng, n_points)
    elif kind == "both":
        lines = _lines(rng, n_points)
    elif kind == "empty":
        points, triangles, colors = np.zeros((0, 3)), None, None
    elif kind == "behind":
        points[:, 2] = 6.0 + rng.random(n_points) * 3  # at or behind the eye
        lines = _lines(rng, n_points) if rng.random() < 0.5 else None
    return Actor(
        PolyData(points, triangles, lines, colors=colors),
        color=tuple(rng.random(3)),
        line_color=tuple(rng.random(3)) if rng.random() < 0.5 else None,
        lighting=bool(rng.random() < 0.5),
        visible=kind != "invisible",
        point_size=int(rng.choice([1, 1, 3])),
    )


def _render_both(actors, width, height, camera=CAMERA):
    """(runs, per-actor loop): framebuffers and pixels written."""
    scene = Scene()
    scene.actors = list(actors)
    scene.lights[0].direction = LIGHT
    with obs.recording() as recorder:
        fb = Renderer(width, height).render(scene, camera)
    ref_fb = Framebuffer(width, height, background=scene.background)
    with np.errstate(all="ignore"):
        ref_written = reference.render_actors(actors, camera, ref_fb, np.asarray(LIGHT))
    return (fb, recorder.counter_total("rasterizer.pixels_written")), (ref_fb, ref_written)


def _assert_identical(runs, expected):
    (fb, written), (ref_fb, ref_written) = runs, expected
    assert written == ref_written
    assert np.array_equal(fb.depth, ref_fb.depth)
    assert np.array_equal(fb.color, ref_fb.color)


def _counted_rasterize(monkeypatch):
    calls = []
    draw = scene_module.rasterize

    def counted(run, *args, **kwargs):
        calls.append([actor.name for actor in run])
        return draw(run, *args, **kwargs)

    monkeypatch.setattr(scene_module, "rasterize", counted)
    return calls


class TestPointNormals:
    @pytest.mark.parametrize("seed", range(40))
    def test_bit_equal_to_cross_and_add_at(self, seed):
        rng = np.random.default_rng(seed)
        n_points = int(rng.integers(1, 80))
        points = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(n_points, 3))
        if rng.random() < 0.5:
            points = np.round(points)  # coincident points: zero-area triangles
        used = int(rng.integers(1, n_points + 1))  # the rest are unused points
        triangles = rng.integers(0, used, size=(int(rng.integers(0, 200)), 3))
        if len(triangles) and rng.random() < 0.5:
            triangles = np.concatenate([triangles, triangles[::3]])  # repeated
        poly = PolyData(points, triangles)
        normals = poly.point_normals()
        expected = reference.reference_point_normals(poly)
        assert normals.dtype == expected.dtype and normals.shape == expected.shape
        assert normals.tobytes() == expected.tobytes()

    def test_no_triangles(self):
        poly = PolyData(np.arange(12.0).reshape(4, 3))
        assert poly.point_normals().tobytes() == reference.reference_point_normals(poly).tobytes()
        assert not poly.point_normals().any()

    def test_shared_vertices_sum_their_triangles(self):
        quad = plane_quad(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 5, 4)
        normals = quad.point_normals()
        assert normals.tobytes() == reference.reference_point_normals(quad).tobytes()
        assert np.allclose(normals, [0.0, 0.0, 1.0])


class TestRunsAgainstThePerActorLoop:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([(16, 12), (48, 36)]),
        budget=st.sampled_from([64, 1 << 13]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_mixed_scenes(self, seed, size, budget):
        rng = np.random.default_rng(seed)
        actors = [_random_actor(rng) for _ in range(int(rng.integers(1, 8)))]
        # a tiny budget makes a run span many batches
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rasterizer, "_FRAGMENT_BUDGET", budget)
            runs, expected = _render_both(actors, *size)
        _assert_identical(runs, expected)

    def test_coplanar_meshes_tie_across_actors(self, monkeypatch):
        """Equal depths go to the earlier actor, in one run as in two calls."""
        quad = plane_quad(np.array([-1.0, -1.0, 0.0]), np.array([2.0, 0, 0]),
                          np.array([0, 2.0, 0]), 6, 6)
        actors = [Actor(quad, color=(1.0, 0, 0), lighting=False),
                  Actor(quad, color=(0, 1.0, 0)),
                  Actor(quad, color=(0, 0, 1.0), lighting=False)]
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(actors, 40, 30)
        _assert_identical(runs, expected)
        assert len(calls) == 1
        assert np.allclose(runs[0].color[15, 20], [1.0, 0, 0])

    def test_flat_and_interpolated_lines_in_one_run(self, monkeypatch):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(30, 3))
        colors = rng.random((30, 3)).astype(np.float32)
        lines = [np.arange(10), np.arange(10, 30)]
        actors = [
            Actor(PolyData(points, lines=lines, colors=colors), lighting=False),
            Actor(box_outline((-1, 1, -1, 1, -1, 1)), line_color=(0.7, 0.7, 0.75)),
            Actor(PolyData(points[::-1], lines=lines), color=(0.2, 0.9, 0.4)),
            Actor(box_outline((-0.5, 0.5, -2, 2, -0.5, 0.5)), line_color=(0.9, 0.1, 0.1)),
        ]
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(actors, 48, 36)
        _assert_identical(runs, expected)
        assert len(calls) == 1

    def test_an_actor_with_both_kinds_is_a_run_of_its_own(self, monkeypatch):
        rng = np.random.default_rng(5)
        points, triangles = _mesh(rng, 20)
        both = Actor(PolyData(points, triangles, _lines(rng, 20)), name="both")
        mesh = Actor(PolyData(points * 0.5, triangles), name="mesh")
        outline = Actor(box_outline((-1, 1, -1, 1, -1, 1)), line_color=(1.0, 1.0, 0), name="frame")
        actors = [mesh, both, both, outline]
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(actors, 48, 36)
        _assert_identical(runs, expected)
        assert calls == [["mesh"], ["both"], ["both"], ["frame"]]

    def test_thick_lines_do_not_join_thin_ones(self, monkeypatch):
        outline = box_outline((-1, 1, -1, 1, -1, 1))
        actors = [Actor(outline, line_color=(1.0, 0, 0), name="thin"),
                  Actor(outline, line_color=(0, 1.0, 0), point_size=3, name="thick"),
                  Actor(outline, line_color=(0, 0, 1.0), point_size=3, name="thick2"),
                  Actor(outline, line_color=(1.0, 1.0, 1.0), name="thin2")]
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(actors, 48, 36)
        _assert_identical(runs, expected)
        assert calls == [["thin"], ["thick", "thick2"], ["thin2"]]

    def test_skipped_actors_do_not_cut_a_run(self, monkeypatch):
        quad = plane_quad(np.array([-1.0, -1.0, 0.0]), np.array([2.0, 0, 0]),
                          np.array([0, 2.0, 0]), 3, 3)
        actors = [Actor(quad, name="a"),
                  Actor(box_outline((-1, 1, -1, 1, -1, 1)), visible=False, name="hidden"),
                  Actor(PolyData(np.zeros((0, 3))), name="empty"),
                  Actor(quad.transformed(np.eye(3) * 0.5), name="b")]
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(actors, 32, 24)
        _assert_identical(runs, expected)
        assert calls == [["a", "b"]]

    def test_a_slicer_with_contour_overlays(self, reanalysis, monkeypatch):
        """Slice planes and their contours alternate: each is its own run,
        and the last contours join the frame outline."""
        plot = SlicerPlot(reanalysis("ta"), overlay_variable=reanalysis("zg"), contour_count=6)
        scene = plot.scene()
        names = [actor.name for actor in scene.actors]
        assert [name for name in names if name.startswith("contours")], names
        calls = _counted_rasterize(monkeypatch)
        runs, expected = _render_both(scene.actors, 64, 48, camera=plot.default_camera())
        _assert_identical(runs, expected)
        assert len(calls) < len(names)
        assert calls[-1][-1] == "frame"

    def test_one_run_refuses_two_point_sizes(self):
        outline = box_outline((-1, 1, -1, 1, -1, 1))
        with pytest.raises(RenderingError, match="point size"):
            rasterizer.rasterize([Actor(outline), Actor(outline, point_size=3)],
                                 CAMERA, Framebuffer(16, 12))


    def test_one_run_refuses_lines_before_triangles(self):
        """Its triangles are drawn first, so the order would change."""
        quad = plane_quad(np.array([-1.0, -1.0, 0.0]), np.array([2.0, 0, 0]),
                          np.array([0, 2.0, 0]), 3, 3)
        outline = box_outline((-1, 1, -1, 1, -1, 1))
        with pytest.raises(RenderingError, match="before its polylines"):
            rasterizer.rasterize([Actor(outline), Actor(quad)], CAMERA, Framebuffer(16, 12))
        both = PolyData(quad.points, quad.triangles, outline.lines[:1])
        with pytest.raises(RenderingError, match="before its polylines"):
            rasterizer.rasterize([Actor(both), Actor(quad)], CAMERA, Framebuffer(16, 12))
        # triangles, then lines: what the actors drawn one by one leave
        actors = [Actor(quad), Actor(both), Actor(outline)]
        fb, ref_fb = Framebuffer(16, 12), Framebuffer(16, 12)
        written = rasterizer.rasterize(actors, CAMERA, fb)
        _assert_identical((fb, written), (ref_fb, reference.render_actors(actors, CAMERA, ref_fb, None)))


@pytest.mark.parametrize("factory, calls", [
    (SlicerPlot, 2),  # the slice planes; the frame outline and the base map
    (IsosurfacePlot, 2),  # the surface; the frame outline and the base map
    (VolumePlot, 1),  # the frame outline and the base map, then the ray caster
])
def test_a_cell_frame_is_one_rasterize_call_per_run(ta, monkeypatch, factory, calls):
    cell = DV3DCell(factory(ta), show_basemap=True)
    drawn = _counted_rasterize(monkeypatch)
    View(64, 48).draw(cell)
    assert len(drawn) == calls, drawn
    assert drawn[-1] == ["frame", "basemap"]
