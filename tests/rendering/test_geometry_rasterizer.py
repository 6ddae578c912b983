"""PolyData geometry and the software rasterizer."""

import numpy as np
import pytest

from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.geometry import PolyData, box_outline, plane_quad
from repro.rendering.rasterizer import rasterize, shade_colors
from repro.rendering.scene import Actor
from repro.util.errors import RenderingError


@pytest.fixture()
def triangle():
    return PolyData(
        np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2]]),
    )


@pytest.fixture()
def camera():
    return Camera(position=(0, 0, 5), focal_point=(0, 0, 0), fov_degrees=45.0)


class TestPolyData:
    def test_index_validation(self):
        with pytest.raises(RenderingError):
            PolyData(np.zeros((2, 3)), np.array([[0, 1, 5]]))
        with pytest.raises(RenderingError):
            PolyData(np.zeros((2, 3)), lines=[np.array([0, 9])])

    def test_attribute_length_validation(self):
        with pytest.raises(RenderingError):
            PolyData(np.zeros((2, 3)), scalars=np.zeros(3))
        with pytest.raises(RenderingError):
            PolyData(np.zeros((2, 3)), colors=np.zeros((5, 3)))

    def test_bounds(self, triangle):
        assert triangle.bounds() == (-1.0, 1.0, -1.0, 1.0, 0.0, 0.0)

    def test_triangle_normals_unit(self, triangle):
        normals = triangle.triangle_normals()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0)
        np.testing.assert_allclose(np.abs(normals[0]), [0, 0, 1], atol=1e-12)

    def test_point_normals_average(self):
        quad = plane_quad(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 3, 3)
        normals = quad.point_normals()
        np.testing.assert_allclose(np.abs(normals[:, 2]), 1.0, atol=1e-12)

    def test_surface_area_unit_quad(self):
        quad = plane_quad(np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 4, 4)
        assert quad.surface_area() == pytest.approx(1.0)

    def test_transformed(self, triangle):
        doubled = triangle.transformed(2 * np.eye(3), translation=[1.0, 0.0, 0.0])
        assert doubled.bounds()[0] == pytest.approx(-1.0)  # -1*2 + 1
        assert doubled.bounds()[1] == pytest.approx(3.0)

    def test_merge_concatenates(self, triangle):
        merged = PolyData.merge(triangle, triangle)
        assert merged.n_points == 6
        assert merged.n_triangles == 2
        assert merged.triangles.max() == 5

    def test_merge_mixed_attributes(self, triangle):
        with_colors = triangle.with_colors(np.ones((3, 3)))
        merged = PolyData.merge(triangle, with_colors)
        assert merged.colors is not None
        assert merged.colors.shape == (6, 3)

    def test_merge_empty(self):
        merged = PolyData.merge()
        assert merged.n_points == 0

    def test_box_outline_has_12_edges(self):
        box = box_outline((0, 1, 0, 1, 0, 1))
        assert len(box.lines) == 12
        assert box.n_points == 8

    def test_plane_quad_validation(self):
        with pytest.raises(RenderingError):
            plane_quad(np.zeros(3), np.ones(3), np.ones(3), 1, 3)


class TestShading:
    def test_face_on_light_brighter_than_grazing(self):
        colors = np.ones((2, 3))
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        shaded = shade_colors(colors, normals, np.array([0.0, 0.0, 1.0]))
        assert shaded[0].mean() > shaded[1].mean()

    def test_double_sided(self):
        colors = np.ones((2, 3))
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        shaded = shade_colors(colors, normals, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(shaded[0], shaded[1])

    def test_ambient_floor(self):
        colors = np.ones((1, 3))
        normals = np.array([[1.0, 0.0, 0.0]])
        shaded = shade_colors(colors, normals, np.array([0.0, 0.0, 1.0]), ambient=0.35)
        np.testing.assert_allclose(shaded[0], 0.35, atol=1e-6)


class TestRasterizer:
    def test_triangle_fills_center(self, triangle, camera):
        fb = Framebuffer(50, 50, background=(0, 0, 0))
        drawn = rasterize([Actor(triangle, color=(1.0, 0.0, 0.0))], camera, fb)
        assert drawn > 50
        assert fb.color[25, 25, 0] > 0.0  # center covered
        assert fb.color[2, 2, 0] == 0.0  # corner background

    def test_depth_buffer_written(self, triangle, camera):
        fb = Framebuffer(30, 30)
        rasterize([Actor(triangle)], camera, fb)
        assert np.isfinite(fb.depth[15, 15])
        assert fb.depth[15, 15] == pytest.approx(5.0, abs=0.2)

    def test_nearer_triangle_occludes(self, camera):
        far = PolyData(
            np.array([[-1, -1, -1.0], [1, -1, -1.0], [0, 1, -1.0]]), np.array([[0, 1, 2]])
        )
        near = PolyData(
            np.array([[-1, -1, 1.0], [1, -1, 1.0], [0, 1, 1.0]]), np.array([[0, 1, 2]])
        )
        fb = Framebuffer(40, 40)
        rasterize([Actor(far, color=(1.0, 0.0, 0.0))], camera, fb)
        rasterize([Actor(near, color=(0.0, 1.0, 0.0))], camera, fb)
        np.testing.assert_allclose(fb.color[20, 20], [0, 1, 0], atol=1e-5)

    def test_vertex_colors_interpolated(self, camera):
        tri = PolyData(
            np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
            colors=np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]),
        )
        fb = Framebuffer(51, 51, background=(0, 0, 0))
        rasterize([Actor(tri)], camera, fb)
        center = fb.color[25, 25]
        assert center.min() > 0.05  # a mixture of all three vertex colors

    def test_lines_drawn(self, camera):
        line = PolyData(
            np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            lines=[np.array([0, 1])],
        )
        fb = Framebuffer(40, 40, background=(0, 0, 0))
        drawn = rasterize([Actor(line, line_color=(1.0, 1.0, 0.0))], camera, fb)
        assert drawn > 10
        assert fb.color[20, 20, 0] > 0.0

    def test_offscreen_geometry_cheap_noop(self, camera):
        tri = PolyData(
            np.array([[100.0, 100.0, 0.0], [101.0, 100.0, 0.0], [100.0, 101.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        fb = Framebuffer(20, 20)
        assert rasterize([Actor(tri)], camera, fb) == 0

    def test_empty_polydata(self, camera):
        fb = Framebuffer(10, 10)
        assert rasterize([Actor(PolyData(np.zeros((0, 3))))], camera, fb) == 0

    def test_behind_camera_culled(self):
        cam = Camera(position=(0, 0, 5), focal_point=(0, 0, 0))
        tri = PolyData(
            np.array([[-1.0, -1.0, 10.0], [1.0, -1.0, 10.0], [0.0, 1.0, 10.0]]),
            np.array([[0, 1, 2]]),
        )
        fb = Framebuffer(20, 20)
        assert rasterize([Actor(tri)], cam, fb) == 0
