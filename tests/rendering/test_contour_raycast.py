"""Marching squares and the volume ray caster."""

import numpy as np
import pytest

from repro.rendering.camera import Camera
from repro.rendering.contour2d import contour_levels, marching_squares
from repro.rendering.image_data import ImageData
from repro.rendering.raycast import _ray_box_intersection, raycast_volume
from repro.rendering.transfer_function import TransferFunction
from repro.util.errors import RenderingError


class TestMarchingSquares:
    def test_circle_contour_radius(self):
        n = 64
        x = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        segments = marching_squares(np.sqrt(X**2 + Y**2), 0.5, x, x)
        assert segments
        pts = np.concatenate(segments)
        radii = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(radii, 0.5, atol=0.03)

    def test_total_length_matches_circumference(self):
        n = 96
        x = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(x, x, indexing="ij")
        segments = marching_squares(np.sqrt(X**2 + Y**2), 0.6, x, x)
        length = sum(np.linalg.norm(s[1] - s[0]) for s in segments)
        assert length == pytest.approx(2 * np.pi * 0.6, rel=0.02)

    def test_constant_field_no_contours(self):
        assert marching_squares(np.ones((8, 8)), 0.5) == []

    def test_level_outside_range(self):
        field = np.random.default_rng(0).random((8, 8))
        assert marching_squares(field, 99.0) == []

    def test_nan_cells_skipped(self):
        field = np.ones((6, 6))
        field[3:, :] = 0.0
        field[0, 0] = np.nan
        segments = marching_squares(field, 0.5)
        # contour exists but avoids the NaN corner cell
        assert segments
        for seg in segments:
            assert not (seg[:, 0] < 1.0).all() or not (seg[:, 1] < 1.0).all()

    def test_saddle_cells_resolve(self):
        # checkerboard 2x2 produces the saddle configuration
        field = np.array([[1.0, 0.0], [0.0, 1.0]])
        segments = marching_squares(field, 0.5)
        assert len(segments) == 2

    def test_coordinate_mapping(self):
        field = np.array([[0.0, 0.0], [1.0, 1.0]])
        segments = marching_squares(field, 0.5, [10.0, 20.0], [0.0, 1.0])
        np.testing.assert_allclose([s[0][0] for s in segments], 15.0)

    def test_requires_2d(self):
        with pytest.raises(RenderingError):
            marching_squares(np.zeros(5), 0.0)

    def test_contour_levels_inside_range(self):
        field = np.linspace(0, 10, 100).reshape(10, 10)
        levels = contour_levels(field, 5)
        assert len(levels) == 5
        assert levels.min() > 0.0 and levels.max() < 10.0


@pytest.fixture()
def blob_volume():
    """A dense ball in the middle of a transparent volume."""
    n = 24
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("density", np.exp(-4 * (X**2 + Y**2 + Z**2)))
    return vol


class TestRayBoxIntersection:
    def test_hit_through_center(self):
        origins = np.array([[0.0, 0.0, -5.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = _ray_box_intersection(origins, dirs, (-1, 1, -1, 1, -1, 1))
        assert t0[0] == pytest.approx(4.0)
        assert t1[0] == pytest.approx(6.0)

    def test_miss(self):
        origins = np.array([[5.0, 5.0, -5.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = _ray_box_intersection(origins, dirs, (-1, 1, -1, 1, -1, 1))
        assert t0[0] > t1[0]

    def test_parallel_ray_inside_slab(self):
        origins = np.array([[0.0, 0.0, 0.0]])
        dirs = np.array([[1.0, 0.0, 0.0]])
        t0, t1 = _ray_box_intersection(origins, dirs, (-1, 1, -1, 1, -1, 1))
        assert t0[0] < t1[0]

    def test_origin_inside_box(self):
        origins = np.array([[0.0, 0.0, 0.0]])
        dirs = np.array([[0.0, 0.0, 1.0]])
        t0, t1 = _ray_box_intersection(origins, dirs, (-1, 1, -1, 1, -1, 1))
        assert t1[0] == pytest.approx(1.0)


class TestRaycast:
    def _camera(self, vol):
        return Camera.fit_bounds(vol.bounds())

    def test_output_shape_and_range(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range(), center=0.8, width=0.5)
        rgba = raycast_volume(blob_volume, tf, self._camera(blob_volume), 32, 24)
        assert rgba.shape == (24, 32, 4)
        assert rgba.min() >= 0.0 and rgba.max() <= 1.0

    def test_center_opaque_corners_transparent(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range(), center=0.9, width=0.4,
                              peak_opacity=1.0)
        rgba = raycast_volume(blob_volume, tf, self._camera(blob_volume), 33, 33)
        assert rgba[16, 16, 3] > 0.5
        assert rgba[0, 0, 3] < 0.05

    def test_empty_transfer_function_transparent(self, blob_volume):
        # a window placed above the data range → nothing maps to opacity
        tf = TransferFunction((10.0, 20.0), center=0.5, width=0.2)
        rgba = raycast_volume(blob_volume, tf, self._camera(blob_volume), 16, 16)
        assert rgba[..., 3].max() == pytest.approx(0.0, abs=1e-5)

    def test_depth_limit_occludes(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range(), center=0.9, width=0.4,
                              peak_opacity=1.0)
        cam = self._camera(blob_volume)
        # geometry right at the camera: everything occluded
        depth = np.full((16, 16), 1e-6, dtype=np.float32)
        rgba = raycast_volume(blob_volume, tf, cam, 16, 16, depth_limit=depth)
        assert rgba[..., 3].max() == pytest.approx(0.0, abs=1e-5)

    def test_step_size_convergence(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range(), center=0.8, width=0.5)
        cam = self._camera(blob_volume)
        fine = raycast_volume(blob_volume, tf, cam, 16, 16, step_size=0.02)
        coarse = raycast_volume(blob_volume, tf, cam, 16, 16, step_size=0.04)
        # opacity correction keeps results close across step sizes
        assert np.abs(fine[..., 3] - coarse[..., 3]).mean() < 0.05

    def test_lighting_changes_colors_not_alpha(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range(), center=0.8, width=0.5)
        cam = self._camera(blob_volume)
        lit = raycast_volume(blob_volume, tf, cam, 16, 16, lighting=True)
        unlit = raycast_volume(blob_volume, tf, cam, 16, 16, lighting=False)
        np.testing.assert_allclose(lit[..., 3], unlit[..., 3], atol=1e-6)
        assert np.abs(lit[..., :3] - unlit[..., :3]).max() > 0.01

    def test_bad_step_size(self, blob_volume):
        tf = TransferFunction(blob_volume.scalar_range())
        with pytest.raises(RenderingError):
            raycast_volume(blob_volume, tf, self._camera(blob_volume), 8, 8, step_size=-1.0)
