"""Camera: transforms, navigation invariants, stereo, projection."""

import numpy as np
import pytest

from repro.rendering.camera import Camera
from repro.util.errors import RenderingError


@pytest.fixture()
def camera():
    return Camera(position=(0.0, 0.0, 10.0), focal_point=(0.0, 0.0, 0.0),
                  view_up=(0.0, 1.0, 0.0), fov_degrees=45.0)


class TestConstruction:
    def test_coincident_position_rejected(self):
        with pytest.raises(RenderingError):
            Camera(position=(0, 0, 0), focal_point=(0, 0, 0))

    def test_bad_fov(self):
        with pytest.raises(RenderingError):
            Camera(fov_degrees=0.5)

    def test_bad_clip_planes(self):
        with pytest.raises(RenderingError):
            Camera(near=1.0, far=0.5)


class TestBasis:
    def test_orthonormal(self, camera):
        right, up, forward = camera.basis()
        for v in (right, up, forward):
            assert np.linalg.norm(v) == pytest.approx(1.0)
        assert right @ up == pytest.approx(0.0, abs=1e-12)
        assert right @ forward == pytest.approx(0.0, abs=1e-12)
        assert up @ forward == pytest.approx(0.0, abs=1e-12)

    def test_view_space_handedness(self, camera):
        # convention: forward = cross(up, right); i.e. looking down -z of
        # the (right, up, cross(right, up)) frame, the OpenGL view-space way
        right, up, forward = camera.basis()
        np.testing.assert_allclose(np.cross(up, right), forward, atol=1e-12)

    def test_degenerate_up_recovered(self):
        cam = Camera(position=(0, 0, 10), focal_point=(0, 0, 0), view_up=(0, 0, 1))
        right, up, forward = cam.basis()
        assert np.isfinite(right).all()


class TestTransforms:
    def test_focal_point_projects_to_image_center(self, camera):
        projected = camera.project(np.array([[0.0, 0.0, 0.0]]), 200, 100)
        assert projected[0, 0] == pytest.approx(199 / 2, abs=0.6)
        assert projected[0, 1] == pytest.approx(99 / 2, abs=0.6)
        assert projected[0, 2] == pytest.approx(10.0)

    def test_point_right_of_focal_projects_right(self, camera):
        projected = camera.project(np.array([[1.0, 0.0, 0.0]]), 200, 100)
        assert projected[0, 0] > 100

    def test_point_above_projects_up(self, camera):
        projected = camera.project(np.array([[0.0, 1.0, 0.0]]), 200, 100)
        assert projected[0, 1] < 50  # pixel y grows downward

    def test_behind_camera_gives_nan(self, camera):
        ndc = camera.view_to_ndc(camera.world_to_view(np.array([[0.0, 0.0, 20.0]])))
        assert np.isnan(ndc[0, 0])

    def test_pixel_rays_unit_length(self, camera):
        _origins, dirs = camera.pixel_rays(8, 6)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_pixel_ray_is_its_row_of_pixel_rays(self, seed):
        rng = np.random.default_rng(seed)
        camera = Camera(position=tuple(rng.normal(scale=5.0, size=3) + (0.0, 0.0, 3.0)),
                        focal_point=tuple(rng.normal(size=3)),
                        view_up=tuple(rng.normal(size=3)),
                        fov_degrees=float(rng.uniform(10, 120)))
        width, height = [(1, 1), (7, 5), (64, 48), (640, 480), (33, 200), (200, 150),
                         (1, 90), (1024, 3)][seed]
        origins, dirs = camera.pixel_rays(width, height)
        pixels = [(0, 0), (width - 1, height - 1), (width // 2, height // 2)] + [
            (int(rng.integers(width)), int(rng.integers(height))) for _ in range(20)]
        for px, py in pixels:
            origin, direction = camera.pixel_ray(px, py, width, height)
            row = py * width + px
            assert origin.shape == direction.shape == (3,)
            assert origin.tobytes() == origins[row].tobytes()
            assert direction.tobytes() == dirs[row].tobytes()

    def test_center_ray_points_forward(self, camera):
        _o, dirs = camera.pixel_rays(9, 9)
        center = dirs[4 * 9 + 4]
        _, _, forward = camera.basis()
        assert center @ forward > 0.999


class TestNavigation:
    def test_orbit_preserves_distance(self, camera):
        moved = camera.orbit(30.0, 15.0)
        assert moved.distance == pytest.approx(camera.distance)
        assert moved.focal_point == camera.focal_point

    def test_orbit_360_returns_home(self, camera):
        moved = camera
        for _ in range(8):
            moved = moved.orbit(45.0, 0.0)
        np.testing.assert_allclose(moved.position, camera.position, atol=1e-9)

    def test_zoom_halves_distance(self, camera):
        assert camera.zoom(2.0).distance == pytest.approx(camera.distance / 2)

    def test_zoom_refuses_past_near_plane(self, camera):
        very_close = camera.zoom(1e9)
        assert very_close.distance == pytest.approx(camera.distance)

    def test_zoom_rejects_nonpositive(self, camera):
        with pytest.raises(RenderingError):
            camera.zoom(0.0)

    def test_pan_moves_both_points(self, camera):
        moved = camera.pan(1.0, 0.0)
        assert moved.distance == pytest.approx(camera.distance)
        delta = np.asarray(moved.focal_point) - np.asarray(camera.focal_point)
        assert np.linalg.norm(delta) == pytest.approx(1.0)

    def test_roll_preserves_view_direction(self, camera):
        rolled = camera.roll(90.0)
        _, _, f0 = camera.basis()
        _, _, f1 = rolled.basis()
        np.testing.assert_allclose(f0, f1, atol=1e-12)
        _, u0, _ = camera.basis()
        _, u1, _ = rolled.basis()
        assert abs(u0 @ u1) < 1e-9  # up rotated a quarter turn


class TestStereoAndFit:
    def test_stereo_pair_symmetric(self, camera):
        left, right = camera.stereo_pair(0.1)
        assert left.focal_point == right.focal_point == camera.focal_point
        offset = np.asarray(right.position) - np.asarray(left.position)
        assert np.linalg.norm(offset) == pytest.approx(camera.distance * 0.1)

    def test_fit_bounds_sees_whole_box(self):
        bounds = (0.0, 10.0, -5.0, 5.0, 0.0, 2.0)
        cam = Camera.fit_bounds(bounds)
        corners = np.array([
            [x, y, z]
            for x in bounds[0:2] for y in bounds[2:4] for z in bounds[4:6]
        ])
        projected = cam.project(corners, 100, 100)
        assert np.isfinite(projected).all()
        assert (projected[:, 0] >= -1).all() and (projected[:, 0] <= 100).all()
        assert (projected[:, 1] >= -1).all() and (projected[:, 1] <= 100).all()

    def test_state_roundtrip(self, camera):
        back = Camera.from_state(camera.state())
        assert back == camera
