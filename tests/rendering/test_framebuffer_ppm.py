"""Framebuffer depth semantics, blending, downsampling; PPM round-trips."""

import numpy as np
import pytest

from repro.rendering.framebuffer import Framebuffer
from repro.rendering.ppm import read_ppm, write_pgm, write_ppm
from repro.util.errors import RenderingError


class TestFramebuffer:
    def test_clear_state(self):
        fb = Framebuffer(4, 3, background=(0.5, 0.0, 0.0))
        np.testing.assert_allclose(fb.color[..., 0], 0.5)
        assert np.isinf(fb.depth).all()
        assert fb.coverage() == 0.0

    def test_bad_size(self):
        with pytest.raises(RenderingError):
            Framebuffer(0, 5)

    def test_depth_test_nearest_wins(self):
        fb = Framebuffer(2, 2)
        fb.write_pixels(np.array([0]), np.array([0]), np.array([5.0]),
                        np.array([[1.0, 0.0, 0.0]]))
        fb.write_pixels(np.array([0]), np.array([0]), np.array([2.0]),
                        np.array([[0.0, 1.0, 0.0]]))
        np.testing.assert_allclose(fb.color[0, 0], [0, 1, 0])
        # farther write rejected
        fb.write_pixels(np.array([0]), np.array([0]), np.array([3.0]),
                        np.array([[0.0, 0.0, 1.0]]))
        np.testing.assert_allclose(fb.color[0, 0], [0, 1, 0])

    def test_duplicates_within_call_resolve_nearest(self):
        fb = Framebuffer(2, 2)
        fb.write_pixels(
            np.array([1, 1]), np.array([1, 1]), np.array([4.0, 1.0]),
            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        )
        np.testing.assert_allclose(fb.color[1, 1], [0, 0, 1])
        assert fb.depth[1, 1] == pytest.approx(1.0)

    def test_out_of_bounds_clipped(self):
        fb = Framebuffer(2, 2)
        drawn = fb.write_pixels(
            np.array([-1, 5]), np.array([0, 0]), np.array([1.0, 1.0]),
            np.ones((2, 3)),
        )
        assert drawn == 0

    @pytest.mark.parametrize(
        "groups, depths, winner, passed",
        [
            # drawn one group after another: 5 then 3 pass, 3 ties (fails), 2 passes
            ([0, 0, 1, 2], [5.0, 3.0, 3.0, 2.0], 3, 3),
            ([0, 1], [3.0, 3.0], 0, 1),  # tie between groups: the earliest keeps the pixel
            ([0, 0], [3.0, 3.0], 1, 2),  # tie inside a group: the latest fragment wins
            ([0, 1, 2], [9.0, 2.0, 4.0], 1, 1),  # 9 loses to the incoming 7
        ],
    )
    def test_resolve_is_the_sequential_depth_test(self, groups, depths, winner, passed):
        fb = Framebuffer(3, 2)
        fb.depth[1, 2] = 7.0
        pixels = np.full(len(groups), 1 * 3 + 2)
        winners, count = fb.resolve(
            pixels, np.asarray(groups), np.asarray(depths, dtype=np.float32)
        )
        assert (winners.tolist(), count) == ([winner], passed)
        assert fb.depth[1, 2] == depths[winner]

    def test_from_arrays_needs_contiguous_buffers(self):
        color = np.zeros((4, 6, 3), dtype=np.float32)
        depth = np.zeros((4, 6), dtype=np.float32)
        assert Framebuffer.from_arrays(color, depth).width == 6
        with pytest.raises(RenderingError):
            Framebuffer.from_arrays(color[:, ::2], depth[:, ::2])

    def test_blend_image_alpha(self):
        fb = Framebuffer(2, 2, background=(0.0, 0.0, 0.0))
        rgba = np.zeros((2, 2, 4), dtype=np.float32)
        rgba[..., 0] = 1.0
        rgba[..., 3] = 0.5
        fb.blend_image(rgba)
        np.testing.assert_allclose(fb.color[..., 0], 0.5, atol=1e-6)

    def test_blend_image_shape_check(self):
        fb = Framebuffer(2, 2)
        with pytest.raises(RenderingError):
            fb.blend_image(np.zeros((3, 3, 4)))

    def test_blend_patch_clipping(self):
        fb = Framebuffer(4, 4, background=(0.0, 0.0, 0.0))
        patch = np.ones((3, 3, 4), dtype=np.float32)
        fb.blend_patch(-1, -1, patch)  # partially off-screen: no crash
        assert fb.color[0, 0, 0] == pytest.approx(1.0)
        assert fb.color[3, 3, 0] == pytest.approx(0.0)

    def test_to_uint8(self):
        fb = Framebuffer(1, 1, background=(1.0, 0.5, 0.0))
        img = fb.to_uint8()
        assert img.dtype == np.uint8
        assert tuple(img[0, 0]) == (255, 128, 0)

    def test_downsample_box_filter(self):
        fb = Framebuffer(4, 4, background=(0.0, 0.0, 0.0))
        fb.color[0:2, 0:2] = 1.0
        small = fb.downsample(2)
        assert small.shape == (2, 2, 3)
        assert small[0, 0, 0] == 255
        assert small[1, 1, 0] == 0

    def test_downsample_bad_factor(self):
        with pytest.raises(RenderingError):
            Framebuffer(4, 4).downsample(0)


class TestPPM:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_pgm_roundtrip(self, tmp_path):
        image = np.arange(20, dtype=np.uint8).reshape(4, 5)
        path = tmp_path / "x.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_write_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(RenderingError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3)))

    def test_framebuffer_save(self, tmp_path):
        fb = Framebuffer(3, 2, background=(0.0, 1.0, 0.0))
        path = tmp_path / "fb.ppm"
        fb.save(str(path))
        image = read_ppm(path)
        assert image.shape == (2, 3, 3)
        assert image[0, 0, 1] == 255
