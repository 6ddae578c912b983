"""Stereo composition and axis annotations."""

import numpy as np
import pytest

from repro.rendering.annotation import axis_annotations, nice_ticks, project_labels
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.stereo import anaglyph, interlaced, side_by_side
from repro.util.errors import RenderingError


def frame(value, h=10, w=12):
    fb = Framebuffer(w, h, background=(value, value, value))
    return fb


class TestStereoComposition:
    def test_anaglyph_channels(self):
        left = frame(1.0)
        right = frame(0.0)
        out = anaglyph(left, right)
        assert out[0, 0, 0] == 255  # left luminance in red
        assert out[0, 0, 1] == 0 and out[0, 0, 2] == 0  # right in cyan

    def test_anaglyph_accepts_uint8(self):
        left = np.full((4, 4, 3), 255, dtype=np.uint8)
        right = np.zeros((4, 4, 3), dtype=np.uint8)
        out = anaglyph(left, right)
        assert out.dtype == np.uint8

    def test_shape_mismatch(self):
        with pytest.raises(RenderingError):
            anaglyph(frame(0.5), frame(0.5, h=11))

    def test_side_by_side_dimensions(self):
        out = side_by_side(frame(0.2), frame(0.8), gap=4)
        assert out.shape == (10, 12 + 4 + 12, 3)
        assert out[0, 12 + 2, 0] == 0  # the gap is black

    def test_interlaced_rows(self):
        out = interlaced(frame(1.0), frame(0.0))
        assert out[0, 0, 0] == 255  # even row: left
        assert out[1, 0, 0] == 0  # odd row: right

    def test_stereo_pipeline_end_to_end(self, reanalysis):
        """A real stereo pair composes into a frame with parallax."""
        from repro.dv3d.isosurface import IsosurfacePlot
        from repro.rendering.scene import Renderer

        plot = IsosurfacePlot(reanalysis("ta"))
        left, right = Renderer(64, 48).render_stereo(
            plot.build_scene(), plot.default_camera(), eye_separation=0.1
        )
        composite = anaglyph(left, right)
        assert composite.shape == (48, 64, 3)
        assert not np.array_equal(left.to_uint8(), right.to_uint8())


class TestNiceTicks:
    def test_covers_range(self):
        ticks = nice_ticks(0.0, 100.0)
        assert ticks.min() >= 0.0 and ticks.max() <= 100.0
        assert len(ticks) >= 3

    def test_round_values(self):
        ticks = nice_ticks(-87.3, 91.6, target_count=5)
        steps = np.diff(ticks)
        assert np.allclose(steps, steps[0])
        # step is from the 1-2-5 ladder
        mantissa = steps[0] / 10 ** np.floor(np.log10(steps[0]))
        assert round(mantissa, 6) in (1.0, 2.0, 5.0)

    def test_small_range(self):
        ticks = nice_ticks(0.001, 0.009)
        assert len(ticks) >= 2

    def test_bad_range(self):
        with pytest.raises(RenderingError):
            nice_ticks(5.0, 5.0)


class TestAxisAnnotations:
    BOUNDS = (0.0, 360.0, -90.0, 90.0, 0.0, 30.0)

    def test_ticks_and_labels_generated(self):
        ticks, labels = axis_annotations(self.BOUNDS)
        assert ticks.n_points > 0
        assert len(ticks.lines) == len(labels)

    def test_geo_formatting(self):
        _, labels = axis_annotations(self.BOUNDS)
        texts = {l.text for l in labels}
        assert "EQ" in texts
        assert any(t.endswith("N") for t in texts)
        assert any(t.endswith("E") or t.endswith("W") or t in ("0", "180") for t in texts)

    def test_ticks_outside_box(self):
        ticks, _ = axis_annotations(self.BOUNDS)
        # tick endpoints extend below ymin or left of xmin
        assert ticks.points[:, 1].min() < self.BOUNDS[2] or ticks.points[:, 0].min() < self.BOUNDS[0]

    def test_project_labels_on_screen(self):
        _, labels = axis_annotations(self.BOUNDS)
        camera = Camera.fit_bounds(self.BOUNDS)
        placements = project_labels(labels, camera, 200, 150)
        assert placements
        for _text, row, col in placements:
            assert -50 <= col <= 250 and -20 <= row <= 170

    def test_degenerate_bounds(self):
        with pytest.raises(RenderingError):
            axis_annotations((0.0, 0.0, 0.0, 1.0, 0.0, 1.0))

    def test_cell_renders_with_axes(self, ta):
        from repro.dv3d.cell import DV3DCell
        from repro.dv3d.slicer import SlicerPlot

        with_axes = DV3DCell(SlicerPlot(ta), show_axes=True, show_labels=False,
                             show_colorbar=False, show_basemap=False)
        without = DV3DCell(SlicerPlot(ta), show_axes=False, show_labels=False,
                           show_colorbar=False, show_basemap=False)
        assert not np.array_equal(
            with_axes.render(120, 90).to_uint8(), without.render(120, 90).to_uint8()
        )
