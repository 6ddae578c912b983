"""DV3D cells (labels/basemap/colorbar/pick), interaction, animation."""

import numpy as np
import pytest

from repro.dv3d.animation import Animator
from repro.dv3d.basemap import basemap_polydata, coastline_segments
from repro.dv3d.cell import DV3DCell
from repro.dv3d.interaction import handle_drag, handle_key
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.util.errors import DV3DError


@pytest.fixture()
def slicer_cell(ta):
    return DV3DCell(SlicerPlot(ta), dataset_label="REANALYSIS")


class TestCell:
    def test_render_with_furnishings(self, slicer_cell):
        fb = slicer_cell.render(96, 72)
        assert fb.color.shape == (72, 96, 3)

    def test_labels_add_pixels(self, ta):
        bare = DV3DCell(SlicerPlot(ta), show_labels=False, show_colorbar=False,
                        show_basemap=False)
        dressed = DV3DCell(SlicerPlot(ta), show_labels=True, show_colorbar=True,
                           show_basemap=False)
        img_bare = bare.render(96, 72).to_uint8()
        img_dressed = dressed.render(96, 72).to_uint8()
        assert not np.array_equal(img_bare, img_dressed)

    def test_basemap_draws_coastlines(self, ta):
        with_map = DV3DCell(SlicerPlot(ta), show_basemap=True, show_labels=False,
                            show_colorbar=False)
        without = DV3DCell(SlicerPlot(ta), show_basemap=False, show_labels=False,
                           show_colorbar=False)
        assert not np.array_equal(
            with_map.render(96, 72).to_uint8(), without.render(96, 72).to_uint8()
        )

    def test_pick_display(self, slicer_cell):
        center = slicer_cell.plot.volume.center()
        result = slicer_cell.pick(center)
        assert slicer_cell.last_pick == result
        text = slicer_cell._pick_text()
        assert "PICK" in text

    def test_inactive_cell_ignores_events(self, slicer_cell):
        slicer_cell.deactivate()
        assert slicer_cell.handle_event("key", key="c") == {}
        slicer_cell.activate()
        assert slicer_cell.handle_event("key", key="c") != {}

    def test_configure_event(self, slicer_cell):
        slicer_cell.handle_event("configure", state={"plot": {"time_index": 2}})
        assert slicer_cell.plot.time_index == 2

    def test_unknown_event(self, slicer_cell):
        with pytest.raises(DV3DError):
            slicer_cell.handle_event("teleport")

    def test_state_roundtrip(self, slicer_cell):
        slicer_cell.plot.step_time()
        state = slicer_cell.state()
        other = DV3DCell(SlicerPlot(slicer_cell.plot.variable))
        other.apply_state(state)
        assert other.state() == state


class TestInteraction:
    def test_key_c_cycles_colormap(self, ta):
        plot = SlicerPlot(ta)
        before = plot.colormap.name
        delta = handle_key(plot, "c")
        assert delta["colormap"]["name"] != before

    def test_key_t_steps_time(self, ta):
        plot = SlicerPlot(ta)
        assert handle_key(plot, "t") == {"time_index": 1}
        assert handle_key(plot, "T") == {"time_index": 0}

    def test_key_r_resets_camera(self, ta):
        plot = SlicerPlot(ta)
        plot.camera = plot.default_camera().orbit(90, 0)
        delta = handle_key(plot, "r")
        assert "camera" in delta

    def test_key_toggles_planes(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("x", "y", "z"))
        delta = handle_key(plot, "x")
        assert delta["toggled"] == {"x": False}

    def test_unbound_key(self, ta):
        with pytest.raises(DV3DError):
            handle_key(SlicerPlot(ta), "q")

    def test_mode_key_only_on_vector(self, ta):
        with pytest.raises(DV3DError):
            handle_key(SlicerPlot(ta), "m")

    def test_drag_camera_orbits(self, ta):
        plot = SlicerPlot(ta)
        delta = handle_drag(plot, 0.25, 0.0, "camera")
        assert plot.camera is not None
        assert "camera" in delta

    def test_drag_zoom(self, ta):
        plot = SlicerPlot(ta)
        base = plot.default_camera()
        plot.camera = base
        handle_drag(plot, 0.0, 1.0, "zoom")  # factor 2
        assert plot.camera.distance == pytest.approx(base.distance / 2)

    def test_drag_leveling_on_volume(self, ta):
        plot = VolumePlot(ta, center=0.5, width=0.2)
        delta = handle_drag(plot, 0.1, 0.0, "leveling")
        assert delta["tf_center"] == pytest.approx(0.6)

    def test_drag_leveling_rejected_on_slicer(self, ta):
        with pytest.raises(DV3DError):
            handle_drag(SlicerPlot(ta), 0.1, 0.0, "leveling")

    def test_drag_slice_mode(self, ta):
        plot = SlicerPlot(ta)
        delta = handle_drag(plot, 0.0, 0.25, "slice:z")
        assert delta["plane_positions"]["z"] == pytest.approx(0.5)

    def test_unknown_mode(self, ta):
        with pytest.raises(DV3DError):
            handle_drag(SlicerPlot(ta), 0, 0, "warp")

    def test_slice_mode_must_name_a_plane_only_on_the_multi_plane_slicer(
            self, ta, reanalysis):
        """A slice drag the plot cannot take is a DV3DError (which a cell
        ignores), not a TypeError from the wrong ``drag_slice``."""
        vector = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"))
        with pytest.raises(DV3DError):
            handle_drag(vector, 0.0, 0.1, "slice:z")
        with pytest.raises(DV3DError):
            handle_drag(SlicerPlot(ta), 0.0, 0.1, "slice")
        assert DV3DCell(vector).handle_event("drag", dy=0.1, mode="slice:z") == {}


class TestAnimator:
    def test_frames_cover_time_axis(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        frames = Animator(plot).render_frames(width=32, height=24)
        assert len(frames) == 4
        assert frames[0].shape == (24, 32, 3)
        # successive frames differ (the data changes with time)
        assert not np.array_equal(frames[0], frames[1])

    def test_time_index_restored(self, ta):
        plot = SlicerPlot(ta)
        plot.set_time_index(2)
        Animator(plot).render_frames(width=16, height=12, count=2)
        assert plot.time_index == 2

    def test_stride_and_count(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        frames = Animator(plot).render_frames(width=16, height=12, count=2, stride=2)
        assert len(frames) == 2

    def test_save_frames(self, ta, tmp_path):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        paths = Animator(plot).save_frames(tmp_path, width=16, height=12, count=2)
        assert len(paths) == 2
        assert all(p.exists() for p in paths)

    def test_camera_fixed_across_frames(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        animator = Animator(plot)
        frames = animator.render_frames(width=24, height=18)
        # frame border columns (background + frame box) are stable
        np.testing.assert_array_equal(frames[0][:, 0], frames[1][:, 0])

    def test_cell_animation_includes_labels(self, slicer_cell):
        frames = Animator(slicer_cell).render_frames(width=48, height=36, count=2)
        assert len(frames) == 2


class TestBasemap:
    def test_global_coastlines_nonempty(self):
        segments = coastline_segments()
        assert len(segments) >= 6
        for seg in segments:
            assert seg.shape[1] == 2

    def test_regional_clipping(self):
        pacific = coastline_segments((120.0, 180.0), (5.0, 45.0))
        for seg in pacific:
            assert seg[:, 0].min() >= 120.0 and seg[:, 0].max() <= 180.0
            assert seg[:, 1].min() >= 5.0 and seg[:, 1].max() <= 45.0

    def test_empty_window(self):
        assert coastline_segments((10.0, 11.0), (-1.0, 0.0)) == []

    def test_polydata_below_volume(self, ta):
        from repro.dv3d.translation import translate_variable

        bounds = translate_variable(ta).bounds()
        poly = basemap_polydata(bounds)
        assert poly.n_points > 0
        assert poly.points[:, 2].max() < bounds[4]
