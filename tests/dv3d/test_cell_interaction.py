"""DV3D cells (labels/basemap/colorbar/pick), interaction, animation."""

import numpy as np
import pytest

from repro.dv3d.animation import Animator
from repro.dv3d.basemap import basemap_polydata, coastline_segments
from repro.dv3d.cell import DV3DCell
from repro.dv3d.combined import CombinedPlot
from repro.dv3d.hovmoller import HovmollerSlicerPlot
from repro.dv3d.interaction import handle_drag, handle_key
from repro.dv3d.isosurface import IsosurfacePlot
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

    @pytest.mark.parametrize("dx", [float("nan"), float("inf")])
    def test_a_drag_by_no_finite_amount_is_refused(self, slicer_cell, dx):
        """It would leave the plot a camera of NaNs that every later frame draws through."""
        with pytest.raises(DV3DError, match="finite"):
            slicer_cell.handle_event("drag", dx=dx, mode="camera")
        assert slicer_cell.plot.camera is None

    @pytest.mark.parametrize("plot_state", [
        {"enabled_planes": ["w"]},
        {"enabled_planes": "xy"},
        {"enabled_planes": None},
        {"contour_count": "x"},
        {"contour_count": -3},
        {"contour_count": 2.5},
        {"plane_positions": {"x": "far"}},
        {"plane_positions": {"y": float("nan")}},
        {"plane_positions": {"z": float("inf")}},
        {"plane_positions": ["x", 0.3]},
        {"time_index": 1, "enabled_planes": ["x", "w"]},
    ])
    def test_a_slicer_configure_it_cannot_draw_is_refused(self, slicer_cell, plot_state):
        """Refused as the constructor refuses it: the cell answers ``{}``,
        keeps its state and keeps drawing."""
        before = slicer_cell.state()
        assert slicer_cell.handle_event("configure", state={"plot": plot_state}) == {}
        assert slicer_cell.state() == before
        slicer_cell.render(32, 24)

    def test_a_slicer_refuses_what_its_configure_refuses(self, ta):
        with pytest.raises(DV3DError):
            SlicerPlot(ta, enabled_planes="xy")
        with pytest.raises(DV3DError):
            SlicerPlot(ta, contour_count="x")

    @pytest.mark.parametrize("plot_state", [
        {"time_index": "x"},
        {"time_index": 1.5},
        {"scalar_range": ["a", 1]},
        {"scalar_range": [2.0, 1.0]},
        {"scalar_range": [0.0, float("inf")]},
        {"vertical_exaggeration": "big"},
        {"vertical_exaggeration": 0.0},
        {"tf_center": "x"},
        {"tf_center": float("nan")},
        {"tf_width": float("nan")},
        {"peak_opacity": float("inf")},
        {"color_window": [float("nan"), 1.0]},
        {"color_window": "x"},
        {"step_size": "x"},
        {"step_size": float("nan")},
        {"step_size": -1.0},
        {"colormap": {"name": "no-such-map"}},
        {"colormap": "x"},
        {"camera": {"position": "x"}},
        {"camera": {"position": [0, 0, 1], "focal_point": [0, 0, 1], "view_up": [0, 1, 0],
                    "fov_degrees": 30.0, "near": 0.01, "far": 100.0}},
        {"camera": {"position": [0, 0, float("nan")], "focal_point": [0, 0, 0],
                    "view_up": [0, 1, 0], "fov_degrees": 30.0, "near": 0.01, "far": 100.0}},
        {"time_index": 1, "tf_center": 0.2, "step_size": float("nan")},
    ])
    def test_a_volume_configure_it_cannot_draw_is_refused(self, ta, plot_state):
        """Refused before any of it applies: the cell answers ``{}``,
        keeps its state and keeps drawing."""
        cell = DV3DCell(VolumePlot(ta))
        before = cell.state()
        assert cell.handle_event("configure", state={"plot": plot_state}) == {}
        assert cell.state() == before
        cell.render(32, 24)

    @pytest.mark.parametrize("plot_state", [
        {"isovalue": "x"},
        {"isovalue": float("nan")},
        {"color_range": ["a", 1]},
        {"color_range": [1.0, 0.5]},
        {"color_range": [0.0, float("inf")]},
        {"color_range": "x"},
        {"time_index": 1, "isovalue": "x"},
    ])
    def test_an_isosurface_configure_it_cannot_draw_is_refused(self, reanalysis, plot_state):
        cell = DV3DCell(IsosurfacePlot(reanalysis("ta"), color_variable=reanalysis("zg")))
        before = cell.state()
        assert cell.handle_event("configure", state={"plot": plot_state}) == {}
        assert cell.state() == before
        cell.render(32, 24)

    @pytest.mark.parametrize("plot_state", [
        {"glyph_stride": "x"},
        {"glyph_stride": 0},
        {"glyph_stride": 2.5},
        {"seed_density": 0},
        {"seed_density": "x"},
        {"plane_position": "x"},
        {"plane_position": float("nan")},
        {"mode": "arrows"},
        {"mode": ["glyphs"]},
        {"time_index": 1, "glyph_stride": 0},
    ])
    def test_a_vector_slicer_configure_it_cannot_draw_is_refused(self, reanalysis, plot_state):
        cell = DV3DCell(VectorSlicerPlot(reanalysis("ua"), reanalysis("va")))
        before = cell.state()
        assert cell.handle_event("configure", state={"plot": plot_state}) == {}
        assert cell.state() == before
        cell.render(32, 24)

    @pytest.mark.parametrize("arguments", [
        {"glyph_stride": 0},
        {"glyph_stride": "x"},
        {"glyph_stride": 2.5},
        {"seed_density": 0},
        {"seed_density": "x"},
        {"mode": "arrows"},
        {"plane": "w"},
    ])
    def test_a_vector_slicer_it_cannot_draw_is_not_constructed(self, reanalysis, arguments):
        """The constructor's arguments are checked as a configure's are."""
        with pytest.raises(DV3DError):
            VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), **arguments)

    def test_a_vector_slicer_takes_its_constructor_arguments(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), mode="streamlines",
                                plane="x", glyph_stride=np.int64(3), seed_density=5)
        state = plot.state()
        assert (state["mode"], state["plane"], state["glyph_stride"], state["seed_density"]) \
            == ("streamlines", "x", 3, 5)
        assert type(state["glyph_stride"]) is int
        DV3DCell(plot).render(32, 24)

    def test_isosurface_and_vector_slicer_configures_they_can_draw_are_applied(self, reanalysis):
        iso = DV3DCell(IsosurfacePlot(reanalysis("ta"), color_variable=reanalysis("zg")))
        iso.handle_event("configure", state={"plot": {"isovalue": 250.0, "color_range": [1, 2]}})
        assert iso.plot.state()["color_range"] == [1.0, 2.0]
        vector = DV3DCell(VectorSlicerPlot(reanalysis("ua"), reanalysis("va")))
        delta = {"mode": "streamlines", "plane": "x", "plane_position": 0.25,
                 "glyph_stride": 2, "seed_density": 4}
        vector.handle_event("configure", state={"plot": delta})
        state = vector.plot.state()
        assert {key: state[key] for key in delta} == delta
        iso.render(32, 24)
        vector.render(32, 24)

    @pytest.mark.parametrize("plot_state", [
        {"level_index": "x"}, {"level_index": 0.5}, {"level_index": 99}, {"level_index": -99},
    ])
    def test_a_hovmoller_configure_it_cannot_draw_is_refused(self, ta, plot_state):
        cell = DV3DCell(HovmollerSlicerPlot(ta))
        before = cell.state()
        assert cell.handle_event("configure", state={"plot": plot_state}) == {}
        assert cell.state() == before
        cell.render(32, 24)

    def test_an_isosurface_coloured_by_a_constant_takes_its_own_state(self, reanalysis):
        """Its colour range is one value twice; the configure a sync group
        forwards from it is applied, not refused."""
        constant = reanalysis("zg").clone()
        constant.data[...] = 5.0
        cell = DV3DCell(IsosurfacePlot(reanalysis("ta"), color_variable=constant))
        state = dict(cell.plot.state(), time_index=1)
        assert state["color_range"] == [5.0, 5.0]
        assert cell.handle_event("configure", state={"plot": state}) != {}
        assert cell.plot.time_index == 1
        cell.render(32, 24)

    @pytest.mark.parametrize("components", [
        [{}, {"contour_count": "x"}],
        [{"tf_center": float("nan")}, {}],
        [{"step_size": "x"}],
        "x",
    ])
    def test_a_combined_configure_a_component_refuses_applies_nothing(self, ta, components):
        """The base plot's time step is not moved by a configure that a
        component refuses."""
        cell = DV3DCell(CombinedPlot([VolumePlot(ta), SlicerPlot(ta)]))
        before = cell.state()
        state = {"time_index": 2, "components": components}
        assert cell.handle_event("configure", state={"plot": state}) == {}
        assert cell.state() == before
        assert cell.plot.time_index == 0
        cell.render(32, 24)

    @pytest.mark.parametrize("components", [[{}, {"contour_count": 3}], [], [{}]])
    def test_a_combined_configure_moves_every_component_to_its_time_step(self, ta, components):
        """A component whose own state names no time step follows the
        combined plot's, as the cell draws and picks it."""
        cell = DV3DCell(CombinedPlot([VolumePlot(ta), SlicerPlot(ta)]))
        state = {"time_index": 2, "components": components}
        assert cell.handle_event("configure", state={"plot": state}) != {}
        assert cell.plot.time_index == 2
        assert [c.time_index for c in cell.plot.components] == [2, 2]
        assert [c["time_index"] for c in cell.plot.state()["components"]] == [2, 2]
        for component, sub in zip(cell.plot.components, components):
            assert sub.items() <= component.state().items()
        cell.render(32, 24)

    def test_a_volume_configure_it_can_draw_is_applied(self, ta):
        cell = DV3DCell(VolumePlot(ta))
        camera = cell.plot.default_camera().orbit(20.0, 10.0).state()
        delta = {"time_index": 1, "tf_center": 0.4, "step_size": 2.5,
                 "color_window": [0.1, 0.9], "vertical_exaggeration": 2.0,
                 "scalar_range": [200.0, 300.0], "camera": camera}
        assert cell.handle_event("configure", state={"plot": delta}) != {}
        state = cell.plot.state()
        for key, value in delta.items():
            assert state[key] == value, key
        cell.render(32, 24)

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
