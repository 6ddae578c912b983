"""The DV3D plot types: construction, interaction ops, state, rendering."""

import numpy as np
import pytest

from repro.cdms.axis import time_axis, uniform_latitude, uniform_longitude
from repro.cdms.variable import Variable
from repro.dv3d.hovmoller import HovmollerSlicerPlot, HovmollerVolumePlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.view import View
from repro.dv3d.volume import VolumePlot
from repro.rendering.camera import Camera
from repro.util.errors import DV3DError


class TestPlotBase:
    def test_scalar_range_covers_all_time(self, ta):
        plot = SlicerPlot(ta)
        lo, hi = plot.scalar_range
        assert lo <= float(ta.min()) + 1e-5
        assert hi >= float(ta.max()) - 1e-5

    def test_animation_steps_and_wraps(self, ta):
        plot = SlicerPlot(ta)
        assert plot.n_timesteps == 4
        assert plot.step_time(+1) == 1
        plot.set_time_index(3)
        assert plot.step_time(+1) == 0
        assert plot.step_time(-1) == 3

    def test_time_step_rebuilds_volume(self, ta):
        plot = SlicerPlot(ta)
        v0 = plot.volume
        plot.step_time()
        assert plot.volume is not v0

    def test_colormap_cycle_and_invert(self, ta):
        plot = SlicerPlot(ta)
        original = plot.colormap.name
        new_name = plot.cycle_colormap()
        assert new_name != original
        assert plot.invert_colormap() is True

    def test_pick_returns_value_and_coords(self, ta):
        plot = SlicerPlot(ta)
        center = plot.volume.center()
        result = plot.pick(center)
        assert np.isfinite(result["value"])
        assert result["longitude"] == pytest.approx(center[0])

    def test_pick_ray_hits_volume(self, ta):
        plot = SlicerPlot(ta)
        result = plot.pick_ray(20, 15, 40, 30)
        assert result is not None
        assert np.isfinite(result["value"])

    @pytest.mark.parametrize("px, py", [(-20, 16), (60, 14), (40, 0), (0, 30), (5, -1)])
    def test_pick_ray_refuses_a_pixel_outside_the_view(self, ta, px, py):
        # (-20, 16) and (60, 14) have the flat index of pixel (20, 15)
        plot = SlicerPlot(ta)
        with pytest.raises(DV3DError, match="outside 40x30"):
            plot.pick_ray(px, py, 40, 30)

    def test_pick_ray_builds_only_its_own_ray(self, ta, monkeypatch):
        plot = SlicerPlot(ta)
        calls = []
        pixel_rays = Camera.pixel_rays
        monkeypatch.setattr(Camera, "pixel_rays",
                            lambda *args: calls.append(1) or pixel_rays(*args))
        assert plot.pick_ray(20, 15, 40, 30) is not None
        assert plot.pick_ray(320, 240, 640, 480) is not None
        assert calls == []

    def test_pick_ray_corner_misses(self, ta):
        plot = SlicerPlot(ta)
        result = plot.pick_ray(0, 0, 100, 100)
        assert result is None or np.isfinite(result["value"])

    def test_state_roundtrip_via_apply(self, ta):
        plot = SlicerPlot(ta)
        plot.step_time()
        plot.cycle_colormap()
        plot.camera = plot.default_camera().orbit(30, 10)
        other = SlicerPlot(ta)
        other.apply_state(plot.state())
        assert other.state() == plot.state()

    def test_bad_scalar_range(self, ta):
        plot = SlicerPlot(ta)
        with pytest.raises(DV3DError):
            plot.set_scalar_range(5.0, 5.0)


class TestSlicer:
    def test_render_covers_pixels(self, ta):
        fb = SlicerPlot(ta).render(64, 48)
        assert fb.coverage() > 0.02

    def test_drag_slice_clamps(self, ta):
        plot = SlicerPlot(ta)
        assert plot.drag_slice("z", +2.0) == 1.0
        assert plot.drag_slice("z", -5.0) == 0.0

    def test_drag_changes_rendered_slice(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        img_a = plot.render(48, 36).to_uint8()
        plot.drag_slice("z", 0.5)
        img_b = plot.render(48, 36).to_uint8()
        assert not np.array_equal(img_a, img_b)

    def test_toggle_plane(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("x", "y"))
        assert plot.toggle_plane("x") is False
        assert plot.enabled_planes == ("y",)
        assert plot.toggle_plane("z") is True
        assert "z" in plot.enabled_planes

    def test_unknown_plane(self, ta):
        with pytest.raises(DV3DError):
            SlicerPlot(ta).drag_slice("w", 0.1)

    def test_probe_on_plane(self, ta):
        plot = SlicerPlot(ta)
        result = plot.probe("z", 0.5, 0.5)
        assert np.isfinite(result["value"])

    def test_contour_overlay_adds_actor(self, reanalysis):
        plain = SlicerPlot(reanalysis("ta"), enabled_planes=("z",))
        overlaid = SlicerPlot(
            reanalysis("ta"), overlay_variable=reanalysis("zg"), enabled_planes=("z",)
        )
        assert len(overlaid.build_scene().actors) > len(plain.build_scene().actors)

    def test_scene_contains_frame(self, ta):
        scene = SlicerPlot(ta).build_scene()
        assert any(a.name == "frame" for a in scene.actors)


class TestVolume:
    def test_leveling_moves_window(self, ta):
        plot = VolumePlot(ta, center=0.5, width=0.2)
        delta = plot.level(0.1, 0.0)
        assert delta["center"] == pytest.approx(0.6)

    def test_leveling_changes_render(self, ta):
        plot = VolumePlot(ta, center=0.7, width=0.3)
        img_a = plot.render(32, 24).to_uint8()
        plot.level(-0.5, 1.5)
        img_b = plot.render(32, 24).to_uint8()
        assert not np.array_equal(img_a, img_b)

    def test_colormap_cycle_updates_transfer(self, ta):
        plot = VolumePlot(ta)
        plot.cycle_colormap()
        assert plot.transfer.colormap.name == plot.colormap.name

    def test_state_roundtrip(self, ta):
        plot = VolumePlot(ta)
        plot.level(0.12, 0.5)
        other = VolumePlot(ta)
        other.apply_state(plot.state())
        assert other.transfer.center == pytest.approx(plot.transfer.center)
        assert other.transfer.width == pytest.approx(plot.transfer.width)

    def test_a_lit_single_level_field_draws(self):
        """A one-level field has no derivative along z: its gradient's z
        component is 0 (``np.gradient`` refused the axis, so every lit
        draw raised), and it draws as the unlit plot does."""
        rng = np.random.default_rng(3)
        axes = (time_axis(np.arange(2) * 30.0), uniform_latitude(8), uniform_longitude(12))
        variable = Variable(np.ma.MaskedArray(rng.normal(280.0, 10.0, size=(2, 8, 12))),
                            axes, id="ts", units="K")
        lit = View(width=32, height=24).draw(VolumePlot(variable))
        unlit = View(width=32, height=24).draw(VolumePlot(variable, lighting=False))
        assert np.array_equal(lit.to_uint8(), unlit.to_uint8())

    def test_scene_has_volume_actor(self, ta):
        scene = VolumePlot(ta).build_scene()
        assert len(scene.volume_actors) == 1


class TestIsosurface:
    def test_default_isovalue_mid_range(self, storm):
        plot = IsosurfacePlot(storm("wspd"))
        lo, hi = plot.scalar_range
        assert plot.isovalue == pytest.approx((lo + hi) / 2)

    def test_extract_surface_nonempty(self, storm):
        # the storm peaks mid-track; at t=2 the field exceeds the
        # (whole-series) mid-range default isovalue
        plot = IsosurfacePlot(storm("wspd"))
        plot.set_time_index(2)
        surface = plot.extract_surface()
        assert surface.n_triangles > 0

    def test_adjust_isovalue_changes_surface(self, storm):
        plot = IsosurfacePlot(storm("wspd"))
        plot.set_time_index(2)
        area_mid = plot.extract_surface().surface_area()
        plot.adjust_isovalue(+0.2)
        area_high = plot.extract_surface().surface_area()
        assert area_high != pytest.approx(area_mid)

    def test_isovalue_clamped(self, storm):
        plot = IsosurfacePlot(storm("wspd"))
        lo, hi = plot.scalar_range
        assert plot.set_isovalue(hi + 100) == hi

    def test_colored_by_second_variable(self, storm):
        plot = IsosurfacePlot(storm("wspd"), color_variable=storm("tcore"))
        plot.set_time_index(2)
        surface = plot.extract_surface()
        assert surface.colors is not None
        # colors vary across the surface (tcore is not constant there)
        assert np.ptp(surface.colors, axis=0).max() > 0.01

    def test_render(self, storm):
        fb = IsosurfacePlot(storm("wspd")).render(48, 36)
        assert fb.coverage() > 0.01


class TestHovmoller:
    def test_slicer_defaults_to_latitude_plane(self, waves):
        plot = HovmollerSlicerPlot(waves("olr_anom"))
        assert plot.enabled_planes == ("y",)

    def test_no_animation_axis(self, waves):
        plot = HovmollerSlicerPlot(waves("olr_anom"))
        assert plot.n_timesteps == 1

    def test_diagram_shape(self, waves):
        plot = HovmollerSlicerPlot(waves("olr_anom"))
        values, lons, times = plot.diagram(latitude=0.0)
        assert values.shape == (48, 40)  # (lon, time)
        assert lons.shape == (48,)

    def test_diagram_shows_propagation(self, waves):
        plot = HovmollerSlicerPlot(waves("olr_anom"))
        values, _, _ = plot.diagram(0.0)
        # crest longitude at t=0 vs later: phase moves
        c0 = int(np.argmax(values[:, 0]))
        c5 = int(np.argmax(values[:, 10]))
        assert c0 != c5

    def test_requires_time_axis(self, reanalysis):
        static = reanalysis("ta")[0].squeeze()
        with pytest.raises(DV3DError):
            HovmollerSlicerPlot(static)

    def test_volume_variant_renders(self, waves):
        plot = HovmollerVolumePlot(waves("olr_anom"), center=0.8, width=0.3)
        fb = plot.render(32, 24)
        assert fb.color.shape == (24, 32, 3)


class TestVectorSlicer:
    def test_glyph_mode_builds_lines(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), glyph_stride=6)
        geometry = plot._field_geometry()
        assert len(geometry.lines) > 0

    def test_streamline_mode(self, reanalysis):
        plot = VectorSlicerPlot(
            reanalysis("ua"), reanalysis("va"), mode="streamlines", seed_density=4
        )
        geometry = plot._field_geometry()
        assert geometry.n_points > 0

    def test_toggle_mode(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"))
        assert plot.toggle_mode() == "streamlines"
        assert plot.toggle_mode() == "glyphs"

    def test_bad_mode(self, reanalysis):
        with pytest.raises(DV3DError):
            VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), mode="arrows")

    def test_drag_slice(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"))
        assert plot.drag_slice(0.3) == pytest.approx(0.8)

    def test_pick_vector(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"))
        result = plot.pick_vector(plot.volume.center())
        assert result["speed"] == pytest.approx(
            np.hypot(result["u"], result["v"]), rel=1e-6
        )

    def test_render(self, reanalysis):
        fb = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), glyph_stride=8).render(40, 30)
        assert fb.coverage() > 0.0

    def test_state_includes_mode(self, reanalysis):
        plot = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"))
        state = plot.state()
        assert state["mode"] == "glyphs"
        plot2 = VectorSlicerPlot(reanalysis("ua"), reanalysis("va"), mode="streamlines")
        plot2.apply_state(state)
        assert plot2.mode == "glyphs"
