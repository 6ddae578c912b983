"""A combined plot is one plot over one volume.

The :class:`CombinedPlot` owns the time step, the vertical exaggeration
and the translated volume of its primary's variable; a component over
that very variable that adds no array of its own draws that volume, so
a VolumeSlicer step translates once.  What the combination is told
about its step or its exaggeration is what every component draws.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.dv3d.cell import DV3DCell
from repro.dv3d.combined import CombinedPlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.view import View
from repro.dv3d.volume import VolumePlot


def _volume_slicer(ta):
    """The ``dv3d:VolumeSlicer`` module's plot."""
    return CombinedPlot([VolumePlot(ta), SlicerPlot(ta, enabled_planes=("z",))])


def _translations(recorder):
    return sum(1 for span in recorder.spans if span.name == "translation.translate")


def _same(a, b):
    return np.array_equal(a.color, b.color) and np.array_equal(a.depth, b.depth)


class TestOneVolume:
    def test_a_step_translates_once_and_an_open_derives_one_plan(self, ta):
        plot = _volume_slicer(ta)
        with obs.recording() as rec:
            View(64, 48).draw(plot)
        assert rec.counter_total("dv3d.plan.misses") == 1
        assert rec.counter_total("dv3d.plan.hits") == 0
        assert _translations(rec) == 1
        for step in (1, 2, 3):
            with obs.recording() as rec:
                View(64, 48, time_index=step).draw(plot)
            assert _translations(rec) == 1, step
            assert rec.counter_total("dv3d.plan.hits") == 1
            assert rec.counter_total("dv3d.plan.misses") == 0

    def test_a_t_key_through_a_cell_translates_once(self, ta):
        cell = DV3DCell(_volume_slicer(ta))
        cell.render(32, 24)
        for key in "tTT":
            with obs.recording() as rec:
                cell.handle_event("key", key=key)
                cell.render(32, 24)
            assert _translations(rec) == 1, key
            assert {c.time_index for c in cell.plot.components} == {cell.plot.time_index}

    def test_sharing_components_draw_the_combined_volume(self, ta):
        plot = _volume_slicer(ta)
        plot.set_time_index(2)
        assert all(c.volume is plot.volume for c in plot.components)
        # a component moved on its own still draws the combination's step
        plot.components[1].set_time_index(1)
        assert plot.components[1].volume is plot.volume

    def test_a_component_with_an_array_of_its_own_keeps_its_own_volume(self, reanalysis):
        ta, zg = reanalysis("ta"), reanalysis("zg")
        overlay = SlicerPlot(ta, overlay_variable=zg)
        coloured = IsosurfacePlot(ta, color_variable=zg)
        other = SlicerPlot(zg)
        plot = CombinedPlot([VolumePlot(ta), overlay, coloured, other])
        plot.set_time_index(1)
        for component in (overlay, coloured, other):
            assert component.volume is not plot.volume
            assert component.time_index == 1
        assert plot.components[0].volume is plot.volume
        assert overlay.volume.has_array(zg.id) and not plot.volume.has_array(zg.id)


class TestExaggeration:
    @pytest.mark.parametrize("through", ["apply_state", "configure"])
    def test_an_exaggeration_reaches_what_a_volume_slicer_draws(self, ta, through):
        cell = DV3DCell(_volume_slicer(ta))
        before = cell.render(64, 48)
        z_before = cell.plot.volume.bounds()[5]
        state = {"vertical_exaggeration": 0.5}
        if through == "apply_state":
            cell.plot.apply_state(state)
        else:
            assert cell.handle_event("configure", state={"plot": state}) != {}
        bare = VolumePlot(ta)
        bare.apply_state(state)
        assert cell.plot.volume.bounds() == bare.volume.bounds()
        assert cell.plot.volume.bounds()[5] != z_before
        assert [c.vertical_exaggeration for c in cell.plot.components] == [0.5, 0.5]
        after = cell.render(64, 48)
        assert not _same(after, before)
        fresh = DV3DCell(CombinedPlot([
            VolumePlot(ta, vertical_exaggeration=0.5),
            SlicerPlot(ta, enabled_planes=("z",)),
        ]))
        assert fresh.plot.vertical_exaggeration == 0.5  # the primary's, when not given
        assert _same(after, fresh.render(64, 48))

    def test_an_exaggeration_reaches_a_component_with_its_own_volume(self, reanalysis):
        overlay = SlicerPlot(reanalysis("ta"), overlay_variable=reanalysis("zg"))
        plot = CombinedPlot([VolumePlot(reanalysis("ta")), overlay])
        plot.set_vertical_exaggeration(2.0)
        assert overlay.vertical_exaggeration == 2.0
        assert overlay.volume.bounds() == plot.volume.bounds()


class TestOneTimeStep:
    def test_a_configure_leaves_every_component_at_the_combined_step(self, ta):
        cell = DV3DCell(_volume_slicer(ta))
        state = {"time_index": 2, "components": [{"time_index": 0}, {}]}
        assert cell.handle_event("configure", state={"plot": state}) != {}
        assert cell.plot.time_index == 2
        assert [c.time_index for c in cell.plot.components] == [2, 2]
        twin = DV3DCell(_volume_slicer(ta))
        twin.plot.set_time_index(2)
        assert _same(cell.render(48, 36), twin.render(48, 36))

    def test_a_component_state_alone_does_not_move_the_step(self, ta):
        plot = _volume_slicer(ta)
        plot.apply_state({"components": [{"time_index": 3, "vertical_exaggeration": 2.0}]})
        assert plot.time_index == 0
        assert [c.time_index for c in plot.components] == [0, 0]
        assert [c.vertical_exaggeration for c in plot.components] == [None, None]

    def test_the_camera_is_handed_to_every_component(self, ta):
        plot = _volume_slicer(ta)
        plot.handle_key("r")
        assert plot.camera is not None
        assert all(c.camera is plot.camera for c in plot.components)
        camera = plot.default_camera().orbit(20.0, 5.0)
        plot.apply_state({"camera": camera.state(), "components": [{"camera": None}]})
        assert all(c.camera is plot.camera for c in plot.components)


class TestRelease:
    def test_a_plot_goes_with_its_last_reference_without_the_cycle_collector(self, ta):
        """No plot holds itself, and a component holds its combined plot
        weakly: a released cell's volumes go at once, not at the next
        collection."""
        gc.disable()
        try:
            plots = [VolumePlot(ta), _volume_slicer(ta)]
            for plot in plots:
                View(32, 24).draw(plot)
            refs = [weakref.ref(plot) for plot in plots]
            refs += [weakref.ref(c) for c in plots[1].components]
            del plots, plot
            assert [ref() for ref in refs] == [None] * 4
        finally:
            gc.enable()

    def test_a_component_that_outlives_its_combined_plot_draws_its_own_volume(self, ta):
        volume = VolumePlot(ta)
        plot = CombinedPlot([volume])
        plot.set_time_index(2)
        assert volume.volume is plot.volume
        del plot
        gc.collect()
        assert volume.time_index == 2
        fresh = VolumePlot(ta)
        fresh.set_time_index(2)
        assert np.array_equal(volume.volume.get_array(ta.id), fresh.volume.get_array(ta.id),
                              equal_nan=True)
