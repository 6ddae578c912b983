"""What a time step keeps: the translation plans, the slice-plane
geometry and the frame outline, their projections and line fragments,
and the cell's text.

A warm step derives no plan, builds one ``Variable`` per translated
variable (its slab read) and lays out no slice plane or outline; and
whatever it keeps is what a fresh plot in the same state would build,
bit for bit, after every change that moves the grid or the planes.  It
projects only geometry it made anew (an isosurface's surface) and
letters only its new ``T=`` label; an orbit or a resize projects
everything again, and the cell's text store holds the last frame's.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np
import pytest

from repro.cdms.variable import Variable
from repro.dv3d import cell as cell_module
from repro.dv3d import plot as plot_module
from repro.dv3d import slicer as slicer_module
from repro.dv3d import translation
from repro.dv3d.cell import DV3DCell
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.view import View
from repro.dv3d.volume import VolumePlot
from repro.rendering.annotation import project_labels
from repro.rendering.camera import Camera
from repro.rendering.scene import Scene


def _counted(monkeypatch, owner: Any, name: str) -> List[int]:
    """Count the calls of ``owner.name`` (the attribute's own binding)."""
    calls: List[int] = []
    original = getattr(owner, name)

    def counted(*args: Any, **kwargs: Any) -> Any:
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


PLOTS = {
    "slicer": (lambda ds: SlicerPlot(ds("ta")), 1),
    "slicer with overlay": (lambda ds: SlicerPlot(ds("ta"), overlay_variable=ds("zg")), 2),
    "isosurface": (lambda ds: IsosurfacePlot(ds("ta"), color_variable=ds("zg")), 2),
}


@pytest.mark.parametrize("kind", sorted(PLOTS))
def test_a_warm_time_step_translates_its_data_not_its_grid(reanalysis, monkeypatch, kind):
    factory, translated = PLOTS[kind]
    cell = DV3DCell(factory(reanalysis), show_basemap=True)
    view = View(64, 48)
    view.draw(cell)
    cell.plot.step_time()
    view.draw(cell)  # warm: one step taken
    plans = _counted(monkeypatch, translation.TranslationPlan, "__init__")
    variables = _counted(monkeypatch, Variable, "__init__")
    planes = _counted(monkeypatch, slicer_module, "slice_plane_geometry")
    outlines = _counted(monkeypatch, plot_module, "box_outline")
    for _ in range(3):
        cell.plot.step_time()
        view.draw(cell)
    assert len(plans) == 0
    assert len(variables) == 3 * translated
    assert len(planes) == 0
    assert len(outlines) == 0


def _geometry(scene: Scene) -> Dict[str, tuple]:
    """Each actor's arrays as bytes, by actor name."""
    out = {}
    for actor in scene.actors:
        poly = actor.poly
        arrays = [poly.points, poly.triangles, *poly.lines]
        arrays += [a for a in (poly.scalars, poly.colors) if a is not None]
        out[actor.name] = tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)
    return out


def _assert_like_a_fresh_plot(plot, make) -> None:
    fresh = make()
    fresh.apply_state(plot.state())
    assert _geometry(plot.scene()) == _geometry(fresh.scene())
    volume, fresh_volume = plot.volume, fresh.volume
    assert (volume.dimensions, volume.origin, volume.spacing) == (
        fresh_volume.dimensions, fresh_volume.origin, fresh_volume.spacing)
    for name, array in fresh_volume._arrays.items():
        assert volume.get_array(name).tobytes() == array.tobytes()


def _slicer(reanalysis):
    return SlicerPlot(reanalysis("ta"), overlay_variable=reanalysis("zg"))


def test_kept_slicer_geometry_follows_every_change(reanalysis):
    plot = _slicer(reanalysis)
    make = lambda: _slicer(reanalysis)  # noqa: E731
    changes = [
        lambda: plot.drag_slice("x", 0.2),
        lambda: plot.drag_slice("z", -0.1),
        lambda: plot.toggle_plane("y"),
        lambda: plot.toggle_plane("y"),
        lambda: plot.set_vertical_exaggeration(3.0),
        lambda: plot.step_time(),
        lambda: plot.drag_slice("x", -0.2),  # back to a plane laid out before
        lambda: plot.set_vertical_exaggeration(None),
        lambda: plot.set_time_index(0),
    ]
    _assert_like_a_fresh_plot(plot, make)
    for change in changes:
        change()
        _assert_like_a_fresh_plot(plot, make)


@pytest.mark.parametrize("make", [
    lambda ds: IsosurfacePlot(ds("ta"), color_variable=ds("zg")),
    lambda ds: VolumePlot(ds("ta")),
    lambda ds: VectorSlicerPlot(ds("ua"), ds("va")),
])
def test_a_kept_outline_follows_the_bounds(reanalysis, make):
    plot = make(reanalysis)
    for change in (lambda: None, lambda: plot.set_vertical_exaggeration(2.0),
                   plot.step_time, lambda: plot.set_vertical_exaggeration(None)):
        change()
        _assert_like_a_fresh_plot(plot, lambda: make(reanalysis))


def test_kept_geometry_is_read_only(reanalysis):
    plot = _slicer(reanalysis)
    scene = plot.scene()
    kept = [actor.poly for actor in scene.actors if actor.name.startswith("slice-")]
    kept.append(next(actor.poly for actor in scene.actors if actor.name == "frame"))
    assert len(kept) == 4
    for poly in kept:
        for array in (poly.points, poly.triangles, *poly.lines, poly.segments()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0


def test_a_plot_derives_a_plan_again_for_a_variable_of_other_axes(reanalysis):
    plot = SlicerPlot(reanalysis("ta"))
    first = plot.translation_plan("variable")
    assert plot.translation_plan("variable") is first
    plot.variable = reanalysis("ta")(latitude=(-30, 30))
    plot.invalidate()
    assert plot.translation_plan("variable") is not first
    _assert_like_a_fresh_plot(plot, lambda: SlicerPlot(reanalysis("ta")(latitude=(-30, 30))))


# -- what a step draws: kept projections, line fragments and text ------------


STRATA = {
    "slicer": (lambda ds: SlicerPlot(ds("ta")), 0),
    "isosurface": (lambda ds: IsosurfacePlot(ds("ta"), color_variable=ds("zg")), 1),
}


def _warm_cell(reanalysis, kind, **options):
    cell = DV3DCell(STRATA[kind][0](reanalysis), dataset_label=kind, **options)
    view = View(64, 48, azimuth=30.0)
    view.draw(cell)
    cell.plot.step_time()
    view.draw(cell)  # warm: one step taken
    return cell, view


@pytest.mark.parametrize("axes", [False, True])
@pytest.mark.parametrize("kind", sorted(STRATA))
def test_a_warm_step_projects_only_its_new_geometry(reanalysis, monkeypatch, kind, axes):
    cell, view = _warm_cell(reanalysis, kind, show_basemap=True, show_axes=axes)
    projections = _counted(monkeypatch, Camera, "project")
    texts = _counted(monkeypatch, cell_module, "render_text")
    for _ in range(3):
        cell.plot.step_time()
        view.draw(cell)
    # the slice planes, outline, base map and ticks keep their projections;
    # an isosurface step projects its new surface, the axis labels are
    # placed again each frame
    assert len(projections) == 3 * (STRATA[kind][1] + axes)
    assert len(texts) == 3  # the new T= label


@pytest.mark.parametrize("kind", sorted(STRATA))
def test_an_orbit_projects_everything_again(reanalysis, monkeypatch, kind):
    cell, view = _warm_cell(reanalysis, kind, show_basemap=True, show_axes=True)
    drawn = [actor for actor in cell._furnished.value[0].actors if actor.poly.n_points]
    projections = _counted(monkeypatch, Camera, "project")
    texts = _counted(monkeypatch, cell_module, "render_text")
    View(64, 48, azimuth=60.0).draw(cell)
    assert len(projections) == len(drawn) + 1  # every actor, and the axis labels
    assert len(texts) == 0  # the same text, at the same places
    # and a resize too
    View(65, 48, azimuth=60.0).draw(cell)
    assert len(projections) == 2 * (len(drawn) + 1)


def test_the_cell_keeps_only_the_last_frames_text(reanalysis):
    cell, view = _warm_cell(reanalysis, "slicer", show_basemap=True, show_axes=True)
    for _ in range(200):
        cell.plot.step_time()
        view.draw(cell)
    plot = cell.plot
    lo, hi = plot.scalar_range
    camera = cell.plot.orbit(cell.plot.resolve_camera(), 30.0, 0.0)
    axis_text = {text for text, _, _ in project_labels(cell._furnished.value[1], camera, 64, 48)}
    expected = {f"slicer: {plot.variable.id} ({plot.variable.units})", "SLICER",
                f"T={plot.time_index}/{plot.n_timesteps - 1}", f"{hi:.4g}", f"{lo:.4g}"}
    assert axis_text
    assert {text for text, _, _ in cell._patches} == expected | axis_text
    assert len(cell._patches) == len(expected | axis_text)
    for patch in cell._patches.values():
        assert not patch.flags.writeable


def test_kept_text_and_legend_follow_what_they_show(reanalysis):
    """A frame drawn from kept text and legend equals a fresh cell's."""
    cell, view = _warm_cell(reanalysis, "slicer", show_basemap=True)
    changes = [
        lambda: cell.plot.step_time(),
        lambda: cell.plot.cycle_colormap(),
        lambda: cell.plot.invert_colormap(),
        lambda: cell.plot.set_scalar_range(200.0, 300.0),
        lambda: setattr(cell, "dataset_label", "other"),
        lambda: cell.pick(np.array([180.0, 0.0, 1.0])),
        lambda: None,
    ]
    for change in changes:
        change()
        for size in ((64, 48), (80, 100)):
            fresh = DV3DCell(SlicerPlot(reanalysis("ta")), dataset_label=cell.dataset_label,
                             show_basemap=True)
            fresh.plot.apply_state(cell.plot.state())
            fresh.last_pick = cell.last_pick
            camera = cell.plot.orbit(cell.plot.resolve_camera(), 30.0, 0.0)
            expected = fresh.render(*size, camera=camera)
            got = View(*size, azimuth=30.0).draw(cell)
            assert got.color.tobytes() == expected.color.tobytes()
