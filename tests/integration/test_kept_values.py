"""Every single-entry memo in ``repro.dv3d`` and ``repro.rendering`` is a
:class:`~repro.util.kept.Kept`: one key, one value, one build, and a
``<site>.hits`` / ``<site>.misses`` counter per site.

The helper's contract, then a census — for each plot class one fixed
sequence of frames (open, time step, orbit, repeat, resize) counts
exactly these hits and misses per site — then the sites that match by
identity, which equal copies do not fool.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np
import pytest

from repro import obs
from repro.cdms.variable import Variable
from repro.dv3d import (DV3DCell, HovmollerSlicerPlot, HovmollerVolumePlot, IsosurfacePlot,
                        SlicerPlot, VectorSlicerPlot, VolumePlot)
from repro.dv3d.combined import CombinedPlot
from repro.dv3d.view import View
from repro.rendering.camera import Camera
from repro.rendering.geometry import box_outline
from repro.util.kept import Kept, same_first, same_items


def _tally(recorder) -> Dict[str, Tuple[int, int]]:
    """``site -> (hits, misses)`` over every label, sites that counted."""
    tally: Dict[str, Tuple[int, int]] = {}
    for key, value in recorder.counters.items():
        site, _, kind = key.name.rpartition(".")
        if kind in ("hits", "misses"):
            hits, misses = tally.get(site, (0, 0))
            tally[site] = (hits + int(value), misses) if kind == "hits" else (
                hits, misses + int(value))
    return tally


# -- the helper -------------------------------------------------------------------


def test_a_hit_returns_the_kept_object_and_a_changed_key_rebuilds():
    kept = Kept("test.site", label="x")
    built = []

    def build():
        built.append(object())
        return built[-1]

    with obs.recording() as rec:
        first = kept.get((1, 2), build)
        assert kept.get((1, 2), build) is first
        second = kept.get((1, 3), build)
        assert second is not first and kept.get((1, 3), build) is second
    assert len(built) == 2
    assert rec.counter_value("test.site.hits", label="x") == 2
    assert rec.counter_value("test.site.misses", label="x") == 2


def test_a_failed_build_keeps_nothing():
    kept = Kept("test.site")
    kept.get("old", lambda: "old value")

    def fail():
        raise RuntimeError("no value")

    with pytest.raises(RuntimeError):
        kept.get("new", fail)
    assert kept.get("new", lambda: "built again") == "built again"
    # nor the value kept before it
    with pytest.raises(RuntimeError):
        kept.get("other", fail)
    assert kept.get("new", lambda: "built once more") == "built once more"


def test_built_arrays_are_read_only_alone_or_in_a_tuple():
    kept = Kept("test.site")
    array = kept.get(1, lambda: np.zeros(3))
    pair = kept.get(2, lambda: (np.ones(2), {}))
    assert not array.flags.writeable
    assert not pair[0].flags.writeable
    with pytest.raises(ValueError):
        pair[0][0] = 5.0


def test_the_identity_rules_match_the_very_objects():
    a, b = [1.0], [1.0]  # equal, not the same
    assert same_first((a, 3), (a, 3)) and not same_first((a, 3), (b, 3))
    assert not same_first((a, 3), (a, 4))
    assert same_items((a, b), (a, b))
    assert not same_items((a, b), (a, a)) and not same_items((a,), (a, b))


# -- the census -------------------------------------------------------------------

STEPS = {
    "open": View(64, 48),
    "step": View(64, 48, time_index=1),
    "orbit": View(64, 48, time_index=1, azimuth=30.0),
    "repeat": View(64, 48, time_index=1, azimuth=30.0),
    "resize": View(80, 60, time_index=1, azimuth=30.0),
}

PLOTS = {
    "slicer": lambda ds: SlicerPlot(ds("ta")),
    "isosurface": lambda ds: IsosurfacePlot(ds("ta"), color_variable=ds("zg")),
    "volume": lambda ds: VolumePlot(ds("ta")),
    "hovmoller_slicer": lambda ds: HovmollerSlicerPlot(ds("ta")),
    "hovmoller_volume": lambda ds: HovmollerVolumePlot(ds("ta")),
    "vector_slicer": lambda ds: VectorSlicerPlot(ds("ua"), ds("va")),
    "combined": lambda ds: CombinedPlot([VolumePlot(ds("ta")), SlicerPlot(ds("ta"))]),
}

#: a repeat draws nothing: the cell's frame answers, over a kept scene
REPEAT = "fit 1/0, frame 1/0, furnish 1/0, orbit 1/0, scene 1/0"

#: per plot class and step, ``site hits/misses`` of every site that
#: counted (``dv3d.`` sites by their last name; ``accel.blocked``,
#: ``geometry.projection`` and ``raycast.rays`` in full).  A geometry's
#: projection and memo are one lookup, so each read-only geometry a
#: frame draws counts once.
CENSUS = {
    "slicer": {
        "open": "fit 0/1, frame 0/1, furnish 0/1, layout 0/1, legend 0/1, outline 0/1, "
                "plan 0/1, scene 0/1, slice_plane 0/3, geometry.projection 0/5",
        "step": "fit 1/0, frame 0/1, furnish 0/1, layout 1/0, legend 1/0, outline 1/0, "
                "plan 1/0, scene 0/1, slice_plane 3/0, geometry.projection 5/0",
        "orbit": "fit 1/0, frame 0/1, furnish 1/0, legend 1/0, orbit 0/1, scene 1/0, "
                 "geometry.projection 0/5",
        "resize": "fit 1/0, frame 0/1, furnish 1/0, legend 0/1, orbit 1/0, scene 1/0, "
                  "geometry.projection 0/5",
    },
    # the surface is made anew each step, with writable points: not kept
    "isosurface": {
        "open": "fit 0/1, frame 0/1, furnish 0/1, layout 0/1, legend 0/1, outline 0/1, "
                "plan 0/2, scene 0/1, geometry.projection 0/2",
        "step": "fit 1/0, frame 0/1, furnish 0/1, layout 1/0, legend 1/0, outline 1/0, "
                "plan 2/0, scene 0/1, geometry.projection 2/0",
        "orbit": "fit 1/0, frame 0/1, furnish 1/0, legend 1/0, orbit 0/1, scene 1/0, "
                 "geometry.projection 0/2",
        "resize": "fit 1/0, frame 0/1, furnish 1/0, legend 0/1, orbit 1/0, scene 1/0, "
                  "geometry.projection 0/2",
    },
    # a step is a new volume, so a new pyramid and a new blocked mask;
    # the same camera, size and bounds keep the view's rays
    "volume": {
        "open": "accel.blocked 0/1, fit 0/1, frame 0/1, furnish 0/1, layout 0/1, "
                "legend 0/1, outline 0/1, plan 0/1, scene 0/1, geometry.projection 0/2, "
                "raycast.rays 0/1",
        "step": "accel.blocked 0/1, fit 1/0, frame 0/1, furnish 0/1, layout 1/0, "
                "legend 1/0, outline 1/0, plan 1/0, scene 0/1, geometry.projection 2/0, "
                "raycast.rays 1/0",
        "orbit": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 1/0, "
                 "orbit 0/1, scene 1/0, geometry.projection 0/2, raycast.rays 0/1",
        "resize": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 0/1, "
                  "orbit 1/0, scene 1/0, geometry.projection 0/2, raycast.rays 0/1",
    },
    # time is spatialized: a "step" leaves the index pinned, a repeat
    "hovmoller_slicer": {
        "open": "fit 0/1, frame 0/1, furnish 0/1, layout 0/1, legend 0/1, outline 0/1, "
                "scene 0/1, slice_plane 0/1, geometry.projection 0/3",
        "step": "fit 1/0, frame 1/0, furnish 1/0, scene 1/0",
        "orbit": "fit 1/0, frame 0/1, furnish 1/0, legend 1/0, orbit 0/1, scene 1/0, "
                 "geometry.projection 0/3",
        "resize": "fit 1/0, frame 0/1, furnish 1/0, legend 0/1, orbit 1/0, scene 1/0, "
                  "geometry.projection 0/3",
    },
    "hovmoller_volume": {
        "open": "accel.blocked 0/1, fit 0/1, frame 0/1, furnish 0/1, layout 0/1, "
                "legend 0/1, outline 0/1, scene 0/1, geometry.projection 0/2, "
                "raycast.rays 0/1",
        "step": "fit 1/0, frame 1/0, furnish 1/0, scene 1/0",
        "orbit": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 1/0, "
                 "orbit 0/1, scene 1/0, geometry.projection 0/2, raycast.rays 0/1",
        "resize": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 0/1, "
                  "orbit 1/0, scene 1/0, geometry.projection 0/2, raycast.rays 0/1",
    },
    # glyphs are made anew each step, with writable points: not kept
    "vector_slicer": {
        "open": "fit 0/1, frame 0/1, furnish 0/1, layout 0/1, legend 0/1, outline 0/1, "
                "plan 0/2, scene 0/1, geometry.projection 0/2",
        "step": "fit 1/0, frame 0/1, furnish 0/1, layout 1/0, legend 1/0, outline 1/0, "
                "plan 2/0, scene 0/1, geometry.projection 2/0",
        "orbit": "fit 1/0, frame 0/1, furnish 1/0, legend 1/0, orbit 0/1, scene 1/0, "
                 "geometry.projection 0/2",
        "resize": "fit 1/0, frame 0/1, furnish 1/0, legend 0/1, orbit 1/0, scene 1/0, "
                  "geometry.projection 0/2",
    },
    # the combined plot and each component keep a scene and an outline;
    # only the combined plot's is asked for while it answers.  It keeps
    # the one plan: both components draw the volume it translates
    "combined": {
        "open": "accel.blocked 0/1, fit 0/1, frame 0/1, furnish 0/1, layout 0/1, "
                "legend 0/1, outline 0/2, plan 0/1, scene 0/3, slice_plane 0/3, "
                "geometry.projection 0/5, raycast.rays 0/1",
        "step": "accel.blocked 0/1, fit 1/0, frame 0/1, furnish 0/1, layout 1/0, "
                "legend 1/0, outline 2/0, plan 1/0, scene 0/3, slice_plane 3/0, "
                "geometry.projection 5/0, raycast.rays 1/0",
        "orbit": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 1/0, "
                 "orbit 0/1, scene 1/0, geometry.projection 0/5, raycast.rays 0/1",
        "resize": "accel.blocked 1/0, fit 1/0, frame 0/1, furnish 1/0, legend 0/1, "
                  "orbit 1/0, scene 1/0, geometry.projection 0/5, raycast.rays 0/1",
    },
}


def _parsed(row: str) -> Dict[str, Tuple[int, int]]:
    counts = {}
    for item in row.split(", "):
        site, hits_misses = item.split(" ")
        hits, misses = hits_misses.split("/")
        counts[site if "." in site else f"dv3d.{site}"] = (int(hits), int(misses))
    return counts


@pytest.mark.parametrize("kind", sorted(PLOTS))
def test_each_plot_class_keeps_and_rebuilds_exactly_its_census(reanalysis, kind):
    cell = DV3DCell(PLOTS[kind](reanalysis))
    expected = dict(CENSUS[kind], repeat=REPEAT)
    for step, view in STEPS.items():
        with obs.recording() as rec:
            view.draw(cell)
        assert _tally(rec) == _parsed(expected[step]), (kind, step)


def test_the_scene_and_frame_sites_keep_their_names_and_plot_label(ta):
    cell = DV3DCell(SlicerPlot(ta))
    with obs.recording() as rec:
        View(32, 24).draw(cell)
        View(32, 24).draw(cell)
    for site in ("dv3d.scene", "dv3d.frame"):
        assert rec.counter_value(f"{site}.misses", plot="slicer") == 1
        assert rec.counter_value(f"{site}.hits", plot="slicer") == 1


# -- sites matched by identity ----------------------------------------------------


def test_an_equal_camera_that_is_another_object_projects_again():
    poly = box_outline((0.0, 1.0, 0.0, 1.0, 0.0, 1.0)).freeze()
    camera = Camera.fit_bounds((0.0, 1.0, 0.0, 1.0, 0.0, 1.0))
    twin = dataclasses.replace(camera)
    assert twin == camera and twin is not camera
    with obs.recording() as rec:
        first = poly.viewed(camera, 32, 24)[0]
        assert poly.viewed(camera, 32, 24)[0] is first
        again = poly.viewed(twin, 32, 24)[0]
    assert again is not first and np.array_equal(again, first)
    assert _tally(rec) == {"geometry.projection": (1, 2)}


def test_an_orbit_at_negative_zero_is_not_the_orbit_at_zero(ta):
    plot = SlicerPlot(ta)
    camera = plot.default_camera()
    at_zero = plot.orbit(camera, 0.0, 0.0)
    assert plot.orbit(camera, 0.0, 0.0) is at_zero
    assert plot.orbit(camera, -0.0, 0.0) is not at_zero
    assert plot.orbit(camera, 0, 0.0) is not plot.orbit(camera, 0.0, 0.0)  # int is not float
    assert plot.orbit(dataclasses.replace(camera), 0.0, 0.0) is not at_zero


def test_equal_but_distinct_axes_derive_a_new_plan(ta):
    plot = SlicerPlot(ta)
    plan = plot.translation_plan("variable")
    plot.variable = Variable(ta.data, ta.axes, id=ta.id)  # the very same axes
    assert plot.translation_plan("variable") is plan
    twins = tuple(axis.clone() for axis in ta.axes)
    assert twins == ta.axes
    plot.variable = Variable(ta.data, twins, id=ta.id)
    assert plot.translation_plan("variable") is not plan
