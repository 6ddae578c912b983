"""A gesture redoes only what it changed — and never shows a stale picture.

``Plot3D.scene()`` keeps the built scene against the translated volume
and the camera-free ``state()``; ``DV3DCell.render`` keeps its furnished
scene and its last finished frame.  Two kinds of check, neither timed:

* **differential** — after every gesture of a random sequence the live
  cell's frame equals, byte for byte, the frame of a fresh plot + cell
  brought to the same ``state()``: a memo can never answer with a
  picture its configuration no longer describes;
* **by count** — with the kernels counted, a repeat draws nothing, an
  orbit extracts no surface and lays out no base map, and executing a
  cell then rendering it is one raycast.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest

from repro import obs
from repro.app.application import Application
from repro.data.catalog import synthetic_reanalysis
from repro.dv3d import cell as cell_module
from repro.dv3d import isosurface as isosurface_module
from repro.dv3d.cell import DV3DCell
from repro.dv3d.combined import CombinedPlot
from repro.dv3d.hovmoller import HovmollerSlicerPlot, HovmollerVolumePlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.rendering import scene as scene_module
from repro.rendering.colormap import colormap_names
from repro.rendering.geometry import box_outline
from repro.rendering.scene import Actor
from repro.serving import AppBackend, Request
from repro.util.errors import DV3DError

NTIME, NLEV = 3, 4
SIZES = [(32, 24), (40, 30)]


@pytest.fixture(scope="module")
def data():
    return synthetic_reanalysis(nlat=10, nlon=14, nlev=NLEV, ntime=NTIME,
                                seed="modified-time")


FACTORIES = {
    "slicer": lambda ds: SlicerPlot(ds("ta"), overlay_variable=ds("zg"), contour_count=3),
    "volume": lambda ds: VolumePlot(ds("ta")),
    "isosurface": lambda ds: IsosurfacePlot(ds("ta"), color_variable=ds("ua")),
    "vector_slicer": lambda ds: VectorSlicerPlot(
        ds("ua"), ds("va"), glyph_stride=3, seed_density=3),
    "hovmoller_slicer": lambda ds: HovmollerSlicerPlot(ds("ta")),
    "hovmoller_volume": lambda ds: HovmollerVolumePlot(ds("ta")),
    "combined": lambda ds: CombinedPlot(
        [VolumePlot(ds("ta")), SlicerPlot(ds("ta"), enabled_planes=("z",))]),
}


# -- the gestures ---------------------------------------------------------------


def _key(cell, rng):
    cell.handle_event("key", key=rng.choice("citTrxyzm"))


def _drag(cell, rng):
    single_plane = isinstance(cell.plot, VectorSlicerPlot)
    mode = rng.choice([
        "camera", "zoom", "pan", "leveling", "leveling:color", "isovalue",
        "slice" if single_plane else f"slice:{rng.choice('xyz')}",
    ])
    cell.handle_event("drag", dx=rng.uniform(-0.3, 0.3), dy=rng.uniform(-0.3, 0.3), mode=mode)


def _configure(cell, rng):
    plot_state = rng.choice([
        {"time_index": rng.randrange(NTIME)},
        {"colormap": {"name": rng.choice(colormap_names()), "inverted": rng.random() < 0.5}},
        {"vertical_exaggeration": rng.choice([None, 0.5, 2.0])},
        {"level_index": rng.randrange(NLEV)},
        {"step_size": rng.choice([None, 3.0, 7.0])},
        {"plane_positions": {rng.choice("xyz"): rng.random()}},
        {"plane_position": rng.random()},
        {"isovalue": rng.uniform(*cell.plot.scalar_range)},
        {"tf_center": rng.random(), "tf_width": rng.uniform(0.1, 0.6)},
        {"mode": rng.choice(["glyphs", "streamlines"])},
        {"lighting": rng.random() < 0.5},
    ])
    cell.handle_event("configure", state={"plot": plot_state})


def _furnishing(cell, rng):
    flag = rng.choice(["show_basemap", "show_labels", "show_colorbar", "show_axes"])
    if rng.random() < 0.5:
        setattr(cell, flag, not getattr(cell, flag))
    else:
        cell.apply_state({flag: rng.random() < 0.5,
                          "dataset_label": rng.choice(["", "ERA", "MERRA"])})


def _pick(cell, rng):
    x0, x1, y0, y1, z0, z1 = cell.plot.volume.bounds()
    cell.pick(np.array([rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(z0, z1)]))


def _setter(cell, rng):
    """Public setters and plain attribute edits, in place included."""
    plot = cell.plot
    if isinstance(plot, CombinedPlot):
        plot = rng.choice([plot] + plot.components)
    lo, hi = plot.scalar_range
    edits = [
        lambda: plot.set_time_index(rng.randrange(NTIME)),
        lambda: plot.set_scalar_range(lo - rng.random(), hi + rng.random()),
        lambda: plot.set_vertical_exaggeration(rng.choice([None, 0.5, 2.0])),
        lambda: setattr(plot, "camera", rng.choice(
            [None, plot.default_camera().orbit(rng.uniform(-90, 90), 10.0)])),
        plot.invalidate,
    ]
    if hasattr(plot, "plane_positions"):
        edits.append(lambda: plot.plane_positions.__setitem__(rng.choice("xyz"), rng.random()))
        edits.append(lambda: setattr(plot, "contour_count", rng.choice([2, 3, 5])))
    if hasattr(plot, "set_isovalue"):
        edits.append(lambda: plot.set_isovalue(rng.uniform(lo, hi)))
        edits.append(lambda: setattr(plot, "isovalue", rng.uniform(lo, hi)))
    if hasattr(plot, "set_window"):
        edits.append(lambda: plot.set_window(rng.random(), rng.uniform(0.1, 0.6)))
        edits.append(lambda: setattr(plot, "lighting", not plot.lighting))
        edits.append(lambda: setattr(plot, "step_size", rng.choice([None, 3.0, 7.0])))
    if hasattr(plot, "set_mode"):
        edits.append(lambda: plot.set_mode(rng.choice(["glyphs", "streamlines"])))
        edits.append(lambda: setattr(plot, "glyph_stride", rng.choice([2, 3, 4])))
        edits.append(lambda: setattr(plot, "plane_position", rng.random()))
    if hasattr(plot, "set_level_index"):
        edits.append(lambda: plot.set_level_index(rng.randrange(NLEV)))
    rng.choice(edits)()


def _repeat(cell, rng):
    pass


GESTURES = [_key, _drag, _configure, _furnishing, _pick, _setter, _repeat]


def _fresh_twin(name, data, cell):
    """A new plot + cell that has rendered nothing, at *cell*'s state."""
    twin = DV3DCell(FACTORIES[name](data))
    twin.apply_state(cell.state())
    twin.last_pick = cell.last_pick
    return twin


def _same(a, b):
    return np.array_equal(a.color, b.color) and np.array_equal(a.depth, b.depth)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_every_frame_of_a_gesture_sequence_equals_a_fresh_render(name, seed, data):
    rng = random.Random(f"{name}-{seed}")
    cell = DV3DCell(FACTORIES[name](data), dataset_label="LIVE")
    size, camera = SIZES[0], None
    with obs.recording() as rec:
        for step in range(24):
            gesture = rng.choice(GESTURES)
            try:
                gesture(cell, rng)
            except DV3DError:
                pass  # a key or drag mode this plot type does not bind
            if rng.random() < 0.2:
                size = rng.choice(SIZES)
            if rng.random() < 0.3:
                camera = rng.choice(
                    [None, cell.plot.default_camera().orbit(rng.choice([-40.0, 25.0]), 5.0)])
            live = cell.render(*size, camera=camera)
            hits = rec.counter_total("dv3d.frame.hits")
            fresh = _fresh_twin(name, data, cell).render(*size, camera=camera)
            # a new pair has no entry to hit, whatever other pairs keep
            assert rec.counter_total("dv3d.frame.hits") == hits
            assert _same(live, fresh), f"step {step} after {gesture.__name__}"
            assert _same(cell.render(*size, camera=camera), fresh), f"repeat of step {step}"
    assert rec.counter_total("dv3d.frame.hits") >= 24  # every repeat, at least
    assert rec.counter_total("dv3d.scene.hits") > 0


# -- handed-out results are the caller's to scribble on ------------------------------


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_scribbling_on_a_result_does_not_change_the_next_hit(name, data):
    cell = DV3DCell(FACTORIES[name](data))
    first = cell.render(*SIZES[0])
    pristine = first.copy()
    first.color[:] = 0.5
    first.depth[:] = 0.0
    assert _same(cell.render(*SIZES[0]), pristine)

    scene = cell.plot.scene()
    n_actors, n_volumes = len(scene.actors), len(scene.volume_actors)
    scene.add_actor(Actor(box_outline((0, 1, 0, 1, 0, 1)), name="graffiti"))
    scene.volume_actors.clear()
    scene.background = (1.0, 1.0, 1.0)
    again = cell.plot.scene()
    assert (len(again.actors), len(again.volume_actors)) == (n_actors, n_volumes)
    assert again.background != (1.0, 1.0, 1.0)
    assert _same(cell.render(*SIZES[1]), _fresh_twin(name, data, cell).render(*SIZES[1]))


def test_every_cell_keeps_its_own_frame_and_it_dies_with_the_cell(data, kernels):
    """Rounds over any number of cells draw each of them once — a cell's
    frame is not another cell's to evict — and the frame goes when the
    cell does: nothing else holds it."""
    cells = [DV3DCell(FACTORIES["slicer"](data)) for _ in range(12)]
    frames = [cell.render(*SIZES[0]) for cell in cells]
    drawn = kernels["rasterize"]
    for _ in range(2):
        assert all(_same(cell.render(*SIZES[0]), frame) for cell, frame in zip(cells, frames))
    assert kernels["rasterize"] == drawn
    kept = weakref.ref(cells[0]._frame.value)
    del cells
    gc.collect()
    assert kept() is None


def test_a_combined_scene_built_twice_names_its_actors_once(data):
    combo = FACTORIES["combined"](data)
    names = [a.name for a in combo.build_scene().actors + combo.build_scene().volume_actors]
    assert sorted(names) == ["c0:volume", "c1:slice-z", "frame"]
    assert [a.name for a in combo.components[0].scene().volume_actors] == ["volume"]


def test_combined_time_index_is_a_no_op_when_unchanged(data):
    combo = FACTORIES["combined"](data)
    combo.set_time_index(1)
    volumes = [c.volume for c in combo.components]
    stamp = combo.scene().stamp
    combo.set_time_index(1)
    assert [c.volume for c in combo.components] == volumes  # same objects
    assert combo.scene().stamp is stamp
    combo.handle_key("t")
    assert combo.volume is combo.primary.volume  # picking reads the new step


# -- state() is the whole configuration ---------------------------------------------


#: what the constructor fixes for the plot's lifetime
FIXED = {"variable", "overlay_variable", "color_variable", "u", "v", "w", "components"}
#: attributes ``state()`` reports field by field
FLATTENED = {"transfer": {"tf_center", "tf_width", "peak_opacity", "color_window"}}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_every_attribute_a_scene_reads_is_in_state_or_fixed(name, data):
    """Translate and build with attribute reads recorded: every instance
    attribute read off the plot is in ``state()`` — so changing it
    changes the memo key — or is fixed at construction."""
    plot = FACTORIES[name](data)
    cls, read = type(plot), set()

    class Spy(cls):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    plot.__class__ = Spy
    try:
        plot.invalidate()
        plot.build_scene()
    finally:
        plot.__class__ = cls
    assert read & FIXED, "the spy saw nothing"
    configuration = {a for a in read if a in vars(plot) and not a.startswith("_")} - FIXED
    reported = set(plot.state())
    missing = {a for a in configuration if not FLATTENED.get(a, {a}) <= reported}
    assert missing == set(), f"{name}: read by build_scene, absent from state()"


@pytest.mark.parametrize("name,key,value", [
    ("hovmoller_slicer", "level_index", 2),
    ("hovmoller_volume", "level_index", 3),
    ("volume", "step_size", 5.0),
    ("slicer", "vertical_exaggeration", 2.0),
    ("vector_slicer", "vertical_exaggeration", 0.5),
])
def test_state_round_trips_what_used_to_be_dropped(name, key, value, data):
    source, target = FACTORIES[name](data), FACTORIES[name](data)
    before = target.render(*SIZES[0])
    source.apply_state({key: value})
    assert source.state()[key] == value
    target.apply_state(source.state())
    assert target.state() == source.state()
    after = target.render(*SIZES[0])
    assert _same(after, source.render(*SIZES[0]))
    assert not _same(after, before)  # it does change the picture


# -- by count ----------------------------------------------------------------------------


@pytest.fixture()
def kernels(monkeypatch):
    """Call counts of the four kernels, patched where their callers look them up."""
    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scene_module, "raycast_volume")
    count(scene_module, "rasterize")
    count(isosurface_module, "marching_tetrahedra")
    count(cell_module, "basemap_polydata")
    return calls


def _params(template, **extra):
    return {"template": template, "variables": {"variable": "ta"},
            "size": {"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3},
            "width": 32, "height": 24, **extra}


@pytest.mark.parametrize("template", ["Slicer", "Isosurface", "Volume", "VolumeSlicer"])
def test_a_backend_repeat_calls_no_kernel(template, kernels):
    backend = AppBackend()
    request = Request(params=_params(template, timestep=1, azimuth=20.0))
    first = backend(request, False)
    before = dict(kernels)
    assert backend(request, False) == first
    assert kernels == before


def test_an_orbit_extracts_no_surface_and_lays_out_no_base_map(kernels):
    backend = AppBackend()
    frames = [backend(Request(params=_params("Isosurface", azimuth=0.0)), False)]
    built = (kernels["marching_tetrahedra"], kernels["basemap_polydata"])
    drawn = kernels["rasterize"]
    for azimuth in (15.0, 30.0, 45.0):
        frames.append(backend(Request(params=_params("Isosurface", azimuth=azimuth)), False))
    assert (kernels["marching_tetrahedra"], kernels["basemap_polydata"]) == built
    assert kernels["rasterize"] > drawn  # it did draw: each view is a new picture
    assert len(set(frames)) == len(frames)


def test_navigating_a_combined_plot_rebuilds_nothing(data, kernels):
    """Every navigation gesture hands the plot's camera to each
    component; the merged scene, the base map and the axis ticks stay."""
    cell = DV3DCell(CombinedPlot([IsosurfacePlot(data("ta")), SlicerPlot(data("ta"))]),
                    show_axes=True)
    frames = [cell.render(*SIZES[0])]
    stamp = cell.plot.scene().stamp
    built = (kernels["marching_tetrahedra"], kernels["basemap_polydata"])
    drawn = kernels["rasterize"]
    for mode in ("camera", "zoom", "pan"):
        cell.handle_event("drag", dx=0.2, dy=0.1, mode=mode)
        frames.append(cell.render(*SIZES[0]))
    cell.handle_event("configure", state={"plot": {
        "camera": cell.plot.default_camera().orbit(30.0, 10.0).state()}})
    frames.append(cell.render(*SIZES[0]))
    cell.handle_event("key", key="r")
    assert _same(cell.render(*SIZES[0]), frames[0])  # the reset view, drawn again
    assert cell.plot.scene().stamp is stamp
    assert (kernels["marching_tetrahedra"], kernels["basemap_polydata"]) == built
    assert kernels["rasterize"] > drawn
    assert not any(_same(a, b) for i, a in enumerate(frames) for b in frames[:i])


def test_executing_cells_then_rendering_them_is_one_raycast_each(kernels):
    app = Application()
    app.new_project("p")
    for number, slot in enumerate([(0, 0), (0, 1), (1, 0)]):
        app.create_plot(
            "Volume", "sheet", slot, "synthetic_reanalysis", {"variable": "ta"},
            size={"nlat": 10, "nlon": 14, "nlev": 4, "ntime": 3},
            cell_params={"width": 32, "height": 24, "dataset_label": f"cell {number}"},
            execute=False,
        )
    cells = app.project.execute_sheet("sheet")
    for _ in range(2):  # cell after cell, round after round: no cell evicts another
        for cell in cells:
            cell.render(32, 24)
    assert kernels["raycast_volume"] == len(cells) == 3
    cells[0].render(40, 30)
    assert kernels["raycast_volume"] == 4  # a new size is a new frame


@pytest.mark.parametrize("template", ["Slicer", "Isosurface"])
def test_a_time_step_lays_out_no_base_map(template, kernels):
    """The grid's bounds do not change with the time step, so the base
    map laid out for the first frame serves every step after it — and
    each step's frame is a fresh backend's bytes."""
    backend = AppBackend()
    backend(Request(params=_params(template, timestep=0)), False)
    laid_out = kernels["basemap_polydata"]
    assert laid_out == 1
    steps = [Request(params=_params(template, timestep=t)) for t in (1, 2, 0)]
    frames = [backend(request, False) for request in steps]
    assert kernels["basemap_polydata"] == laid_out
    assert frames == [AppBackend()(request, False) for request in steps]


@pytest.mark.parametrize("name", ["slicer", "isosurface"])
def test_a_vertical_exaggeration_lays_the_base_map_out_again(name, data, kernels):
    cell = DV3DCell(FACTORIES[name](data))
    for timestep in range(NTIME):
        cell.handle_event("configure", state={"plot": {"time_index": timestep}})
        cell.render(*SIZES[0])
    assert kernels["basemap_polydata"] == 1
    cell.handle_event("configure", state={"plot": {"vertical_exaggeration": 2.0}})
    frame = cell.render(*SIZES[0])
    assert kernels["basemap_polydata"] == 2
    assert _same(frame, _fresh_twin(name, data, cell).render(*SIZES[0]))


def test_each_scene_gets_its_own_base_map_actor_over_the_kept_map(data):
    cell = DV3DCell(FACTORIES["slicer"](data), show_axes=True)
    furniture = []
    for timestep in (0, 1):
        cell.plot.set_time_index(timestep)
        scene = cell._furnished_scene()[0]
        furniture.append({a.name: a for a in scene.actors if a.name in ("basemap", "axis-ticks")})
    first, second = furniture
    assert sorted(first) == sorted(second) == ["axis-ticks", "basemap"]
    for name in first:
        assert first[name] is not second[name]  # no actor is in two scenes
        assert first[name].poly is second[name].poly  # laid out once
