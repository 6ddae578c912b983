"""``tools/repeat_cost.py`` runs on this tree and prints its four-layer
table and a fresh scene's open, which draws once, then what one wire
repeat counts: loop iterations, sha256 objects and no Task, then what a
time step costs per stratum: the call, its translate, build_scene,
isosurface and rasterize spans, and its rasterize calls — one per run of
like actors, at most two on these strata — its ``Camera.project`` calls
(none on a Slicer step, the new surface on an Isosurface step) and its
``render_text`` calls (the new ``T=`` label), the triangle box centres it
tests and its triangle-fragment passes (none on a Slicer step, whose
planes keep their fragments); then a Volume step, which
sets up no view rays (``Camera.pixel_rays``) and misses no kept ray
bundle; then the misses per step of each kept site."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "repeat_cost.py"
ROW = re.compile(r"^\| ([^|]+) \| (\d+\.\d{3}) ms \|$")
STEP = re.compile(r"^\| (\w+) \|" + r" (\d+\.\d{3}) ms \|" * 5 + r" (\d+\.\d{2}) \|" * 5 + "$")
COUNT = re.compile(r"^\| ([^|]+) \| (\d+\.\d{2}) \|$")
VOLUME = re.compile(r"^\| Volume \| (\d+\.\d{3}) ms \| (\d+\.\d{2}) \| (\d+\.\d{2}) \|$")
KEPT = re.compile(r"^\| `([\w.]+)` \| (\d+\.\d{2}) \| (\d+\.\d{2}) \|$")


def test_the_tool_prints_one_row_per_layer(capsys):
    spec = importlib.util.spec_from_file_location("repeat_cost", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--repeats", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert "median of 3" in lines[0]
    rows = [ROW.match(line) for line in lines if ROW.match(line)]
    assert [row.group(1) for row in rows] == [
        "`AppBackend(request)` on the calling thread",
        "`await ServingServer.submit(request)`",
        "`WireSessionClient.render`, client in the same process",
        "the wire with a backend that returns fixed bytes",
        "a fresh scene's open, `AppBackend(request)`: "
        "1.00 `Renderer.render` calls per open",
    ]
    assert all(float(row.group(2)) > 0 for row in rows)
    counts = {m.group(1): float(m.group(2)) for m in map(COUNT.match, lines) if m}
    assert list(counts) == ["serving-loop iterations", "sha256 objects", "Tasks created"]
    assert counts["serving-loop iterations"] > 0
    assert counts["sha256 objects"] > 0
    assert counts["Tasks created"] == 0
    steps = {m.group(1): [float(g) for g in m.groups()[1:]] for m in map(STEP.match, lines) if m}
    assert list(steps) == ["Slicer", "Isosurface"]
    for step, translate, build, surface, raster, calls, projections, texts, *_ in steps.values():
        assert step > 0 and translate > 0 and build > 0 and raster > 0
        assert 0 < calls <= 2
        assert build >= surface  # the extraction is part of the scene's build
        assert texts == 1  # the new T= label; the rest of the text is kept
    assert steps["Slicer"][3] == 0  # a slicer extracts no surface
    assert steps["Isosurface"][3] > 0
    # kept geometry keeps its projection: a step projects only a new surface
    assert steps["Slicer"][6] == 0
    assert steps["Isosurface"][6] == 1
    # and its fragments: a Slicer step finds none, an Isosurface step
    # tests the new surface's box centres in one pass
    assert steps["Slicer"][8:] == [0, 0]
    assert steps["Isosurface"][8] > 0 and steps["Isosurface"][9] == 1
    # a Volume step keeps its view's rays: the camera, size and bounds stay
    (volume,) = [m.groups() for m in map(VOLUME.match, lines) if m]
    assert float(volume[0]) > 0
    assert volume[1:] == ("0.00", "0.00")
    # a step misses only the scene, its furnishing and the frame; every
    # other kept site answers (the new surface's projection is not kept)
    kept = {m.group(1): (float(m.group(2)), float(m.group(3)))
            for m in map(KEPT.match, lines) if m}
    assert {site: misses for site, misses in kept.items() if any(misses)} == {
        "dv3d.scene": (1, 1), "dv3d.furnish": (1, 1), "dv3d.frame": (1, 1)}
    assert {"dv3d.plan", "dv3d.outline", "dv3d.slice_plane", "dv3d.layout",
            "dv3d.legend", "geometry.projection"} <= set(kept)
