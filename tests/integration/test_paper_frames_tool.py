"""``tools/paper_frames.py`` runs on this tree and prints an orbit row
and a time-step row per (plot, size): the frame's median ms and the ms
per frame inside the translation, the ray caster, the rasterizer and
marching tetrahedra."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "paper_frames.py"
ROW = re.compile(r"^\| (\w+) \| (\d+x\d+) \| (orbit|step) \| (\d+\.\d{3}) ms \| "
                 r"(\d+\.\d{3}) ms \| (\d+\.\d{3}) ms \| (\d+\.\d{3}) ms \| "
                 r"(\d+\.\d{3}) ms \|$")


def test_the_tool_prints_an_orbit_and_a_step_row_per_plot_and_size(capsys):
    spec = importlib.util.spec_from_file_location("paper_frames", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--repeats", "1", "--sizes", "32x24"])
    lines = capsys.readouterr().out.splitlines()
    assert "median of 1" in lines[0]
    matches = [m for m in map(ROW.match, lines) if m]
    rows = {(m.group(1), m.group(3)): [float(g) for g in m.groups()[3:]] for m in matches}
    names = ["Volume", "VolumeSlicer", "Isosurface", "Slicer", "HovmollerSlicer"]
    assert list(rows) == [(name, kind) for name in names for kind in ("orbit", "step")]
    assert all(m.group(2) == "32x24" for m in matches)
    for (name, kind), (frame, translate, raycast, rasterize, isosurface) in rows.items():
        assert frame > 0 and rasterize > 0, name
        assert (raycast > 0) == name.startswith("Volume"), name
        if kind == "orbit":  # an orbit translates nothing and extracts no surface
            assert translate == 0 and isosurface == 0, name
        else:  # a step translates, bar the Hovmoller plot, which has none
            assert (translate > 0) == (name != "HovmollerSlicer"), name
            assert (isosurface > 0) == (name == "Isosurface"), name
