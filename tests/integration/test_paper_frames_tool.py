"""``tools/paper_frames.py`` runs on this tree and prints one row per
(plot, size): the frame's median ms and the ms per frame inside the ray
caster, the rasterizer and marching tetrahedra."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "paper_frames.py"
ROW = re.compile(r"^\| (\w+) \| (\d+x\d+) \| (\d+\.\d{3}) ms \| (\d+\.\d{3}) ms \| "
                 r"(\d+\.\d{3}) ms \| (\d+\.\d{3}) ms \|$")


def test_the_tool_prints_one_row_per_plot_and_size(capsys):
    spec = importlib.util.spec_from_file_location("paper_frames", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--repeats", "1", "--sizes", "32x24"])
    lines = capsys.readouterr().out.splitlines()
    assert "median of 1" in lines[0]
    rows = {m.group(1): [float(g) for g in m.groups()[2:]] for m in map(ROW.match, lines) if m}
    assert list(rows) == ["Volume", "VolumeSlicer", "Isosurface", "Slicer", "HovmollerSlicer"]
    assert all(line.split(" | ")[1] == "32x24" for line in lines if ROW.match(line))
    for name, (frame, raycast, rasterize, isosurface) in rows.items():
        assert frame > 0 and rasterize > 0, name
        assert (raycast > 0) == name.startswith("Volume"), name
        assert isosurface == 0, name  # an orbit extracts no surface
