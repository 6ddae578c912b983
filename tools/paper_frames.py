#!/usr/bin/env python
"""Print what one frame of each of the paper's plots costs at the paper's
cell sizes.

For the Volume, VolumeSlicer (a ``CombinedPlot`` of a Volume and a
Slicer over one variable), Isosurface, Slicer and HovmollerSlicer plots,
at each of ``--sizes`` (default 200x150, Fig. 2's cells, and 640x480),
two rows: an ``orbit`` row, each frame one ``View.draw`` of the bare
plot at a new azimuth (the plot keeps its scene, so a frame is its
draw), and a ``step`` row, each frame the next time step under the
default camera (a new volume, so a new scene).  Each row is the median
ms of ``--repeats`` frames of a fresh plot after one untimed first
frame, then, over as many more under a ``repro.obs`` recorder, the mean
ms per frame inside the ``translation.translate``, ``raycast.render``,
``rasterizer.rasterize`` and ``isosurface.marching_tetrahedra`` spans.
An orbit translates nothing and extracts no surface, so its first and
last span columns read 0 unless a kernel is re-run; the Hovmoller plot
has no animation step (time is an axis of its volume), so its step row
is a redraw.

The 3-D plots draw ``ta`` of a 32x48x8 synthetic reanalysis (4 steps),
the Hovmoller plot an equatorial wave on a 48x12 grid over 40 steps.

Run from the repository root::

    PYTHONPATH=src python tools/paper_frames.py [--repeats 5] [--sizes 200x150 640x480]

Stdlib and ``repro`` only; the output is a markdown table.  It reports
and aims; it claims nothing.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.data.catalog import synthetic_reanalysis, wave_case_study
from repro.dv3d.combined import CombinedPlot
from repro.dv3d.hovmoller import HovmollerSlicerPlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.plot import Plot3D
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.view import View
from repro.dv3d.volume import VolumePlot

SPANS = ("translation.translate", "raycast.render", "rasterizer.rasterize",
         "isosurface.marching_tetrahedra")
#: each row's frame: an orbit to the n-th azimuth, or a step to the n-th time index
FRAMES: Dict[str, Callable[[int, int, int], View]] = {
    "orbit": lambda width, height, n: View(width, height, azimuth=7.0 * n),
    "step": lambda width, height, n: View(width, height, time_index=n),
}
GRID = {"nlat": 32, "nlon": 48, "nlev": 8, "ntime": 4}
WAVES = {"nlon": 48, "nlat": 12, "ntime": 40}


def plots() -> Dict[str, Callable[[], Plot3D]]:
    """Each plot of the table, by name, as a factory of a fresh plot."""
    ta = synthetic_reanalysis(**GRID, seed="paper-frames")("ta")
    olr = wave_case_study(**WAVES, seed="paper-frames")("olr_anom")
    return {
        "Volume": lambda: VolumePlot(ta),
        "VolumeSlicer": lambda: CombinedPlot([VolumePlot(ta), SlicerPlot(ta)]),
        "Isosurface": lambda: IsosurfacePlot(ta),
        "Slicer": lambda: SlicerPlot(ta),
        "HovmollerSlicer": lambda: HovmollerSlicerPlot(olr),
    }


def frame_cost(plot: Plot3D, width: int, height: int, repeats: int, kind: str) -> Tuple[float, ...]:
    """Median ms of *repeats* frames of *kind* (a :data:`FRAMES` key),
    then the mean ms per frame inside each of :data:`SPANS` over
    *repeats* more."""
    n = itertools.count(1)

    def frame() -> None:
        FRAMES[kind](width, height, next(n)).draw(plot)

    frame()  # the scene's first frame builds it
    times: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        frame()
        times.append(time.perf_counter() - t0)
    with obs.recording() as recorder:
        for _ in range(repeats):
            frame()
    return (statistics.median(times) * 1e3,) + tuple(
        sum(s.duration for s in recorder.spans if s.name == name) / repeats * 1e3
        for name in SPANS
    )


def _size(text: str) -> Tuple[int, int]:
    try:
        width, height = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"a size is WIDTHxHEIGHT, got {text!r}") from None
    if width < 1 or height < 1:
        raise argparse.ArgumentTypeError(f"a size is at least 1x1, got {text!r}")
    return width, height


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="frames timed per plot, size and kind (default 5)")
    parser.add_argument("--sizes", type=_size, nargs="+",
                        default=[(200, 150), (640, 480)],
                        help="frame sizes, WIDTHxHEIGHT (default 200x150 640x480)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"One orbit or time-step frame per `View.draw`, median of {args.repeats}; "
          f"spans, mean ms per frame over {args.repeats} more:")
    print()
    print("| plot | size | kind | frame | " + " | ".join(f"`{name}`" for name in SPANS) + " |")
    print("|---|---|---|---|" + "---|" * len(SPANS))
    for name, make in plots().items():
        for (width, height), kind in itertools.product(args.sizes, FRAMES):
            cells = " | ".join(
                f"{ms:.3f} ms" for ms in frame_cost(make(), width, height, args.repeats, kind)
            )
            print(f"| {name} | {width}x{height} | {kind} | {cells} |")


if __name__ == "__main__":
    main()
