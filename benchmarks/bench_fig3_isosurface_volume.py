"""Figure 3 — isosurface plot + combined volume render and slicer plot.

The screenshot shows (bottom) an isosurface of one variable colored by
a second, and (top) a volume render combined with a slice plane.  The
benchmark regenerates both over the storm case study and sweeps the
grid resolution, reporting extraction/render costs and the geometric
scaling (triangle count grows ~quadratically with linear resolution —
surfaces are 2-D).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import redraw, report
from repro.data.catalog import storm_case_study
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.rendering.scene import Renderer

GRID_SIZES = [24, 40, 56]
PEAK_TIME = 2


def storm_plot(n: int, with_color: bool = True) -> IsosurfacePlot:
    dataset = storm_case_study(nlat=n, nlon=n, nlev=max(n // 3, 6), ntime=4,
                               seed="fig3")
    plot = IsosurfacePlot(
        dataset("wspd"),
        color_variable=dataset("tcore") if with_color else None,
        colormap="coolwarm",
    )
    plot.set_time_index(PEAK_TIME)
    lo, hi = plot.scalar_range
    plot.set_isovalue(lo + 0.55 * (hi - lo))
    return plot


@pytest.mark.parametrize("n", GRID_SIZES)
def test_fig3_isosurface_extraction(benchmark, n):
    """Marching-tetrahedra cost across the resolution sweep."""
    plot = storm_plot(n)
    plot.volume  # pre-translate so we time extraction alone
    benchmark.group = "fig3-isosurface-extract"
    surface = benchmark(plot.extract_surface)
    assert surface.n_triangles > 0
    assert surface.colors is not None  # colored by the second variable


def test_fig3_triangle_scaling():
    """Surface triangles scale ~ n² (it is a 2-D surface in a 3-D grid)."""
    counts = []
    for n in GRID_SIZES:
        plot = storm_plot(n, with_color=False)
        counts.append(plot.extract_surface().n_triangles)
    rows = [("grid n", "triangles")] + list(zip(GRID_SIZES, counts))
    exponent = np.polyfit(np.log(GRID_SIZES), np.log(counts), 1)[0]
    rows.append(("scaling exponent", f"{exponent:.2f} (expect ~2)"))
    report("Fig.3: isosurface complexity vs resolution", rows)
    assert 1.5 < exponent < 2.6


@pytest.mark.parametrize("n", [24, 40])
def test_fig3_isosurface_render(benchmark, n):
    """Full cell render of the colored isosurface."""
    plot = storm_plot(n)
    benchmark.group = "fig3-render"
    fb = benchmark(lambda: redraw(plot, 200, 150))
    assert fb.coverage() > 0.005


@pytest.mark.parametrize("n", [24, 40])
def test_fig3_volume_plus_slicer_combo(benchmark, n):
    """The Fig. 3 top cell: volume raycast composited with a slice plane."""
    dataset = storm_case_study(nlat=n, nlon=n, nlev=max(n // 3, 6), ntime=4,
                               seed="fig3")
    volume_plot = VolumePlot(dataset("wspd"), center=0.8, width=0.3, colormap="jet")
    volume_plot.set_time_index(PEAK_TIME)
    slicer = SlicerPlot(dataset("wspd"), enabled_planes=("z",), colormap="jet")
    slicer.set_time_index(PEAK_TIME)

    def render_combo():
        scene = volume_plot.build_scene()
        for actor in slicer.build_scene().actors:
            if actor.name.startswith("slice"):
                scene.add_actor(actor)
        return Renderer(200, 150).render(scene, volume_plot.default_camera())

    benchmark.group = "fig3-render"
    fb = benchmark(render_combo)
    assert fb.color.max() > 0.1


def test_fig3_two_variable_comparison_semantics():
    """The scientific point of the plot: surface colors track variable B."""
    plot = storm_plot(40)
    surface = plot.extract_surface()
    # tcore = 0.35*wspd + 250 on an isosurface of wspd ⇒ sampled tcore is
    # nearly constant; its spread must be far below the full field spread
    sampled_spread = float(np.ptp(surface.scalars))
    full_spread = float(np.ptp(plot.color_variable.filled(250.0)))
    report(
        "Fig.3: isosurface-of-A colored-by-B consistency",
        [("tcore spread on wspd isosurface", f"{sampled_spread:.2f} K"),
         ("tcore spread over the full field", f"{full_spread:.2f} K")],
    )
    assert sampled_spread < 0.35 * full_spread
