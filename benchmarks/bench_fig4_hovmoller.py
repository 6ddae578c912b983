"""Figure 4 — the Hovmöller slicer and volume render plots.

The screenshot shows slice/volume views of a data volume with time as
the vertical dimension.  The benchmark regenerates both views over the
equatorial-wave case study, measures the time-spatialization translate
and render stages across series lengths, and verifies the scientific
content: the propagating waves' phase speeds recovered from the
Hovmöller volume match their construction parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import redraw, report
from repro.cdat.spectral import dominant_wave
from repro.data.catalog import wave_case_study
from repro.data.fields import equatorial_wave
from repro.dv3d.cell import DV3DCell
from repro.dv3d.hovmoller import HovmollerSlicerPlot, HovmollerVolumePlot
from repro.dv3d.translation import translate_hovmoller

SERIES_LENGTHS = [60, 120, 240]


def wave_variable(ntime: int):
    return equatorial_wave(nlon=144, nlat=32, ntime=ntime, wavenumber=4,
                           period_steps=30.0, eastward=True, seed="fig4")


@pytest.mark.parametrize("ntime", SERIES_LENGTHS)
def test_fig4_translate_time_as_z(benchmark, ntime):
    """Cost of restructuring a time series into a (lon, lat, time) volume."""
    wave = wave_variable(ntime)
    benchmark.group = "fig4-translate"
    volume = benchmark(lambda: translate_hovmoller(wave))
    assert volume.dimensions == (144, 32, ntime)


@pytest.mark.parametrize("ntime", [60, 120])
def test_fig4_slicer_render(benchmark, ntime):
    """Render the Hovmöller slicer cell (the figure's left view)."""
    plot = HovmollerSlicerPlot(wave_variable(ntime), colormap="coolwarm")
    cell = DV3DCell(plot, show_basemap=False, dataset_label="WAVES")
    benchmark.group = "fig4-render"
    fb = benchmark(lambda: redraw(cell, 200, 150))
    assert fb.coverage() > 0.02


def test_fig4_volume_render(benchmark):
    """Render the Hovmöller volume cell (the figure's right view)."""
    plot = HovmollerVolumePlot(wave_variable(60), center=0.85, width=0.2,
                               colormap="coolwarm")
    benchmark.group = "fig4-render"
    fb = benchmark(lambda: redraw(plot, 160, 120))
    assert fb.color.shape == (120, 160, 3)


def test_fig4_wave_content_verified():
    """The visual claim, checked numerically: both case-study modes recover
    their constructed wavenumber/period/direction from the diagram data."""
    dataset = wave_case_study(nlon=144, nlat=32, ntime=120, seed="fig4-check")
    rows = [("variable", "built (k, T, dir)", "recovered (k, T, dir)", "c (deg/step)")]
    for variable_id in ("olr_anom", "olr_west"):
        wave = dataset(variable_id)
        built = (
            wave.attributes["wavenumber"],
            wave.attributes["period_steps"],
            "E" if wave.attributes["eastward"] else "W",
        )
        result = dominant_wave(wave(latitude=0.0).squeeze())
        recovered = (
            int(result["wavenumber"]),
            round(1.0 / max(result["frequency"], 1e-9), 1),
            "E" if result["direction"] > 0 else "W",
        )
        rows.append((variable_id, built, recovered,
                     f"{result['phase_speed_deg_per_step']:+.2f}"))
        assert recovered[0] == built[0]
        assert recovered[2] == built[2]
        assert recovered[1] == pytest.approx(built[1], rel=0.25)
    report("Fig.4: Hovmöller wave content, constructed vs recovered", rows)


def test_fig4_diagram_extraction(benchmark):
    """Extracting the classic 2-D longitude×time diagram from the volume."""
    plot = HovmollerSlicerPlot(wave_variable(120))
    _ = plot.volume  # pre-translate
    benchmark.group = "fig4-translate"
    values, lons, times = benchmark(lambda: plot.diagram(latitude=0.0))
    assert values.shape == (144, 120)
    # wavenumber 4 ⇒ crests repeat every 36 grid points; over 5 steps the
    # pattern drifts east by 3 deg/step * 5 / 2.5 deg-per-point = 6 points
    crest0 = int(np.argmax(values[:, 0]))
    crest1 = int(np.argmax(values[:, 5]))
    shift = (crest1 - crest0) % 36
    assert abs(shift - 6) <= 2
