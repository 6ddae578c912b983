"""Golden-image regression suite for the DV3D plot types.

Each plot type is rendered at a fixed seed and size and its uint8
image must match the committed golden PPM under ``tests/goldens/``
within a small per-channel tolerance (absorbing cross-platform
libm/BLAS jitter without letting real regressions through).

Regenerate the goldens after an intentional rendering change with::

    pytest tests/rendering/test_golden_images.py --regen-goldens

or, to touch only specific plot types and leave the rest alone::

    pytest tests/rendering/test_golden_images.py --regen-goldens=volume,isosurface

Each regeneration prints a changed-pixel summary against the previous
golden, so an "intentional" change that unexpectedly shifts thousands
of pixels is visible right in the test output.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.dv3d.hovmoller import HovmollerSlicerPlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.rendering.ppm import read_ppm, write_ppm

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"
WIDTH, HEIGHT = 96, 72
#: per-channel uint8 tolerance vs the committed goldens (absorbs
#: platform jitter only)
GOLDEN_ATOL = 2


def _regen_summary(golden_path, image):
    """Changed-pixel diff vs the previous golden (for regen output)."""
    if not golden_path.exists():
        return "new golden (no previous image)"
    previous = read_ppm(golden_path)
    if previous.shape != image.shape:
        return f"size changed {previous.shape} -> {image.shape}"
    diff = np.abs(previous.astype(np.int16) - image.astype(np.int16))
    changed = int(np.count_nonzero(diff.max(axis=-1)))
    if changed == 0:
        return "byte-identical to previous golden"
    total = image.shape[0] * image.shape[1]
    return (
        f"{changed}/{total} pixels changed "
        f"({100.0 * changed / total:.1f}%), max channel delta {int(diff.max())}"
    )


def _build_plot(name, reanalysis, waves):
    if name == "volume":
        return VolumePlot(reanalysis("ta"), center=0.6, width=0.25)
    if name == "isosurface":
        return IsosurfacePlot(reanalysis("ta"), color_variable=reanalysis("hus"))
    if name == "slicer":
        return SlicerPlot(reanalysis("ta"))
    if name == "vector_slicer":
        return VectorSlicerPlot(
            reanalysis("ua"), reanalysis("va"), mode="streamlines", seed_density=8
        )
    if name == "hovmoller":
        return HovmollerSlicerPlot(waves("olr_anom"))
    raise AssertionError(name)


@pytest.mark.parametrize(
    "name", ["volume", "isosurface", "slicer", "vector_slicer", "hovmoller"]
)
def test_golden_image(name, reanalysis, waves, request):
    plot = _build_plot(name, reanalysis, waves)
    image = plot.render(WIDTH, HEIGHT).to_uint8()
    golden_path = GOLDEN_DIR / f"{name}.ppm"
    regen = request.config.getoption("--regen-goldens")
    if regen is not None:
        requested = [t.strip() for t in regen.split(",") if t.strip()]
        if regen == "all" or name in requested:
            summary = _regen_summary(golden_path, image)
            golden_path.parent.mkdir(parents=True, exist_ok=True)
            write_ppm(golden_path, image)
            pytest.skip(f"regenerated {golden_path.name}: {summary}")
        else:
            pytest.skip(f"{name} not in --regen-goldens={regen}")
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run pytest --regen-goldens"
    )
    golden = read_ppm(golden_path)
    assert golden.shape == image.shape
    diff = np.abs(golden.astype(np.int16) - image.astype(np.int16))
    assert int(diff.max()) <= GOLDEN_ATOL, (
        f"{name}: max channel deviation {int(diff.max())} > {GOLDEN_ATOL} "
        f"({int((diff > GOLDEN_ATOL).sum())} channels off)"
    )
