"""Shared benchmark fixtures and reporting helpers.

Each ``bench_fig*.py`` file regenerates the content of one paper figure
(the paper is a tool paper — its figures are screenshots and
architecture diagrams, so "regenerating" one means executing the
pipeline the figure depicts and reporting its quantitative
characteristics).  EXPERIMENTS.md records the measured numbers next to
the paper's qualitative claims.
"""

from __future__ import annotations

import pytest

from repro.workflow.pipeline import Pipeline
from repro.workflow.registry import global_registry

#: moderate workload: big enough to be meaningful, small enough to sweep
BENCH_SIZE = {"nlat": 46, "nlon": 72, "nlev": 12, "ntime": 4}


@pytest.fixture(scope="session")
def registry():
    return global_registry()


def build_cell_chain(
    pipeline: Pipeline,
    plot: str = "Slicer",
    variable: str = "ta",
    width: int = 128,
    height: int = 96,
    size: dict | None = None,
) -> dict:
    """One reader → variable → plot → cell chain; returns module ids."""
    reader = pipeline.add_module(
        "CDMSDatasetReader",
        {"source": "synthetic_reanalysis", "size": dict(size or BENCH_SIZE)},
    )
    var = pipeline.add_module("CDMSVariableReader", {"variable": variable})
    plot_id = pipeline.add_module(plot)
    cell = pipeline.add_module("DV3DCell", {"width": width, "height": height})
    pipeline.add_connection(reader, "dataset", var, "dataset")
    pipeline.add_connection(var, "variable", plot_id, "variable")
    pipeline.add_connection(plot_id, "plot", cell, "plot")
    return {"reader": reader, "variable": var, "plot": plot_id, "cell": cell}


def redraw(target, width: int, height: int):
    """One full frame of a plot or cell, drawn from its kept volume.

    A plot keeps its built scene and a cell its last frame, so an
    unchanged ``render`` is a lookup.  Inverting the colour map first is
    a state change that keeps the translated volume: every round builds
    the scene, furnishes it and draws it — what these benchmarks timed
    before the memos existed.
    """
    getattr(target, "plot", target).invert_colormap()
    return target.render(width, height)


def report(title: str, rows: list[tuple]) -> None:
    """Print a small aligned table into the benchmark output."""
    print(f"\n--- {title} ---")
    for row in rows:
        print("   ", " | ".join(str(item) for item in row))
