"""repro — a reproduction of "Exploratory Climate Data Visualization and
Analysis Using DV3D and UVCDAT" (Thomas Maxwell, SC 2012).

The package rebuilds the paper's full system in pure Python:

* :mod:`repro.cdms` — the climate data management layer (axes, grids,
  masked variables, selectors, datasets, regridding);
* :mod:`repro.cdat` — the analysis operation suite (weighted averages,
  climatologies, statistics, conditioned comparisons, ...);
* :mod:`repro.esg` — a simulated Earth System Grid federation;
* :mod:`repro.rendering` — a numpy software-rendering substrate (the
  VTK analog: cameras, transfer functions, marching tetrahedra, volume
  ray casting, streamlines, rasterization);
* :mod:`repro.workflow` / :mod:`repro.provenance` — the VisTrails-style
  workflow engine and change-action version-tree provenance;
* :mod:`repro.dv3d` — the paper's contribution: the Slicer, Volume,
  Isosurface, Hovmöller and Vector-slicer interactive plots plus the
  spreadsheet cell machinery;
* :mod:`repro.spreadsheet` / :mod:`repro.app` — the visualization
  spreadsheet and the UV-CDAT application facade;
* :mod:`repro.hyperwall` — the distributed (server + display clients)
  visualization framework;
* :mod:`repro.serving` — the multi-tenant async serving layer
  (request coalescing, admission control, per-tenant cache quotas);
* :mod:`repro.data` — deterministic, physically-structured synthetic
  climate datasets standing in for NASA model output.

Quick start::

    from repro.app import Application
    from repro.dv3d.view import View

    app = Application()
    app.new_project("demo")
    cell = app.create_plot(
        "Slicer", "main", (0, 0),
        dataset_source="synthetic_reanalysis",
        variables={"variable": "ta"},
        size={"nlat": 24, "nlon": 36, "nlev": 8, "ntime": 4},
    )
    View(400, 300).draw(cell).save("slicer.ppm")
"""

__version__ = "1.2.0"

__all__ = [
    "cdms",
    "cdat",
    "esg",
    "rendering",
    "workflow",
    "provenance",
    "dv3d",
    "spreadsheet",
    "hyperwall",
    "serving",
    "app",
    "data",
    "util",
]
