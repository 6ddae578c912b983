"""Workflow-module packages: cdms, cdat and dv3d.

This module is the integration point Fig. 1 depicts: the CDAT and DV3D
module suites registered with the workflow system through the package
mechanism ("tightly coupled integration").  A DV3D workflow built from
these modules follows §III.G exactly:

    CDMSDatasetReader → CDMSVariableReader (subset) → [CDATOperation ...]
        → a DV3D plot module → DV3DCell

The cell module builds the live cell; its host draws it, through a
:class:`~repro.dv3d.view.View`.
"""

from __future__ import annotations

import os
from typing import Any, Dict


from repro.cdms.dataset import Dataset, open_dataset
from repro.cdms.grid import uniform_grid
from repro.cdms.selectors import Selector
from repro.cdms.variable import Variable
from repro.dv3d.cell import DV3DCell
from repro.dv3d.hovmoller import HovmollerSlicerPlot, HovmollerVolumePlot
from repro.dv3d.isosurface import IsosurfacePlot
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.translation import translate_variable
from repro.dv3d.vector_slicer import VectorSlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.util.errors import NotFoundError, WorkflowError
from repro.workflow.module import Module, ParameterSpec
from repro.workflow.package import Package
from repro.workflow.ports import PortSpec

# ---------------------------------------------------------------------------
# cdms package
# ---------------------------------------------------------------------------


class CDMSDatasetReader(Module):
    """Open a dataset from a ``.cdz`` path, an ``esg://`` URI, or the
    synthetic catalog.

    ``source`` is one of: a filesystem path ending in ``.cdz``; an
    ``esg://<dataset_id>`` URI fetched through the simulated Earth
    System Grid federation (the paper's remote-data path); or a
    synthetic catalog name (``synthetic_reanalysis``,
    ``storm_case_study``, ``wave_case_study``).  ``size`` optionally
    overrides generator dimensions, e.g. ``{"nlat": 24, "nlon": 36}``.
    ``streaming`` applies to ``.cdz`` paths: ``on`` (the default) hands
    out lazy variables wherever the container has chunks, ``off`` loads
    every variable whole.
    """

    name = "CDMSDatasetReader"
    output_ports = (PortSpec("dataset", "dataset"),)
    parameters = (
        ParameterSpec("source", "synthetic_reanalysis", "path, esg:// URI, or catalog name"),
        ParameterSpec("size", {}, "generator size overrides"),
        ParameterSpec("seed", "default", "generator seed namespace"),
        ParameterSpec(
            "streaming",
            "on",
            "out-of-core ingest for .cdz paths: on | off",
        ),
    )

    #: process-wide federation handle for esg:// sources (lazy)
    _federation = None

    @classmethod
    def _esg(cls):
        if cls._federation is None:
            from repro.esg.federation import default_federation

            cls._federation = default_federation()
        return cls._federation

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        source = str(self.parameter_values["source"])
        size = dict(self.parameter_values.get("size") or {})
        seed = str(self.parameter_values.get("seed", "default"))
        if source.startswith("esg://"):
            return {"dataset": self._esg().fetch(source[len("esg://"):])}
        if source.endswith(".cdz"):
            if not os.path.isfile(source):
                raise NotFoundError(f"no such .cdz container: {source}")
            # streamed, each hyperwall cell executing this module reads
            # only the chunks its own subset touches, instead of a
            # whole-array broadcast
            streaming = str(self.parameter_values.get("streaming", "on"))
            return {"dataset": open_dataset(source, streaming=streaming)}
        from repro.data import catalog

        if source not in catalog.GRID_MINIMA:
            raise NotFoundError(f"unknown dataset source {source!r}; use a .cdz path "
                                f"or one of {sorted(catalog.GRID_MINIMA)}")
        generate = getattr(catalog, source)
        return {"dataset": generate(seed=seed, **catalog.grid_size(source, size))}


class CDMSVariableReader(Module):
    """Select (and optionally subset) one variable from a dataset.

    ``selector`` holds JSON criteria, e.g.
    ``{"latitude": [-30, 30], "level": 500}`` — two-element lists become
    coordinate intervals, scalars become nearest-point selections.
    """

    name = "CDMSVariableReader"
    input_ports = (PortSpec("dataset", "dataset"),)
    output_ports = (PortSpec("variable", "variable"),)
    parameters = (
        ParameterSpec("variable", "", "variable id to read"),
        ParameterSpec("selector", {}, "coordinate subsetting criteria"),
    )

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        dataset: Dataset = inputs["dataset"]
        var_id = str(self.parameter_values["variable"])
        if not var_id:
            raise WorkflowError("CDMSVariableReader: 'variable' parameter not set")
        criteria: Dict[str, Any] = {}
        for key, value in dict(self.parameter_values.get("selector") or {}).items():
            criteria[key] = tuple(value) if isinstance(value, (list, tuple)) else value
        variable = dataset(var_id)
        if criteria:
            variable = variable(Selector(**criteria))
        return {"variable": variable}


class CDMSRegrid(Module):
    """Regrid a variable onto a uniform global grid."""

    name = "CDMSRegrid"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("variable", "variable"),)
    parameters = (
        ParameterSpec("nlat", 46, "target latitude count"),
        ParameterSpec("nlon", 72, "target longitude count"),
        ParameterSpec("method", "bilinear", "bilinear | conservative"),
    )

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        target = uniform_grid(int(self.parameter_values["nlat"]), int(self.parameter_values["nlon"]))
        return {
            "variable": inputs["variable"].regrid(
                target, str(self.parameter_values["method"])
            )
        }


def cdms_package() -> Package:
    pkg = Package("cdms", description="climate data access and subsetting")
    pkg.add(CDMSDatasetReader)
    pkg.add(CDMSVariableReader)
    pkg.add(CDMSRegrid)
    return pkg


# ---------------------------------------------------------------------------
# cdat package
# ---------------------------------------------------------------------------


class CDATOperation(Module):
    """Apply a named CDAT operation from the operation registry.

    One- or two-variable operations resolve by name (``operation``);
    extra keyword arguments come from ``args``.  Operations returning a
    scalar or a dict are passed through on the ``result`` port; the
    ``variable`` port carries Variable results (or echoes the input for
    scalar results, keeping downstream visualization connectable).
    """

    name = "CDATOperation"
    input_ports = (
        PortSpec("variable", "variable"),
        PortSpec("variable2", "variable", optional=True),
    )
    output_ports = (PortSpec("variable", "variable"), PortSpec("result", "any"))
    parameters = (
        ParameterSpec("operation", "anomalies", "registry operation name"),
        ParameterSpec("args", {}, "extra keyword arguments"),
    )

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.cdat.registry import default_registry

        registry = default_registry()
        op = registry.get(str(self.parameter_values["operation"]))
        kwargs = dict(self.parameter_values.get("args") or {})
        args = [inputs["variable"]]
        if op.n_variables >= 2:
            if "variable2" not in inputs:
                raise WorkflowError(
                    f"operation {op.name!r} needs a second variable input"
                )
            args.append(inputs["variable2"])
        result = registry.apply_cached(op.name, *args, **kwargs)
        if isinstance(result, Variable):
            return {"variable": result, "result": result}
        if isinstance(result, tuple) and result and isinstance(result[0], Variable):
            return {"variable": result[0], "result": result}
        return {"variable": inputs["variable"], "result": result}


def cdat_package() -> Package:
    pkg = Package("cdat", description="climate data analysis operations")
    pkg.add(CDATOperation)
    return pkg


# ---------------------------------------------------------------------------
# dv3d package
# ---------------------------------------------------------------------------


class TranslationModule(Module):
    """Standalone CDMS → image-data translation (for custom pipelines)."""

    name = "VolumeData"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("image_data", "image_data"),)
    parameters = (
        ParameterSpec("time_index", 0, "time step to translate"),
        ParameterSpec("vertical_exaggeration", None, "world z units per km"),
    )

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        exaggeration = self.parameter_values["vertical_exaggeration"]
        return {
            "image_data": translate_variable(
                inputs["variable"],
                int(self.parameter_values["time_index"]),
                None if exaggeration is None else float(exaggeration),
            )
        }


class _PlotModule(Module):
    """Shared plumbing for the plot modules: common display parameters.

    Plot modules produce live, stateful plot objects, so they are not
    cacheable (a shared cached plot would couple unrelated cells).
    """

    cacheable = False
    parameters = (
        ParameterSpec("colormap", "default", "colormap name"),
        ParameterSpec("state", {}, "plot configuration state overrides"),
    )

    def _finish(self, plot) -> Dict[str, Any]:
        state = dict(self.parameter_values.get("state") or {})
        if state:
            plot.apply_state(state)
        return {"plot": plot}


class SlicerModule(_PlotModule):
    """The Slicer plot as a workflow module."""

    name = "Slicer"
    input_ports = (
        PortSpec("variable", "variable"),
        PortSpec("overlay", "variable", optional=True),
    )
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            SlicerPlot(
                inputs["variable"],
                overlay_variable=inputs.get("overlay"),
                colormap=str(self.parameter_values["colormap"]),
            )
        )


class VolumeRenderModule(_PlotModule):
    """The Volume render plot as a workflow module."""

    name = "VolumeRender"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            VolumePlot(inputs["variable"], colormap=str(self.parameter_values["colormap"]))
        )


class IsosurfaceModule(_PlotModule):
    """The Isosurface plot as a workflow module."""

    name = "Isosurface"
    input_ports = (
        PortSpec("variable", "variable"),
        PortSpec("color_variable", "variable", optional=True),
    )
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            IsosurfacePlot(
                inputs["variable"],
                color_variable=inputs.get("color_variable"),
                colormap=str(self.parameter_values["colormap"]),
            )
        )


class HovmollerSlicerModule(_PlotModule):
    """The Hovmöller slicer plot as a workflow module."""

    name = "HovmollerSlicer"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            HovmollerSlicerPlot(
                inputs["variable"], colormap=str(self.parameter_values["colormap"])
            )
        )


class HovmollerVolumeModule(_PlotModule):
    """The Hovmöller volume render plot as a workflow module."""

    name = "HovmollerVolume"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            HovmollerVolumePlot(
                inputs["variable"], colormap=str(self.parameter_values["colormap"])
            )
        )


class VectorSlicerModule(_PlotModule):
    """The Vector slicer plot as a workflow module."""

    name = "VectorSlicer"
    input_ports = (
        PortSpec("u", "variable"),
        PortSpec("v", "variable"),
        PortSpec("w", "variable", optional=True),
    )
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        return self._finish(
            VectorSlicerPlot(
                inputs["u"], inputs["v"], inputs.get("w"),
                colormap=str(self.parameter_values["colormap"]),
            )
        )


class VolumeSlicerModule(_PlotModule):
    """The Fig. 3 combination: volume render + slicer in one cell."""

    name = "VolumeSlicer"
    input_ports = (PortSpec("variable", "variable"),)
    output_ports = (PortSpec("plot", "plot"),)

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        from repro.dv3d.combined import CombinedPlot

        colormap = str(self.parameter_values["colormap"])
        combined = CombinedPlot([
            VolumePlot(inputs["variable"], colormap=colormap),
            SlicerPlot(inputs["variable"], enabled_planes=("z",), colormap=colormap),
        ])
        return self._finish(combined)


class DV3DCellModule(Module):
    """The workflow terminus: wrap a plot in a live cell; draw nothing.

    ``width``/``height`` are the size a host draws the cell at when it
    is asked for none (a wall tile's shipped size, the mirror's reduced
    one).
    """

    name = "DV3DCell"
    cacheable = False  # cells are live interactive objects
    input_ports = (PortSpec("plot", "plot"),)
    output_ports = (PortSpec("cell", "cell"),)
    parameters = (
        ParameterSpec("width", 320, "draw width in pixels when a host asks for none"),
        ParameterSpec("height", 240, "draw height in pixels when a host asks for none"),
        ParameterSpec("dataset_label", "", "label shown in the cell"),
        ParameterSpec("show_basemap", True, "draw coastline base map"),
        ParameterSpec("show_labels", True, "draw text labels"),
        ParameterSpec("show_colorbar", True, "draw the colormap legend"),
        ParameterSpec("cell_state", {}, "cell configuration overrides"),
    )

    def compute(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        cell = DV3DCell(
            inputs["plot"],
            dataset_label=str(self.parameter_values["dataset_label"]),
            show_basemap=bool(self.parameter_values["show_basemap"]),
            show_labels=bool(self.parameter_values["show_labels"]),
            show_colorbar=bool(self.parameter_values["show_colorbar"]),
        )
        state = dict(self.parameter_values.get("cell_state") or {})
        if state:
            cell.apply_state(state)
        return {"cell": cell}


def dv3d_package() -> Package:
    pkg = Package("dv3d", description="DV3D interactive 3D climate plots")
    pkg.add(TranslationModule)
    pkg.add(SlicerModule)
    pkg.add(VolumeRenderModule)
    pkg.add(IsosurfaceModule)
    pkg.add(HovmollerSlicerModule)
    pkg.add(HovmollerVolumeModule)
    pkg.add(VectorSlicerModule)
    pkg.add(VolumeSlicerModule)
    pkg.add(DV3DCellModule)
    return pkg
