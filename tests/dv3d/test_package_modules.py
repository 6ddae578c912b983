"""The cdms/cdat/dv3d workflow-module packages (§III.G chains)."""

import numpy as np
import pytest

from repro.dv3d.view import View
from repro.util.errors import ModuleExecutionError
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline

SIZE = {"nlat": 12, "nlon": 16, "nlev": 4, "ntime": 2}


@pytest.fixture()
def executor():
    return Executor(caching=False)


def reader_chain(pipeline, variable="ta", selector=None):
    reader = pipeline.add_module(
        "CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": SIZE}
    )
    var = pipeline.add_module(
        "CDMSVariableReader",
        {"variable": variable, "selector": selector or {}},
    )
    pipeline.add_connection(reader, "dataset", var, "dataset")
    return reader, var


class TestCDMSModules:
    def test_dataset_reader_synthetic(self, registry, executor):
        p = Pipeline(registry)
        reader = p.add_module(
            "CDMSDatasetReader", {"source": "storm_case_study",
                                  "size": {"nlat": 8, "nlon": 8, "nlev": 3, "ntime": 2}}
        )
        ds = executor.execute(p).output(reader, "dataset")
        assert "wspd" in ds

    def test_dataset_reader_cdz_path(self, registry, executor, tmp_path, storm):
        path = tmp_path / "s.cdz"
        storm.save(path)
        p = Pipeline(registry)
        reader = p.add_module("CDMSDatasetReader", {"source": str(path)})
        ds = executor.execute(p).output(reader, "dataset")
        assert set(ds.variable_ids) == {"tcore", "wspd"}

    def test_dataset_reader_unknown_source(self, registry, executor):
        p = Pipeline(registry)
        p.add_module("CDMSDatasetReader", {"source": "marsnet"})
        with pytest.raises(ModuleExecutionError):
            executor.execute(p)

    def test_variable_reader_with_selector(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p, "ta", selector={"latitude": [-30, 30], "level": 500})
        result = executor.execute(p).output(var, "variable")
        assert result.get_latitude().values.max() <= 30
        assert len(result.get_level()) == 1

    def test_variable_reader_requires_name(self, registry, executor):
        p = Pipeline(registry)
        reader = p.add_module("CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": SIZE})
        var = p.add_module("CDMSVariableReader")
        p.add_connection(reader, "dataset", var, "dataset")
        with pytest.raises(ModuleExecutionError):
            executor.execute(p)

    def test_regrid_module(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        regrid = p.add_module("CDMSRegrid", {"nlat": 6, "nlon": 8, "method": "conservative"})
        p.add_connection(var, "variable", regrid, "variable")
        out = executor.execute(p).output(regrid, "variable")
        assert out.get_grid().shape == (6, 8)


class TestCDATModule:
    def test_single_variable_operation(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        op = p.add_module("CDATOperation", {"operation": "anomalies"})
        p.add_connection(var, "variable", op, "variable")
        out = executor.execute(p).output(op, "variable")
        assert out.shape == (2, 4, 12, 16)

    def test_two_variable_operation(self, registry, executor):
        p = Pipeline(registry)
        _, var_a = reader_chain(p, "ta")
        _, var_b = reader_chain(p, "zg")
        op = p.add_module("CDATOperation", {"operation": "correlation"})
        p.add_connection(var_a, "variable", op, "variable")
        p.add_connection(var_b, "variable", op, "variable2")
        result = executor.execute(p).output(op, "result")
        assert -1.0 <= result <= 1.0

    def test_two_variable_operation_missing_input(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        op = p.add_module("CDATOperation", {"operation": "correlation"})
        p.add_connection(var, "variable", op, "variable")
        with pytest.raises(ModuleExecutionError):
            executor.execute(p)

    def test_operation_with_args(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        op = p.add_module("CDATOperation", {"operation": "scale", "args": {"factor": 2.0}})
        p.add_connection(var, "variable", op, "variable")
        out = executor.execute(p).output(op, "variable")
        assert float(out.max()) > 400  # temperatures doubled


class TestDV3DModules:
    @pytest.mark.parametrize("plot_module", ["Slicer", "VolumeRender", "Isosurface"])
    def test_plot_to_cell_chain(self, registry, executor, plot_module):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        plot = p.add_module(plot_module)
        cell = p.add_module("DV3DCell", {"width": 48, "height": 36})
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        result = executor.execute(p)
        image = View(48, 36).draw(result.output(cell, "cell")).to_uint8()
        assert image.shape == (36, 48, 3)
        assert image.dtype == np.uint8

    def test_hovmoller_chain(self, registry, executor):
        p = Pipeline(registry)
        reader = p.add_module(
            "CDMSDatasetReader",
            {"source": "wave_case_study", "size": {"nlon": 24, "nlat": 8, "ntime": 20}},
        )
        var = p.add_module("CDMSVariableReader", {"variable": "olr_anom"})
        plot = p.add_module("HovmollerSlicer")
        cell = p.add_module("DV3DCell", {"width": 40, "height": 30})
        p.add_connection(reader, "dataset", var, "dataset")
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        image = View(40, 30).draw(executor.execute(p).output(cell, "cell")).to_uint8()
        assert image.shape == (30, 40, 3)

    def test_vector_slicer_chain(self, registry, executor):
        p = Pipeline(registry)
        _, u = reader_chain(p, "ua")
        _, v = reader_chain(p, "va")
        plot = p.add_module("VectorSlicer")
        cell = p.add_module("DV3DCell", {"width": 40, "height": 30})
        p.add_connection(u, "variable", plot, "u")
        p.add_connection(v, "variable", plot, "v")
        p.add_connection(plot, "plot", cell, "plot")
        image = View(40, 30).draw(executor.execute(p).output(cell, "cell")).to_uint8()
        assert image.shape == (30, 40, 3)

    def test_translation_module(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        trans = p.add_module("VolumeData", {"time_index": 1})
        p.add_connection(var, "variable", trans, "variable")
        volume = executor.execute(p).output(trans, "image_data")
        assert volume.dimensions == (16, 12, 4)

    def test_plot_state_parameter_applied(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        plot = p.add_module("Slicer", {"state": {"time_index": 1}})
        cell = p.add_module("DV3DCell", {"width": 32, "height": 24})
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        live = executor.execute(p).output(cell, "cell")
        assert live.plot.time_index == 1

    def test_cell_state_parameter_applied(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        plot = p.add_module("Slicer")
        cell = p.add_module(
            "DV3DCell",
            {"width": 32, "height": 24, "cell_state": {"show_basemap": False}},
        )
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        live = executor.execute(p).output(cell, "cell")
        assert live.show_basemap is False

    def test_volume_slicer_combined_module(self, registry, executor):
        p = Pipeline(registry)
        _, var = reader_chain(p)
        plot = p.add_module("VolumeSlicer")
        cell = p.add_module("DV3DCell", {"width": 40, "height": 30})
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        result = executor.execute(p)
        live = result.output(cell, "cell")
        assert live.plot.plot_type == "combined"
        assert len(live.plot.components) == 2
        assert View(40, 30).draw(live).to_uint8().shape == (30, 40, 3)

    def test_plot_objects_not_shared_between_branches(self, registry):
        """Two identical chains must produce independent live cells."""
        ex = Executor(caching=True)
        p = Pipeline(registry)
        cells = []
        for _ in range(2):
            _, var = reader_chain(p)
            plot = p.add_module("Slicer")
            cell = p.add_module("DV3DCell", {"width": 24, "height": 18})
            p.add_connection(var, "variable", plot, "variable")
            p.add_connection(plot, "plot", cell, "plot")
            cells.append(cell)
        result = ex.execute(p)
        live_a = result.output(cells[0], "cell")
        live_b = result.output(cells[1], "cell")
        assert live_a is not live_b
        assert live_a.plot is not live_b.plot
