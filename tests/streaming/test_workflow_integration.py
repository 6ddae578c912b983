"""Streaming through the workflow layer and hyperwall partitions.

``CDMSDatasetReader`` has a ``streaming`` parameter: for ``.cdz``
sources, ``on`` streams wherever the container has chunks (a legacy v1
file has none and loads whole); the rendered image must not depend on
the ingest mode.  A partitioned
hyperwall pipeline exercises the per-cell path: each cell's
sub-workflow opens its own streaming source and reads only the chunks
its plot touches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdms.lazy import LazyVariable
from repro.data import catalog
from repro.hyperwall.partition import partition_by_cell
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline


SIZE = dict(nlat=12, nlon=16, nlev=4, ntime=3)


@pytest.fixture(scope="module")
def v2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("wf") / "r2.cdz"
    catalog.synthetic_reanalysis(**SIZE).save(path)
    return path


@pytest.fixture()
def executor():
    return Executor(caching=False)


def slicer_pipeline(registry, source, streaming, variable="ta"):
    p = Pipeline(registry)
    reader = p.add_module(
        "CDMSDatasetReader", {"source": str(source), "streaming": streaming}
    )
    var = p.add_module("CDMSVariableReader", {"variable": variable})
    plot = p.add_module("Slicer")
    cell = p.add_module("DV3DCell", {"width": 32, "height": 24})
    p.add_connection(reader, "dataset", var, "dataset")
    p.add_connection(var, "variable", plot, "variable")
    p.add_connection(plot, "plot", cell, "plot")
    return p, reader, cell


class TestReaderParameter:
    def test_streaming_on_yields_lazy_dataset(self, registry, executor, v2_file):
        p, reader, _ = slicer_pipeline(registry, v2_file, "on")
        with executor.execute(p).output(reader, "dataset") as ds:
            assert isinstance(ds.get_variable("ta"), LazyVariable)

    def test_default_streams_v2_loads_v1(self, registry, executor, v1_path, v2_file):
        for source, streams in ((v1_path, False), (v2_file, True)):
            p = Pipeline(registry)
            reader = p.add_module("CDMSDatasetReader", {"source": str(source)})
            dataset = executor.execute(p).output(reader, "dataset")
            assert dataset.is_streaming is streams
            dataset.close()

    def test_image_identical_across_modes(self, registry, executor, v2_file):
        images = {}
        for mode in ("on", "off"):
            p, reader, cell = slicer_pipeline(registry, v2_file, mode)
            result = executor.execute(p)
            images[mode] = result.output(cell, "image")
            result.output(reader, "dataset").close()
        assert np.array_equal(images["on"], images["off"])


class TestHyperwallPartition:
    def test_per_cell_streaming_matches_monolithic(
        self, registry, executor, v2_file
    ):
        p = Pipeline(registry)
        reader = p.add_module(
            "CDMSDatasetReader", {"source": str(v2_file), "streaming": "on"}
        )
        cells = []
        for variable in ("ta", "hus"):
            var = p.add_module("CDMSVariableReader", {"variable": variable})
            plot = p.add_module("Slicer")
            cell = p.add_module("DV3DCell", {"width": 24, "height": 18})
            p.add_connection(reader, "dataset", var, "dataset")
            p.add_connection(var, "variable", plot, "variable")
            p.add_connection(plot, "plot", cell, "plot")
            cells.append(cell)

        whole = executor.execute(p)
        partitions = partition_by_cell(p)
        for cell in cells:
            sub = Executor(caching=False).execute(partitions[cell])
            sub_image = sub.output(cell, "image")
            sub.output(reader, "dataset").close()
            assert np.array_equal(sub_image, whole.output(cell, "image"))
        whole.output(reader, "dataset").close()
