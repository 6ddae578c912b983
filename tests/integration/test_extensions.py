"""Integration tests for the extension features: camera tours,
macro→hyperwall replay, esg:// workflow sources, registry filters."""

import numpy as np
import pytest

from repro.app.session import Macro, MacroRecorder
from repro.dv3d.animation import CameraTour
from repro.dv3d.cell import DV3DCell
from repro.dv3d.slicer import SlicerPlot
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.spreadsheet.sheet import CellBinding, Spreadsheet
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import DV3DError
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain


class TestCameraTour:
    def test_orbit_frames_differ(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        frames = CameraTour(plot).render_orbit(n_frames=4, width=32, height=24)
        assert len(frames) == 4
        assert not np.array_equal(frames[0], frames[2])

    def test_full_orbit_returns_to_start(self, ta):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        tour = CameraTour(plot)
        frames = tour.render_orbit(n_frames=4, total_azimuth_deg=360.0,
                                   width=32, height=24)
        # frame 0 at azimuth 0 equals a fresh render with the default camera
        fresh = plot.render(32, 24, camera=plot.default_camera()).to_uint8()
        np.testing.assert_array_equal(frames[0], fresh)

    def test_camera_restored(self, ta):
        plot = SlicerPlot(ta)
        plot.camera = plot.default_camera().orbit(33.0, 0.0)
        before = plot.camera
        CameraTour(plot).render_orbit(n_frames=2, width=16, height=12)
        assert plot.camera is before

    def test_save_orbit(self, ta, tmp_path):
        plot = SlicerPlot(ta, enabled_planes=("z",))
        paths = CameraTour(plot).save_orbit(tmp_path, n_frames=2,
                                            width=16, height=12)
        assert len(paths) == 2 and all(p.exists() for p in paths)

    def test_bad_frame_count(self, ta):
        with pytest.raises(DV3DError):
            CameraTour(SlicerPlot(ta)).render_orbit(n_frames=0)


class TestMacroToHyperwall:
    def test_recorded_macro_drives_the_wall(self, registry, ta):
        # record on a desktop spreadsheet
        sheet = Spreadsheet("desk", 1, 1)
        slot = sheet.place(0, 0, CellBinding("t", 0, 0))
        slot.cell = DV3DCell(SlicerPlot(ta))
        group = SyncGroup(sheet)
        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("c")
        group.key("t")
        macro = recorder.stop()

        # replay onto a hyperwall
        p = Pipeline(registry)
        for _ in range(2):
            build_cell_chain(p, width=24, height=18)
        hw = InProcessHyperwall(p, WallGeometry(2, 1, tile_width=24, tile_height=18))
        hw.execute_all()
        applied = macro.replay(hw.broadcast_event)
        assert applied == 2
        assert all(hw.consistency_check().values())
        # the wall cells now match the desktop cell's colormap/time state
        desk_state = slot.cell.plot.state()
        wall_state = hw.nodes[0].cells[hw.assignment[0]].plot.state()
        assert wall_state["colormap"] == desk_state["colormap"]
        assert wall_state["time_index"] == desk_state["time_index"]

    def test_unknown_step_rejected(self):
        with pytest.raises(DV3DError, match="warp"):
            Macro.from_dict({"name": "bad", "steps": [{"kind": "warp", "payload": {}}]})


class TestESGWorkflowSource:
    def test_esg_uri_reader(self, registry):
        p = Pipeline(registry)
        reader = p.add_module("CDMSDatasetReader", {"source": "esg://storm_case_study"})
        ds = Executor(caching=False).execute(p).output(reader, "dataset")
        assert "wspd" in ds

    def test_esg_uri_full_chain(self, registry):
        p = Pipeline(registry)
        reader = p.add_module("CDMSDatasetReader", {"source": "esg://wave_case_study"})
        var = p.add_module("CDMSVariableReader", {"variable": "olr_anom"})
        plot = p.add_module("HovmollerSlicer")
        cell = p.add_module("DV3DCell", {"width": 32, "height": 24})
        p.add_connection(reader, "dataset", var, "dataset")
        p.add_connection(var, "variable", plot, "variable")
        p.add_connection(plot, "plot", cell, "plot")
        image = Executor(caching=False).execute(p).output(cell, "image")
        assert image.shape == (24, 32, 3)

    def test_esg_uri_unknown_dataset(self, registry):
        from repro.util.errors import ModuleExecutionError

        p = Pipeline(registry)
        p.add_module("CDMSDatasetReader", {"source": "esg://mars_weather"})
        with pytest.raises(ModuleExecutionError):
            Executor(caching=False).execute(p)


class TestRegistryFilters:
    def test_filters_registered(self):
        from repro.cdat.registry import default_registry

        reg = default_registry()
        for name in ("spatial_smooth", "detrend", "bandpass"):
            assert name in reg

    def test_calculator_can_smooth(self, reanalysis):
        from repro.app.calculator import Calculator
        from repro.app.variable_view import VariableView

        view = VariableView()
        view.load(reanalysis, "ta")
        calc = Calculator(view)
        result = calc.assign("smoothed = spatial_smooth(ta, sigma_points=1.5)")
        assert "smoothed" in view
        assert result.shape == view.get("ta").shape
