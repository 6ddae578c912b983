"""Synchronized cell interaction and project persistence/re-execution."""

import numpy as np
import pytest

from repro.dv3d.cell import DV3DCell
from repro.dv3d.interaction import Gesture
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.spreadsheet.project import Project
from repro.spreadsheet.sheet import CellBinding, Spreadsheet
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import SpreadsheetError
from tests.conftest import SMALL


@pytest.fixture()
def synced(ta):
    sheet = Spreadsheet("s", 1, 3)
    for col in range(3):
        slot = sheet.place(0, col, CellBinding("t", 0, col))
        plot = SlicerPlot(ta) if col < 2 else VolumePlot(ta)
        slot.cell = DV3DCell(plot)
    return sheet, SyncGroup(sheet)


class TestSync:
    def test_key_reaches_all_active(self, synced):
        sheet, group = synced
        deltas = group.key("t")
        assert len(deltas) == 3
        assert all(cell.plot.time_index == 1 for cell in sheet.live_cells())

    def test_inactive_cell_skipped(self, synced):
        sheet, group = synced
        sheet.set_active(0, 1, False)
        group.key("t")
        assert sheet.get(0, 0).cell.plot.time_index == 1
        assert sheet.get(0, 1).cell.plot.time_index == 0

    def test_drag_camera_synchronized(self, synced):
        sheet, group = synced
        group.drag(0.1, 0.0, "camera")
        cameras = [c.plot.camera for c in sheet.live_cells()]
        assert all(cam is not None for cam in cameras)

    def test_configure_propagates_state(self, synced):
        sheet, group = synced
        group.configure({"plot": {"time_index": 2}})
        assert all(c.plot.time_index == 2 for c in sheet.active_cells())

    def test_history_recorded(self, synced):
        _, group = synced
        group.key("c")
        group.drag(0.1, 0.2, "camera")
        assert group.history == [
            Gesture("key", {"key": "c"}),
            Gesture("drag", {"dx": 0.1, "dy": 0.2, "mode": "camera"}),
        ]

    def test_animate_step(self, synced):
        sheet, group = synced
        group.animate_step(+1)
        group.animate_step(-1)
        assert all(c.plot.time_index == 0 for c in sheet.active_cells())


class TestProject:
    def make_project(self, registry):
        project = Project("demo", registry)
        sheet = project.new_sheet("main", 1, 2)
        vistrail = project.new_vistrail("wf")
        reader = vistrail.add_module(
            "cdms:CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": dict(SMALL)}
        )
        var = vistrail.add_module("cdms:CDMSVariableReader", {"variable": "ta"})
        plot = vistrail.add_module("dv3d:Slicer")
        cell = vistrail.add_module("dv3d:DV3DCell", {"width": 32, "height": 24})
        vistrail.add_connection(reader, "dataset", var, "dataset")
        vistrail.add_connection(var, "variable", plot, "variable")
        vistrail.add_connection(plot, "plot", cell, "plot")
        vistrail.tag("slicer")
        sheet.place(0, 0, CellBinding("wf", vistrail.current_version, cell))
        return project

    def test_execute_cell_populates_slot(self, registry):
        project = self.make_project(registry)
        cell = project.execute_cell("main", 0, 0)
        assert project.sheets["main"].get(0, 0).cell is cell
        assert len(project.log) == 1
        assert project.log.entries[0].annotations["slot"] == [0, 0]

    def test_execute_empty_slot(self, registry):
        project = self.make_project(registry)
        with pytest.raises(SpreadsheetError):
            project.execute_cell("main", 0, 1)

    def test_execute_sheet(self, registry):
        project = self.make_project(registry)
        sheet = project.sheets["main"]
        sheet.copy_cell((0, 0), (0, 1))
        cells = project.execute_sheet("main")
        assert len(cells) == 2
        assert cells[0] is not cells[1]

    def test_duplicate_names_rejected(self, registry):
        project = self.make_project(registry)
        with pytest.raises(SpreadsheetError):
            project.new_sheet("main")
        with pytest.raises(SpreadsheetError):
            project.new_vistrail("wf")

    def test_save_load_reexecute(self, registry, tmp_path):
        project = self.make_project(registry)
        original = project.execute_cell("main", 0, 0)
        image_before = original.render(32, 24).to_uint8()
        project.save(tmp_path / "proj")
        loaded = Project.load(tmp_path / "proj", registry)
        assert sorted(loaded.sheets) == ["main"]
        assert sorted(loaded.vistrails) == ["wf"]
        assert len(loaded.log) == 1  # execution history restored
        regenerated = loaded.execute_cell("main", 0, 0)
        image_after = regenerated.render(32, 24).to_uint8()
        np.testing.assert_array_equal(image_before, image_after)

    def test_load_missing_directory(self, registry, tmp_path):
        with pytest.raises(SpreadsheetError):
            Project.load(tmp_path / "nothing", registry)
