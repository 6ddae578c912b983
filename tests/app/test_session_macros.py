"""Session macros: record, replay, persist."""

import pytest

from repro.app.session import Macro, MacroRecorder
from repro.dv3d.cell import DV3DCell
from repro.dv3d.interaction import Gesture
from repro.dv3d.slicer import SlicerPlot
from repro.dv3d.volume import VolumePlot
from repro.spreadsheet.sheet import CellBinding, Spreadsheet
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import DV3DError, SpreadsheetError


def make_group(ta, plots=("slicer", "volume")):
    sheet = Spreadsheet("s", 1, len(plots))
    for col, kind in enumerate(plots):
        slot = sheet.place(0, col, CellBinding("t", 0, col))
        plot = SlicerPlot(ta) if kind == "slicer" else VolumePlot(ta)
        slot.cell = DV3DCell(plot)
    return sheet, SyncGroup(sheet)


class TestRecording:
    def test_record_and_stop(self, ta):
        _, group = make_group(ta)
        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("c")
        group.drag(0.1, 0.0, "camera")
        macro = recorder.stop()
        assert len(macro) == 2
        assert macro.steps[0] == Gesture("key", {"key": "c"})

    def test_only_records_while_running(self, ta):
        _, group = make_group(ta)
        group.key("c")  # before start: not recorded
        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("t")
        macro = recorder.stop()
        assert len(macro) == 1
        assert macro.steps[0].payload["key"] == "t"

    def test_double_start_rejected(self, ta):
        _, group = make_group(ta)
        recorder = MacroRecorder("x", group)
        recorder.start()
        with pytest.raises(SpreadsheetError):
            recorder.start()

    def test_stop_without_start(self, ta):
        _, group = make_group(ta)
        with pytest.raises(SpreadsheetError):
            MacroRecorder("x", group).stop()


class TestReplay:
    def test_replay_reproduces_state(self, ta):
        sheet_a, group_a = make_group(ta)
        recorder = MacroRecorder("tour", group_a)
        recorder.start()
        group_a.key("c")
        group_a.key("t")
        group_a.drag(0.0, 0.25, "slice:z")
        macro = recorder.stop()

        sheet_b, group_b = make_group(ta)
        applied = macro.replay(group_b.apply)
        assert applied == 3
        state_a = sheet_a.get(0, 0).cell.plot.state()
        state_b = sheet_b.get(0, 0).cell.plot.state()
        assert state_a["colormap"] == state_b["colormap"]
        assert state_a["time_index"] == state_b["time_index"]
        assert state_a["plane_positions"] == state_b["plane_positions"]

    def test_replay_on_different_layout(self, ta):
        """A macro recorded on two cells replays on a three-cell sheet."""
        _, group_a = make_group(ta)
        recorder = MacroRecorder("tour", group_a)
        recorder.start()
        group_a.key("c")
        macro = recorder.stop()
        sheet_b, group_b = make_group(ta, plots=("slicer", "slicer", "volume"))
        macro.replay(group_b.apply)
        names = {c.plot.colormap.name for c in sheet_b.live_cells()}
        assert len(names) == 1  # all three cycled together

    def test_configure_step(self, ta):
        sheet, group = make_group(ta)
        macro = Macro("conf", [Gesture("configure",
                                       {"state": {"plot": {"time_index": 2}}})])
        macro.replay(group.apply)
        assert all(c.plot.time_index == 2 for c in sheet.active_cells())

    def test_unknown_step_kind(self):
        with pytest.raises(DV3DError):
            Macro.from_dict({"name": "bad", "steps": [{"kind": "teleport", "payload": {}}]})


class TestPersistence:
    def test_json_roundtrip(self, ta, tmp_path):
        _, group = make_group(ta)
        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("c")
        group.drag(0.1, -0.2, "camera")
        macro = recorder.stop()
        path = tmp_path / "tour.macro.json"
        macro.save(path)
        loaded = Macro.load(path)
        assert loaded.name == "tour"
        assert [s.to_dict() for s in loaded.steps] == [s.to_dict() for s in macro.steps]

    def test_loaded_macro_replays(self, ta, tmp_path):
        _, group = make_group(ta)
        Macro("m", [Gesture("key", {"key": "t"})]).save(tmp_path / "m.json")
        loaded = Macro.load(tmp_path / "m.json")
        sheet, group2 = make_group(ta)
        loaded.replay(group2.apply)
        assert sheet.get(0, 0).cell.plot.time_index == 1

    def test_malformed_step(self):
        with pytest.raises(DV3DError):
            Gesture.from_dict({"kind": "key"})
