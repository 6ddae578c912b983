"""One gesture sequence, three paths, one outcome.

A gesture is one :class:`~repro.dv3d.interaction.Gesture` record on one
path — :meth:`DV3DCell.handle_event` — whether a spreadsheet's
:class:`SyncGroup` applies it, a saved :class:`Macro` replays it, or the
hyperwall broadcasts it to its mirror and display nodes.  So a seeded
sequence over a mixed sheet (slicer, volume, isosurface, Hovmöller),
including gestures only some plot types bind, leaves every cell in the
same state on every path, and a cell re-homed after a lost client
replays its way to that state too.  A malformed gesture is refused
before any cell, node or history sees it.
"""

import json
import random

import pytest

from repro import obs
from repro.app.session import Macro, MacroRecorder
from repro.dv3d.interaction import Gesture
from repro.hyperwall import protocol
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.resilience import faults
from repro.spreadsheet.sheet import CellBinding, Spreadsheet
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import DV3DError
from repro.util.framing import WireFrame
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

PLOTS = ("Slicer", "VolumeRender", "Isosurface", "HovmollerSlicer")
WALL = WallGeometry(columns=2, rows=2, tile_width=48, tile_height=36)

#: gestures only some of PLOTS bind, one no plot binds (``q``, and
#: ``m``: no vector slicer here), and one configure
REQUIRED = [
    Gesture("key", {"key": "x"}),
    Gesture("key", {"key": "m"}),
    Gesture("key", {"key": "q"}),
    Gesture("drag", {"dx": 0.1, "dy": 0.05, "mode": "leveling"}),
    Gesture("drag", {"dx": 0.0, "dy": 0.25, "mode": "slice:z"}),
    Gesture("drag", {"dx": 0.0, "dy": 0.1, "mode": "isovalue"}),
    Gesture("configure", {"state": {"plot": {"time_index": 2}}}),
]

#: a macro as earlier releases saved it (``json.dumps(indent=1)``;
#: a drag's integer ``dy`` as the caller passed it)
EARLIER_MACRO = """{
 "name": "tour",
 "steps": [
  {
   "kind": "key",
   "payload": {
    "key": "c"
   }
  },
  {
   "kind": "drag",
   "payload": {
    "dx": 0.1,
    "dy": 0,
    "mode": "camera"
   }
  }
 ]
}"""


def gesture_sequence(seed="one-gesture", extra=13):
    """REQUIRED plus *extra* seeded keys and drags, in seeded order."""
    rng = random.Random(seed)
    steps = list(REQUIRED)
    for _ in range(extra):
        if rng.random() < 0.5:
            steps.append(Gesture("key", {"key": rng.choice("citTrxyz")}))
        else:
            steps.append(Gesture("drag", {
                "dx": round(rng.uniform(-0.3, 0.3), 3),
                "dy": round(rng.uniform(-0.3, 0.3), 3),
                "mode": rng.choice(["camera", "zoom", "pan", "leveling:color",
                                    "slice:x", "isovalue"]),
            }))
    rng.shuffle(steps)
    return steps


@pytest.fixture(autouse=True)
def clean_faults():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture()
def workflow(registry):
    """Four cells, one per plot type, and their sink ids in sheet order."""
    p = Pipeline(registry)
    sinks = [build_cell_chain(p, width=48, height=36, plot=plot)["cell"] for plot in PLOTS]
    return p, sinks


def make_sheet(workflow):
    """A 2×2 sheet of freshly executed cells, row-major in sink order."""
    p, sinks = workflow
    result = Executor(caching=False).execute(p)
    sheet = Spreadsheet("wall", 2, 2)
    for index, sink in enumerate(sinks):
        slot = sheet.place(*divmod(index, 2), CellBinding("wf", 0, sink))
        slot.cell = result.output(sink, "cell")
    return sheet, SyncGroup(sheet)


def states(sheet):
    return [cell.plot.state() for cell in sheet.live_cells()]


def wall_cell(hw, cell_id):
    """The cell *cell_id* on the node that holds it now."""
    return hw.nodes[hw._owners()[cell_id]].cells[cell_id]


def test_one_sequence_three_paths_one_outcome(workflow, tmp_path):
    p, sinks = workflow
    sequence = gesture_sequence()
    assert len(sequence) == 20

    # (a) applied on a sheet, recorded
    sheet_a, group_a = make_sheet(workflow)
    recorder = MacroRecorder("tour", group_a)
    recorder.start()
    sheet_deltas = [group_a.apply(g.kind, **g.payload) for g in sequence]
    macro = recorder.stop()
    assert macro.steps == sequence
    expected = states(sheet_a)
    # the sequence exercised the heterogeneous rule: some gesture was
    # bound by some cells and ignored by others
    assert any({} in deltas and any(deltas) for deltas in sheet_deltas)

    # (b) saved, loaded, replayed on a fresh sheet
    macro.save(tmp_path / "tour.json")
    loaded = Macro.load(tmp_path / "tour.json")
    assert loaded.steps == sequence
    sheet_b, group_b = make_sheet(workflow)
    assert loaded.replay(group_b.apply) == len(sequence)
    assert states(sheet_b) == expected
    assert group_b.history == sequence

    # (c) replayed on a 4-cell wall
    hw = InProcessHyperwall(p, WALL)
    hw.execute_all()
    acks = []
    loaded.replay(lambda kind, **payload: acks.append(hw.broadcast_event(kind, **payload)))
    assert hw.event_history == sequence
    assert [wall_cell(hw, sink).plot.state() for sink in sinks] == expected
    assert all(hw.consistency_check().values())
    owners = hw._owners()
    for step, (deltas, ack) in enumerate(zip(sheet_deltas, acks)):
        acked = [ack["clients"][owners[sink]][sink] for sink in sinks]
        assert acked == [sorted(delta) for delta in deltas], f"step {step}"

    # lose client 0: its cell is re-homed and replays the session
    lost = hw.assignment[0]
    faults.arm("hyperwall.server.recv", "drop", match={"client": 0})
    reports = {r["cell_id"]: r for r in hw.request_renders()}
    assert reports[lost]["status"] == "reassigned"
    rehomed = hw.nodes[reports[lost]["reassigned_to"]].cells[lost]
    assert rehomed.plot.state() == expected[sinks.index(lost)]
    assert all(hw.consistency_check().values())


def test_a_macro_saved_by_an_earlier_release_loads_and_replays(workflow, tmp_path):
    path = tmp_path / "earlier.macro.json"
    path.write_text(EARLIER_MACRO)
    macro = Macro.load(path)
    assert macro.name == "tour"
    assert macro.steps == [
        Gesture("key", {"key": "c"}),
        Gesture("drag", {"dx": 0.1, "dy": 0.0, "mode": "camera"}),
    ]
    assert json.loads(json.dumps(macro.to_dict())) == json.loads(EARLIER_MACRO)

    replayed, _ = make_sheet(workflow)
    macro.replay(SyncGroup(replayed).apply)
    direct, group = make_sheet(workflow)
    group.key("c")
    group.drag(0.1, 0, "camera")
    assert states(replayed) == states(direct)


# -- a malformed gesture is refused before anyone sees it ------------------

MALFORMED = [
    ("teleport", {}),
    ("drag", {"dx": 0.1, "dy": 0, "mode": "warp"}),
    ("key", {}),
    ("key", {"key": "c", "extra": 1}),
    ("drag", {"dx": "far", "mode": "camera"}),
    ("configure", {"state": [1, 2]}),
]


def _wall(hw, _sheet, _group):
    with obs.recording() as rec:
        for kind, payload in MALFORMED:
            with pytest.raises(DV3DError):
                hw.broadcast_event(kind, **payload)
    assert rec.counter_total("protocol.frames.sent") == 0  # nothing sent
    assert hw.event_history == []


def _sheet(_hw, _sheet, group):
    recorder = MacroRecorder("tour", group)
    recorder.start()
    with pytest.raises(DV3DError):
        group.drag(0.1, 0.0, "warp")
    for kind, payload in MALFORMED:
        with pytest.raises(DV3DError):
            group.apply(kind, **payload)
    assert group.history == []
    assert recorder.stop().steps == []


def _frame(hw, _sheet, _group):
    node, cell_id = hw.nodes[0], hw.assignment[0]
    metas = [
        {"event": {"key": "t"}},  # no gesture at all
        {"event_kind": "key", "event": {"key": "t"}},  # the flat spelling
        {"payload": {"key": "t"}},
        {"kind": "key", "payload": {"key": 5}},
        {"kind": "key", "payload": "t"},
    ]
    for meta in metas:
        reply = node.handle(WireFrame(protocol.KIND_EVENT, dict(meta, cell_id=cell_id)))
        assert reply.kind == protocol.KIND_ERROR, meta


@pytest.mark.parametrize("attempt", [_wall, _sheet, _frame], ids=["wall", "sheet", "frame"])
def test_a_malformed_gesture_is_refused_before_anyone_sees_it(workflow, attempt):
    p, sinks = workflow
    hw = InProcessHyperwall(p, WALL)
    hw.execute_all()
    sheet, group = make_sheet(workflow)
    before = states(sheet), [wall_cell(hw, s).plot.state() for s in sinks]
    attempt(hw, sheet, group)
    after = states(sheet), [wall_cell(hw, s).plot.state() for s in sinks]
    assert after == before
    assert all(hw.consistency_check().values())
