"""``Project.execute_cell`` runs the bound version, and owns what it ran.

The current version's pipeline is a copy of the vistrail's working
pipeline (no replay from the root); an older version is replayed.
Either way a later edit reaches neither the pipeline the executor ran
nor the cell it built, and a slot is watched by exactly one finalizer
however often its execution fails.
"""

import gc
import hashlib
import weakref

import pytest

from repro.hyperwall.client import DisplayNode
from repro.rendering.ppm import ppm_bytes
from repro.util.errors import ModuleExecutionError
from tests.spreadsheet.test_cell_host import HEIGHT, WIDTH, sheet_app


def frame_digest(cell) -> str:
    return hashlib.sha256(ppm_bytes(cell.render(WIDTH, HEIGHT).to_uint8())).hexdigest()


def slot_and_vistrail(app):
    slot = app.project.sheets["main"].get(0, 0)
    return slot, app.project.get_vistrail(slot.binding.vistrail_name)


def finalizers_of(obj) -> int:
    return sum(1 for f in list(weakref.finalize._registry) if (f.peek() or (None,))[0] is obj)


def test_a_later_edit_reaches_neither_the_executed_pipeline_nor_the_kept_cell(registry, monkeypatch):
    app = sheet_app(registry)
    slot, vistrail = slot_and_vistrail(app)
    ran = []
    execute = DisplayNode.execute
    monkeypatch.setattr(
        DisplayNode, "execute",
        lambda node, key, pipeline, sink: ran.append(pipeline) or execute(node, key, pipeline, sink),
    )
    cell = app.project.execute_cell("main", 0, 0)
    before_pipeline, before_state = ran[0].to_dict(), cell.state()
    vistrail.set_parameter(slot.binding.sink_module_id, "dataset_label", "EDITED")
    assert ran[0] is not vistrail.pipeline
    assert ran[0].to_dict() == before_pipeline
    assert app.project.node.cells[id(slot)] is cell
    assert cell.state() == before_state and cell.dataset_label != "EDITED"


def test_a_slot_bound_to_an_older_version_renders_that_version(registry):
    app = sheet_app(registry)
    slot, vistrail = slot_and_vistrail(app)
    older = slot.binding.version
    vistrail.set_parameter(slot.binding.sink_module_id, "dataset_label", "NEWER")
    assert vistrail.current_version != older
    in_sheet = frame_digest(app.project.execute_cell("main", 0, 0))
    fresh = DisplayNode(0)
    replayed = vistrail.tree.materialize(older, registry)
    fresh_cell = fresh.execute("fresh", replayed, slot.binding.sink_module_id).output(
        slot.binding.sink_module_id, "cell")
    assert in_sheet == frame_digest(fresh_cell)
    slot.binding.version = vistrail.current_version
    assert frame_digest(app.project.execute_cell("main", 0, 0)) != in_sheet


def test_failing_re_executes_register_one_finalizer(registry):
    app = sheet_app(registry)
    slot, vistrail = slot_and_vistrail(app)
    reader = vistrail.pipeline.modules_of_type("CDMSVariableReader")[0]
    vistrail.set_parameter(reader, "variable", "no_such_variable")
    slot.binding.version = vistrail.current_version
    for _ in range(3):
        with pytest.raises(ModuleExecutionError):
            app.project.execute_cell("main", 0, 0)
    assert finalizers_of(slot) == 1
    vistrail.set_parameter(reader, "variable", "ta")
    slot.binding.version = vistrail.current_version
    cell = weakref.ref(app.project.execute_cell("main", 0, 0))
    assert finalizers_of(slot) == 1
    app.project.sheets["main"].remove(0, 0)
    del slot
    gc.collect()
    assert cell() is None
    assert app.project.node.cells == {}
