"""One cell host: a live cell lives in a display node, whoever executes it.

The spreadsheet (``Project.execute_cell``), the serving backend and a
hyperwall node's ``execute`` message all go through
``DisplayNode.execute``: an unchanged workflow returns the live cell —
nothing executes, nothing is drawn — and a changed one builds a new
cell in its place.  A slot's cell follows the slot (move, swap) and is
released with it.  The node also owns the executor memo: a module
output is kept while the upstream closure of some live cell names it.
"""

import gc
import hashlib
import weakref

import pytest

from repro import obs
from repro.app.application import Application
from repro.app.plot_palette import PlotPalette
from repro.hyperwall import protocol
from repro.hyperwall.client import DisplayNode
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.provenance.vistrail import Vistrail
from repro.rendering.ppm import ppm_bytes
from repro.serving import AppBackend, Request
from repro.util.errors import ModuleExecutionError
from repro.util.framing import WireFrame

SIZE = {"nlat": 12, "nlon": 16, "nlev": 4, "ntime": 2}
WIDTH, HEIGHT = 40, 30
TEMPLATES = ("Slicer", "Volume")


def drawn(recorder) -> tuple:
    """What the recorded work drew: (rays cast, triangles rasterized)."""
    return (
        recorder.counter_total("raycast.rays"),
        recorder.counter_total("rasterizer.triangles"),
    )


def sheet_app(registry, template="Slicer") -> Application:
    app = Application(registry)
    app.new_project("host")
    app.create_plot(
        template, "main", (0, 0), "synthetic_reanalysis", {"variable": "ta"},
        size=SIZE, cell_params={"width": WIDTH, "height": HEIGHT}, execute=False,
    )
    return app


def scene_params(template: str) -> dict:
    return {
        "template": template, "source": "synthetic_reanalysis",
        "variables": {"variable": "ta"}, "size": dict(SIZE),
        "width": WIDTH, "height": HEIGHT,
    }


def template_pipeline(registry, template: str):
    """The palette workflow the other two hosts build, and its cell id."""
    vistrail = Vistrail("wall", registry)
    ids = PlotPalette().get(template).instantiate(
        vistrail, "synthetic_reanalysis", {"variable": "ta"},
        size=SIZE, cell_params={"width": WIDTH, "height": HEIGHT},
    )
    return vistrail.pipeline, ids["cell"]


@pytest.mark.parametrize("template", TEMPLATES)
class TestAnUnchangedReExecuteIsTheLiveCell:
    def test_through_the_project(self, registry, template):
        app = sheet_app(registry, template)
        first = app.project.execute_cell("main", 0, 0)
        first.render(WIDTH, HEIGHT)
        with obs.recording() as rec:
            again = app.project.execute_cell("main", 0, 0)
            again.render(WIDTH, HEIGHT)
        assert again is first
        assert drawn(rec) == (0, 0)
        # the log still records the re-execute: one cached run of the sink
        entry = app.project.log.entries[-1]
        assert entry.cache_hits == 1 and entry.cache_misses == 0
        assert [run["status"] for run in entry.module_runs] == ["cached"]

    def test_through_the_serving_backend(self, template):
        backend = AppBackend()
        request = Request(params=scene_params(template))
        frame = backend(request, False)
        node = backend.app.project.node
        first = dict(node.cells)
        with obs.recording() as rec:
            again = backend(request, False)
        assert again == frame
        assert len(first) == 1
        assert all(node.cells[key] is cell for key, cell in first.items())
        assert drawn(rec) == (0, 0)

    def test_through_a_node_execute_message(self, registry, template):
        pipeline, cell_id = template_pipeline(registry, template)
        node = DisplayNode(0)
        node.handle(WireFrame(
            protocol.KIND_WORKFLOW, {"pipeline": pipeline.to_dict(), "cell_id": cell_id}
        ))
        execute = WireFrame(protocol.KIND_EXECUTE, {"cell_id": cell_id})
        report = node.handle(execute)
        first = node.cells[cell_id]
        with obs.recording() as rec:
            again = node.handle(execute)
        assert node.cells[cell_id] is first
        assert again.meta["image_digest"] == report.meta["image_digest"]
        assert (again.meta["cache_hits"], again.meta["cache_misses"]) == (1, 0)
        assert drawn(rec) == (0, 0)


class TestTheRule:
    def test_a_changed_parameter_builds_a_new_cell(self, registry):
        app = sheet_app(registry)
        slot = app.project.sheets["main"].get(0, 0)
        first = app.project.execute_cell("main", 0, 0)
        vistrail = app.project.get_vistrail(slot.binding.vistrail_name)
        vistrail.set_parameter(slot.binding.sink_module_id, "dataset_label", "TA")
        slot.binding.version = vistrail.current_version
        rebuilt = app.project.execute_cell("main", 0, 0)
        assert rebuilt is not first
        assert app.project.node.cells == {id(slot): rebuilt}

    def test_a_reshipped_workflow_releases_the_cell(self, registry):
        pipeline, cell_id = template_pipeline(registry, "Slicer")
        ship = WireFrame(
            protocol.KIND_WORKFLOW, {"pipeline": pipeline.to_dict(), "cell_id": cell_id}
        )
        node = DisplayNode(0)
        node.handle(ship)
        node.handle(WireFrame(protocol.KIND_EXECUTE, {"cell_id": cell_id}))
        first = node.cells[cell_id]
        node.handle(ship)
        assert node.cells == {}
        node.handle(WireFrame(protocol.KIND_EXECUTE, {"cell_id": cell_id}))
        assert node.cells[cell_id] is not first


class TestSlotsOwnTheirCells:
    def test_copies_still_diverge_after_both_slots_execute(self, registry):
        app = sheet_app(registry)
        sheet = app.project.sheets["main"]
        sheet.copy_cell((0, 0), (0, 1))
        original, copy = app.project.execute_sheet("main")
        assert original is not copy
        original.handle_event("key", key="c")  # an edit to one copy only
        kept_original, kept_copy = app.project.execute_sheet("main")
        assert kept_original is original and kept_copy is copy
        assert "colormap" in sheet.compare((0, 0), (0, 1))["state_differences"]

    def test_move_and_swap_keep_the_live_cell(self, registry):
        app = sheet_app(registry)
        sheet = app.project.sheets["main"]
        cell = app.project.execute_cell("main", 0, 0)
        sheet.move((0, 0), (1, 1))
        assert app.project.execute_cell("main", 1, 1) is cell
        sheet.swap((1, 1), (0, 1))
        assert app.project.execute_cell("main", 0, 1) is cell
        assert len(app.project.node.cells) == 1

    def test_a_removed_slot_releases_its_cell(self, registry):
        app = sheet_app(registry)
        cell = weakref.ref(app.project.execute_cell("main", 0, 0))
        app.project.sheets["main"].remove(0, 0)
        gc.collect()
        assert cell() is None
        assert app.project.node.cells == {}


def reads_another_variable(project, sheet: str, position, variable_name: str = "ua") -> None:
    """Point a slot's variable reader at *variable_name*: same dataset
    reader, another variable, a new version the slot binds."""
    slot = project.sheets[sheet].get(*position)
    vistrail = project.get_vistrail(slot.binding.vistrail_name)
    (variable,) = [mid for mid, spec in vistrail.pipeline.modules.items()
                   if spec.name == "cdms:CDMSVariableReader"]
    vistrail.set_parameter(variable, "variable", variable_name)
    slot.binding.version = vistrail.current_version


def reader_runs(recorder, module: str = "cdms:CDMSDatasetReader") -> tuple:
    """(hits, misses) of one module in the executor memo."""
    return (
        recorder.counter_value("executor.cache.hit", module=module),
        recorder.counter_value("executor.cache.miss", module=module),
    )


class TestLiveCellsOwnTheMemo:
    def test_releasing_every_cell_empties_the_memo(self, registry):
        app = sheet_app(registry)
        app.project.sheets["main"].copy_cell((0, 0), (0, 1))
        app.project.execute_sheet("main")
        node = app.project.node
        assert node.executor.cache_size == 2  # the dataset and its variable
        for key in list(node.cells):
            node.release(key)
        assert node.executor.cache_size == 0

    def test_a_shared_upstream_survives_the_first_release(self, registry):
        app = sheet_app(registry)
        sheet = app.project.sheets["main"]
        sheet.copy_cell((0, 0), (0, 1))
        reads_another_variable(app.project, "main", (0, 1))
        app.project.execute_sheet("main")
        node = app.project.node
        assert node.executor.cache_size == 3  # one dataset, two variables
        node.release(id(sheet.get(0, 0)))
        assert node.executor.cache_size == 2
        with obs.recording() as rec:
            app.project.execute_cell("main", 0, 0)
        assert reader_runs(rec) == (1, 0)
        assert reader_runs(rec, "cdms:CDMSVariableReader") == (0, 1)
        node.release(id(sheet.get(0, 0)))
        node.release(id(sheet.get(0, 1)))
        assert node.executor.cache_size == 0

    def test_an_edit_below_the_reader_does_not_run_the_reader(self, registry):
        app = sheet_app(registry)
        app.project.execute_cell("main", 0, 0)
        reads_another_variable(app.project, "main", (0, 0))
        with obs.recording() as rec:
            app.project.execute_cell("main", 0, 0)
        assert reader_runs(rec) == (1, 0)
        # the old variable went with the old cell
        assert app.project.node.executor.cache_size == 2

    def test_a_failed_re_execute_releases_the_key(self, registry):
        app = sheet_app(registry)
        app.project.execute_cell("main", 0, 0)
        reads_another_variable(app.project, "main", (0, 0), "nosuch")
        with pytest.raises(ModuleExecutionError):
            app.project.execute_cell("main", 0, 0)
        assert app.project.node.cells == {}
        assert app.project.node.executor.cache_size == 0


@pytest.mark.parametrize("template", TEMPLATES)
def test_every_host_draws_the_same_frame(registry, template):
    """The same palette workflow through the spreadsheet, the serving
    backend and a wall tile: one PPM, byte for byte."""
    app = sheet_app(registry, template)
    in_sheet = ppm_bytes(app.project.execute_cell("main", 0, 0).render(WIDTH, HEIGHT).to_uint8())
    served = AppBackend()(Request(params=scene_params(template)), False)
    pipeline, cell_id = template_pipeline(registry, template)
    wall = InProcessHyperwall(
        pipeline, WallGeometry(columns=1, rows=1, tile_width=WIDTH, tile_height=HEIGHT)
    )
    wall.execute_clients()
    on_wall = ppm_bytes(wall.nodes[0].cells[cell_id].render(WIDTH, HEIGHT).to_uint8())
    digests = {hashlib.sha256(frame).hexdigest() for frame in (in_sheet, served, on_wall)}
    assert len(digests) == 1
