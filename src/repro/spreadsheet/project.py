"""Projects: the organizational unit of the UV-CDAT GUI.

"The project view (top left) facilitates the organization of
spreadsheets into projects."  A :class:`Project` owns spreadsheets,
the vistrails their cells bind to, and the execution log; it persists
as a directory of JSON files and can re-execute every bound cell after
reload ("spreadsheets maintain their provenance and can be saved and
reloaded").  Its live cells are kept by one
:class:`~repro.hyperwall.client.DisplayNode`, keyed by slot identity:
a slot keeps its cell when moved and releases it when gone, and with
it every upstream module output no other live cell's workflow needs.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.dv3d.cell import DV3DCell
from repro.hyperwall.client import DisplayNode
from repro.provenance.log import ExecutionLog
from repro.provenance.vistrail import Vistrail
from repro.spreadsheet.sheet import Spreadsheet
from repro.util.errors import SpreadsheetError
from repro.workflow.registry import ModuleRegistry

PathLike = Union[str, Path]


def _release(node: DisplayNode, watched: Set[int], key: int) -> None:
    """A slot went: drop its cell, and forget it so a new slot reusing
    its id is watched again."""
    watched.discard(key)
    node.release(key)


class Project:
    """Spreadsheets + vistrails + execution log, saved/loaded together."""

    def __init__(self, name: str = "project", registry: Optional[ModuleRegistry] = None) -> None:
        from repro.workflow.registry import global_registry

        self.name = name
        self.registry = registry or global_registry()
        self.sheets: Dict[str, Spreadsheet] = {}
        self.vistrails: Dict[str, Vistrail] = {}
        self.log = ExecutionLog()
        #: the host of every live cell of this project's sheets
        self.node = DisplayNode(0)
        self.executor = self.node.executor
        #: keys of the live slots a finalizer watches (one each)
        self._watched: Set[int] = set()

    def __repr__(self) -> str:
        return (
            f"Project(name={self.name!r}, sheets={sorted(self.sheets)}, "
            f"vistrails={sorted(self.vistrails)})"
        )

    # -- content management --------------------------------------------------

    def new_sheet(self, name: str, rows: int = 2, columns: int = 2) -> Spreadsheet:
        if name in self.sheets:
            raise SpreadsheetError(f"sheet {name!r} already exists")
        sheet = Spreadsheet(name, rows, columns)
        self.sheets[name] = sheet
        return sheet

    def new_vistrail(self, name: str) -> Vistrail:
        if name in self.vistrails:
            raise SpreadsheetError(f"vistrail {name!r} already exists")
        vistrail = Vistrail(name, self.registry)
        self.vistrails[name] = vistrail
        return vistrail

    def get_vistrail(self, name: str) -> Vistrail:
        try:
            return self.vistrails[name]
        except KeyError:
            raise SpreadsheetError(
                f"no vistrail {name!r} (have {sorted(self.vistrails)})"
            ) from None

    # -- execution -----------------------------------------------------------------

    def execute_cell(self, sheet_name: str, row: int, column: int) -> DV3DCell:
        """(Re)execute the workflow version bound to one slot.

        Populates the slot's live cell — the kept one when the version is
        unchanged — and records the run in the execution log.
        """
        sheet = self.sheets[sheet_name]
        slot = sheet.get(row, column)
        if slot is None:
            raise SpreadsheetError(f"slot ({row}, {column}) of {sheet_name!r} is empty")
        binding = slot.binding
        vistrail = self.get_vistrail(binding.vistrail_name)
        pipeline = vistrail.pipeline_at(binding.version)
        key = id(slot)
        if key not in self._watched:  # the cell goes when the slot does
            self._watched.add(key)
            weakref.finalize(slot, _release, self.node, self._watched, key)
        result = self.node.execute(key, pipeline, binding.sink_module_id)
        slot.cell = result.output(binding.sink_module_id, "cell")
        self.log.record(
            binding.vistrail_name, binding.version, result,
            sheet=sheet_name, slot=[row, column],
        )
        return slot.cell

    def execute_sheet(self, sheet_name: str) -> List[DV3DCell]:
        """Execute every occupied slot of a sheet (in grid order)."""
        sheet = self.sheets[sheet_name]
        return [
            self.execute_cell(sheet_name, r, c) for (r, c) in sheet.occupied()
        ]

    # -- persistence ------------------------------------------------------------------

    def save(self, directory: PathLike) -> None:
        """Persist the project as a directory of JSON files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "name": self.name,
            "sheets": sorted(self.sheets),
            "vistrails": sorted(self.vistrails),
        }
        (directory / "project.json").write_text(json.dumps(manifest, indent=1))
        for name, sheet in self.sheets.items():
            (directory / f"sheet_{name}.json").write_text(
                json.dumps(sheet.to_dict(), indent=1)
            )
        for name, vistrail in self.vistrails.items():
            vistrail.save(directory / f"vistrail_{name}.json")
        self.log.save(directory / "execution_log.json")

    @staticmethod
    def load(directory: PathLike, registry: Optional[ModuleRegistry] = None) -> "Project":
        directory = Path(directory)
        manifest_path = directory / "project.json"
        if not manifest_path.exists():
            raise SpreadsheetError(f"no project at {directory}")
        manifest = json.loads(manifest_path.read_text())
        project = Project(str(manifest["name"]), registry)
        for name in manifest.get("vistrails", []):
            project.vistrails[name] = Vistrail.load(
                directory / f"vistrail_{name}.json", project.registry
            )
        for name in manifest.get("sheets", []):
            project.sheets[name] = Spreadsheet.from_dict(
                json.loads((directory / f"sheet_{name}.json").read_text())
            )
        log_path = directory / "execution_log.json"
        if log_path.exists():
            project.log = ExecutionLog.load(log_path)
        return project
