"""The spreadsheet grid.

A :class:`Spreadsheet` is a rows × columns grid of optional
:class:`SheetCell` slots.  Each occupied slot binds a **workflow
version** (vistrail name + version + the sink DV3DCell module id) and,
after execution, holds the live :class:`~repro.dv3d.cell.DV3DCell`.
The binding — not the live object — is what persists: executing the
bound version after a reload regenerates the cell, which is exactly the
provenance promise ("visualizations ... fully customizable and
reproducible").  Re-executing it in the session returns the slot's live
cell while the version is unchanged, and builds a new one once it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.dv3d.cell import DV3DCell
from repro.util.errors import SpreadsheetError


@dataclass
class CellBinding:
    """What a spreadsheet slot points at: one workflow version's cell sink."""

    vistrail_name: str
    version: int
    sink_module_id: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vistrail_name": self.vistrail_name,
            "version": self.version,
            "sink_module_id": self.sink_module_id,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CellBinding":
        return CellBinding(
            str(data["vistrail_name"]), int(data["version"]), int(data["sink_module_id"])
        )


@dataclass
class SheetCell:
    """One occupied grid slot."""

    binding: CellBinding
    cell: Optional[DV3DCell] = None  # populated by execution

    @property
    def active(self) -> bool:
        return self.cell is not None and self.cell.active

    def to_dict(self) -> Dict[str, Any]:
        return {"binding": self.binding.to_dict()}


class Spreadsheet:
    """A named grid of visualization cells."""

    def __init__(self, name: str = "sheet", rows: int = 2, columns: int = 2) -> None:
        if rows < 1 or columns < 1:
            raise SpreadsheetError(f"bad spreadsheet size {rows}x{columns}")
        self.name = name
        self.rows = int(rows)
        self.columns = int(columns)
        self._slots: Dict[Tuple[int, int], SheetCell] = {}

    def __repr__(self) -> str:
        return (
            f"Spreadsheet(name={self.name!r}, size={self.rows}x{self.columns}, "
            f"occupied={len(self._slots)})"
        )

    # -- geometry ----------------------------------------------------------

    def _check(self, row: int, column: int) -> Tuple[int, int]:
        if not (0 <= row < self.rows and 0 <= column < self.columns):
            raise SpreadsheetError(
                f"({row}, {column}) outside {self.rows}x{self.columns} sheet"
            )
        return (row, column)

    def resize(self, rows: int, columns: int) -> None:
        """Grow/shrink the grid ("resizable grid"); occupied slots must fit."""
        for (r, c) in self._slots:
            if r >= rows or c >= columns:
                raise SpreadsheetError(
                    f"cannot shrink to {rows}x{columns}: slot ({r}, {c}) occupied"
                )
        self.rows, self.columns = int(rows), int(columns)

    # -- occupancy -----------------------------------------------------------

    def place(self, row: int, column: int, binding: CellBinding,
              cell: Optional[DV3DCell] = None) -> SheetCell:
        key = self._check(row, column)
        if key in self._slots:
            raise SpreadsheetError(f"slot {key} already occupied")
        slot = SheetCell(binding, cell)
        self._slots[key] = slot
        return slot

    def remove(self, row: int, column: int) -> SheetCell:
        key = self._check(row, column)
        try:
            return self._slots.pop(key)
        except KeyError:
            raise SpreadsheetError(f"slot {key} is empty") from None

    def get(self, row: int, column: int) -> Optional[SheetCell]:
        return self._slots.get(self._check(row, column))

    def move(self, src: Tuple[int, int], dst: Tuple[int, int]) -> None:
        """Rearrange: drag a cell to an empty slot."""
        self._check(*src)
        self._check(*dst)
        if src == dst:
            return
        if dst in self._slots:
            raise SpreadsheetError(f"destination {dst} occupied")
        if src not in self._slots:
            raise SpreadsheetError(f"source {src} empty")
        self._slots[dst] = self._slots.pop(src)

    def swap(self, a: Tuple[int, int], b: Tuple[int, int]) -> None:
        """Rearrange: exchange two slots (either may be empty)."""
        self._check(*a)
        self._check(*b)
        sa, sb = self._slots.pop(a, None), self._slots.pop(b, None)
        if sb is not None:
            self._slots[a] = sb
        if sa is not None:
            self._slots[b] = sa

    def copy_cell(self, src: Tuple[int, int], dst: Tuple[int, int]) -> SheetCell:
        """Drag-copy: duplicate a cell's *binding* into an empty slot.

        The copy shares the workflow version (it is the same
        visualization) but not the live cell: executing the sheet builds
        one for each slot, and they diverge via their own edits.
        """
        self._check(*src)
        if src not in self._slots:
            raise SpreadsheetError(f"source {src} empty")
        source = self._slots[src]
        return self.place(dst[0], dst[1],
                          CellBinding(**source.binding.to_dict()))

    # -- iteration / queries -----------------------------------------------------

    def occupied(self) -> List[Tuple[int, int]]:
        return sorted(self._slots)

    def cells(self) -> Iterator[Tuple[Tuple[int, int], SheetCell]]:
        for key in sorted(self._slots):
            yield key, self._slots[key]

    def live_cells(self) -> List[DV3DCell]:
        return [slot.cell for _, slot in self.cells() if slot.cell is not None]

    def active_cells(self) -> List[DV3DCell]:
        return [c for c in self.live_cells() if c.active]

    def set_active(self, row: int, column: int, active: bool) -> None:
        slot = self.get(row, column)
        if slot is None or slot.cell is None:
            raise SpreadsheetError(f"slot ({row}, {column}) has no live cell")
        if active:
            slot.cell.activate()
        else:
            slot.cell.deactivate()

    def compare(self, a: Tuple[int, int], b: Tuple[int, int]) -> Dict[str, Any]:
        """Compare two cells' configurations (the spreadsheet 'compare' op).

        Returns the keys whose values differ between the two cells'
        plot states, plus both bindings.
        """
        slot_a, slot_b = self.get(*a), self.get(*b)
        if slot_a is None or slot_b is None:
            raise SpreadsheetError("both slots must be occupied to compare")
        diff: Dict[str, Any] = {}
        if slot_a.cell is not None and slot_b.cell is not None:
            state_a = slot_a.cell.state()["plot"]
            state_b = slot_b.cell.state()["plot"]
            for key in sorted(set(state_a) | set(state_b)):
                if state_a.get(key) != state_b.get(key):
                    diff[key] = {"a": state_a.get(key), "b": state_b.get(key)}
        return {
            "binding_a": slot_a.binding.to_dict(),
            "binding_b": slot_b.binding.to_dict(),
            "state_differences": diff,
        }

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rows": self.rows,
            "columns": self.columns,
            "slots": [
                {"row": r, "column": c, **slot.to_dict()}
                for (r, c), slot in self.cells()
            ],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Spreadsheet":
        sheet = Spreadsheet(
            str(data.get("name", "sheet")), int(data["rows"]), int(data["columns"])
        )
        for raw in data.get("slots", []):
            sheet.place(
                int(raw["row"]), int(raw["column"]),
                CellBinding.from_dict(raw["binding"]),
            )
        return sheet
