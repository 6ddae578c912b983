"""Synchronized multi-cell interaction.

"Integration with the Vistrails spreadsheet provides multiple
synchronized plots for desktop or hyperwall ... Configuration and
navigation operations are propagated to all active cells."

A :class:`SyncGroup` applies each gesture to every *active* live cell
of a spreadsheet through :meth:`~repro.dv3d.cell.DV3DCell.handle_event`
(which ignores what a cell's plot type cannot do) and keeps the
:class:`~repro.dv3d.interaction.Gesture` records in :attr:`history`, the
stream a :class:`~repro.app.session.MacroRecorder` turns into a macro.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.dv3d.interaction import Gesture
from repro.spreadsheet.sheet import Spreadsheet


class SyncGroup:
    """Propagates gestures to all active cells of a sheet."""

    def __init__(self, sheet: Spreadsheet) -> None:
        self.sheet = sheet
        self.history: List[Gesture] = []

    def apply(self, kind: str, **payload: Any) -> List[Dict[str, Any]]:
        """Apply one gesture to every active cell; returns their deltas.

        A malformed gesture raises :class:`~repro.util.errors.DV3DError`
        before any cell or the history sees it.
        """
        gesture = Gesture(kind, payload)
        deltas = [
            cell.handle_event(gesture.kind, **gesture.payload)
            for cell in self.sheet.active_cells()
        ]
        self.history.append(gesture)
        return deltas

    # -- the propagated operations -----------------------------------------

    def key(self, key: str) -> List[Dict[str, Any]]:
        """Propagate a key command (colormap cycling, animation step, ...)."""
        return self.apply("key", key=key)

    def drag(self, dx: float, dy: float, mode: str = "camera") -> List[Dict[str, Any]]:
        """Propagate a drag gesture (camera orbit, leveling, slicing, ...)."""
        return self.apply("drag", dx=dx, dy=dy, mode=mode)

    def configure(self, state: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Propagate an explicit configuration state."""
        return self.apply("configure", state=state)

    def animate_step(self, delta: int = 1) -> List[Dict[str, Any]]:
        """Advance all active cells' animation dimension together."""
        return self.key("t" if delta >= 0 else "T")
