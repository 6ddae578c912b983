"""Synchronized multi-cell interaction.

"Integration with the Vistrails spreadsheet provides multiple
synchronized plots for desktop or hyperwall ... Configuration and
navigation operations are propagated to all active cells."

A :class:`SyncGroup` watches a spreadsheet and fans interaction events
out to every *active* live cell.  Events are also published on an
:class:`~repro.util.events.EventBus` so external listeners — notably
the hyperwall server, which forwards them to client nodes — observe the
same stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.spreadsheet.sheet import Spreadsheet
from repro.util.errors import DV3DError
from repro.util.events import Event, EventBus


class SyncGroup:
    """Propagates interaction events to all active cells of a sheet."""

    def __init__(self, sheet: Spreadsheet, bus: Optional[EventBus] = None) -> None:
        self.sheet = sheet
        self.bus = bus or EventBus()
        self.history: List[Tuple[str, Dict[str, Any]]] = []

    def _fan_out(self, kind: str, payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        deltas = []
        for cell in self.sheet.active_cells():
            try:
                deltas.append(cell.handle_event(kind, **payload))
            except DV3DError:
                # a plot-specific gesture (leveling, slice drag, plane
                # toggle) propagated to a plot type without that control:
                # the cell simply ignores it, as heterogeneous sheets must
                deltas.append({})
        self.history.append((kind, dict(payload)))
        self.bus.publish(Event.make(f"cell.{kind}", source=self.sheet.name, **payload))
        return deltas

    # -- the propagated operations -----------------------------------------

    def key(self, key: str) -> List[Dict[str, Any]]:
        """Propagate a key command (colormap cycling, animation step, ...)."""
        return self._fan_out("key", {"key": key})

    def drag(self, dx: float, dy: float, mode: str = "camera") -> List[Dict[str, Any]]:
        """Propagate a drag gesture (camera orbit, leveling, slicing, ...)."""
        return self._fan_out("drag", {"dx": dx, "dy": dy, "mode": mode})

    def configure(self, state: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Propagate an explicit configuration state."""
        return self._fan_out("configure", {"state": state})

    def animate_step(self, delta: int = 1) -> List[Dict[str, Any]]:
        """Advance all active cells' animation dimension together."""
        return self.key("t" if delta >= 0 else "T")
