"""Session macros: record gestures, replay them anywhere.

The paper's provenance story covers workflow *construction*; this layer
covers interactive *exploration*: every gesture a spreadsheet's
:class:`~repro.spreadsheet.sync.SyncGroup` propagates (key command,
drag, configure) is a :class:`~repro.dv3d.interaction.Gesture`, and a
macro is a named list of them, replayed through any gesture sink — the
same sheet, a different sheet, or a hyperwall session — turning an
exploration into a reusable, scriptable artifact.  Macros serialize to
JSON as ``{"name", "steps": [{"kind", "payload"}, ...]}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from repro.dv3d.interaction import Gesture
from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import SpreadsheetError

PathLike = Union[str, Path]


@dataclass
class Macro:
    """A named, replayable sequence of gestures."""

    name: str
    steps: List[Gesture] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, handler: Callable[..., Any]) -> int:
        """Send every step to ``handler(kind, **payload)``; returns steps sent.

        Any gesture sink takes it: ``macro.replay(group.apply)`` replays
        on a spreadsheet, ``macro.replay(hw.broadcast_event)`` ships a
        recorded desktop exploration to the server mirror and every
        display of a hyperwall.
        """
        for step in self.steps:
            handler(step.kind, **step.payload)
        return len(self.steps)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "steps": [s.to_dict() for s in self.steps]}

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Macro":
        return Macro(
            str(data.get("name", "macro")),
            [Gesture.from_dict(raw) for raw in data.get("steps", [])],
        )

    @staticmethod
    def load(path: PathLike) -> "Macro":
        return Macro.from_dict(json.loads(Path(path).read_text()))


class MacroRecorder:
    """Records a sync group's gestures into a :class:`Macro`.

    Usage::

        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("c"); group.drag(0.1, 0, "camera")
        macro = recorder.stop()
        macro.replay(other_group.apply)
    """

    def __init__(self, name: str, group: SyncGroup) -> None:
        self.macro = Macro(name)
        self.group = group
        self._mark: int | None = None

    def start(self) -> None:
        if self._mark is not None:
            raise SpreadsheetError("recorder already running")
        self._mark = len(self.group.history)

    def stop(self) -> Macro:
        if self._mark is None:
            raise SpreadsheetError("recorder was not started")
        self.macro.steps.extend(self.group.history[self._mark:])
        self._mark = None
        return self.macro
