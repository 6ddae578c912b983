"""Session macros: record interaction streams, replay them anywhere.

The paper's provenance story covers workflow *construction*; this layer
covers interactive *exploration*: every propagated spreadsheet event
(key command, drag, configure) can be recorded as a macro and replayed
— on the same sheet, on a different sheet, or shipped to a hyperwall
session — turning an exploration into a reusable, scriptable artifact.
Macros serialize to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.spreadsheet.sync import SyncGroup
from repro.util.errors import SpreadsheetError

PathLike = Union[str, Path]


@dataclass(frozen=True)
class MacroStep:
    """One recorded interaction."""

    kind: str  # "key" | "drag" | "configure"
    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "payload": self.payload}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "MacroStep":
        try:
            return MacroStep(str(data["kind"]), dict(data["payload"]))
        except (KeyError, TypeError) as exc:
            raise SpreadsheetError(f"malformed macro step: {data!r}") from exc


@dataclass
class Macro:
    """A named, replayable sequence of interactions."""

    name: str
    steps: List[MacroStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self, group: SyncGroup) -> int:
        """Apply every step through *group*; returns steps applied."""
        for step in self.steps:
            if step.kind == "key":
                group.key(str(step.payload["key"]))
            elif step.kind == "drag":
                group.drag(
                    float(step.payload.get("dx", 0.0)),
                    float(step.payload.get("dy", 0.0)),
                    str(step.payload.get("mode", "camera")),
                )
            elif step.kind == "configure":
                group.configure(dict(step.payload.get("state", {})))
            else:
                raise SpreadsheetError(f"unknown macro step kind {step.kind!r}")
        return len(self.steps)

    def replay_events(self, handler) -> int:
        """Replay through a generic ``handler(kind, **payload)``.

        This is how a recorded desktop exploration is shipped to a
        hyperwall: ``macro.replay_events(hw.broadcast_event)`` applies
        every recorded gesture to the server mirror and all displays.
        """
        for step in self.steps:
            if step.kind not in ("key", "drag", "configure"):
                raise SpreadsheetError(f"unknown macro step kind {step.kind!r}")
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
            [MacroStep.from_dict(raw) for raw in data.get("steps", [])],
        )

    @staticmethod
    def load(path: PathLike) -> "Macro":
        return Macro.from_dict(json.loads(Path(path).read_text()))


class MacroRecorder:
    """Records a sync group's event stream into a :class:`Macro`.

    Usage::

        recorder = MacroRecorder("tour", group)
        recorder.start()
        group.key("c"); group.drag(0.1, 0, "camera")
        macro = recorder.stop()
        macro.replay(other_group)
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
        for kind, payload in self.group.history[self._mark:]:
            if kind in ("key", "drag", "configure"):
                self.macro.steps.append(MacroStep(kind, dict(payload)))
        self._mark = None
        return self.macro
