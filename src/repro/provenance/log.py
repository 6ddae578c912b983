"""Execution provenance.

Besides the *construction* history (the version tree), VisTrails keeps
an execution log: which version ran, when, how long each module took,
and with what outcome — "a record ... of the datasets and parameters
used in each workflow execution".  The DV3D cell and the hyperwall
server both append here after every execution.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.workflow.executor import ExecutionResult
from repro.util.errors import ProvenanceError

PathLike = Union[str, Path]


@dataclass
class LogEntry:
    """One workflow execution."""

    vistrail_name: str
    version: int
    started_at: float
    wall_time: float
    module_runs: List[Dict[str, Any]]
    cache_hits: int = 0
    cache_misses: int = 0
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(run["status"] in ("ok", "cached") for run in self.module_runs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vistrail_name": self.vistrail_name,
            "version": self.version,
            "started_at": self.started_at,
            "wall_time": self.wall_time,
            "module_runs": self.module_runs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "annotations": self.annotations,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "LogEntry":
        try:
            return LogEntry(
                vistrail_name=str(data["vistrail_name"]),
                version=int(data["version"]),
                started_at=float(data["started_at"]),
                wall_time=float(data["wall_time"]),
                module_runs=list(data["module_runs"]),
                cache_hits=int(data.get("cache_hits", 0)),
                cache_misses=int(data.get("cache_misses", 0)),
                annotations=dict(data.get("annotations", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProvenanceError(f"malformed log entry: {data!r}") from exc


class ExecutionLog:
    """Append-only record of executions for one session/project."""

    def __init__(self) -> None:
        self.entries: List[LogEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(
        self,
        vistrail_name: str,
        version: int,
        result: ExecutionResult,
        **annotations: Any,
    ) -> LogEntry:
        entry = LogEntry(
            vistrail_name=vistrail_name,
            version=version,
            started_at=time.time(),
            wall_time=result.wall_time,
            module_runs=[
                {
                    "module_id": run.module_id,
                    "module_name": run.module_name,
                    "status": run.status,
                    "duration": run.duration,
                }
                for run in result.runs
            ],
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses,
            annotations=dict(annotations),
        )
        self.entries.append(entry)
        return entry

    def for_version(self, vistrail_name: str, version: int) -> List[LogEntry]:
        return [
            e for e in self.entries
            if e.vistrail_name == vistrail_name and e.version == version
        ]

    def total_module_time(self, module_name: Optional[str] = None) -> float:
        total = 0.0
        for entry in self.entries:
            for run in entry.module_runs:
                if module_name is None or run["module_name"] == module_name:
                    total += float(run["duration"])
        return total

    # -- persistence --------------------------------------------------------

    def save(self, path: PathLike) -> None:
        Path(path).write_text(
            json.dumps([e.to_dict() for e in self.entries], indent=1)
        )

    @staticmethod
    def load(path: PathLike) -> "ExecutionLog":
        log = ExecutionLog()
        data = json.loads(Path(path).read_text())
        log.entries = [LogEntry.from_dict(raw) for raw in data]
        return log
