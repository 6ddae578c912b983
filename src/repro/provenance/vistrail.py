"""The vistrail controller: a version tree plus a working position.

This is the object a UV-CDAT session holds per workflow.  It exposes
the same mutation verbs as :class:`~repro.workflow.pipeline.Pipeline`,
but each call (a) records the corresponding change action in the
version tree and (b) advances the current version — so provenance
capture is *transparent*, exactly as the paper claims ("the workflow
framework can also transparently automate provenance collection").

Navigation: ``checkout`` moves to any version (back up / switch
branches); further edits branch from there without losing anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.provenance.actions import (
    Action,
    AddConnection,
    AddModule,
    DeleteConnection,
    DeleteModule,
    SetParameter,
)
from repro.provenance.version_tree import ROOT_VERSION, VersionTree
from repro.workflow.pipeline import Pipeline
from repro.workflow.registry import ModuleRegistry
from repro.util.errors import ProvenanceError

PathLike = Union[str, Path]


class Vistrail:
    """A provenance-tracked workflow."""

    def __init__(self, name: str = "untitled", registry: Optional[ModuleRegistry] = None) -> None:
        from repro.workflow.registry import global_registry

        self.name = name
        self.registry = registry or global_registry()
        self.tree = VersionTree()
        self.current_version = ROOT_VERSION
        self._pipeline = Pipeline(self.registry)
        # id generators continue across versions so replay stays collision-free
        self._next_module_id = 0
        self._next_connection_id = 0

    def __repr__(self) -> str:
        return (
            f"Vistrail(name={self.name!r}, versions={len(self.tree)}, "
            f"current={self.current_version})"
        )

    # -- current pipeline ---------------------------------------------------

    @property
    def pipeline(self) -> Pipeline:
        """The pipeline at the current version (do not mutate directly)."""
        return self._pipeline

    def pipeline_at(self, version: int) -> Pipeline:
        """A pipeline of its own equal to *version*'s materialisation.

        The current version's is a copy of the working pipeline, which
        :meth:`_record` keeps equal to replaying the version's root path;
        any other version is replayed from the root.  Either way the
        caller owns the result: later edits never reach it.
        """
        if version == self.current_version:
            return self._pipeline.copy()
        return self.tree.materialize(version, self.registry)

    def _record(self, action: Action, annotation: str = "") -> int:
        """Apply an action to the working pipeline and record it."""
        action.apply(self._pipeline)
        self.current_version = self.tree.add_action(
            self.current_version, action, annotation=annotation
        )
        return self.current_version

    # -- mutation verbs (each records one action) ------------------------------

    def add_module(self, name: str, parameters: Optional[Dict[str, Any]] = None) -> int:
        """Add a module; returns its module id (not the version)."""
        qualified = self.registry.qualified_name(name)
        module_id = self._next_module_id
        self._next_module_id += 1
        self._record(AddModule(module_id, qualified, dict(parameters or {})))
        return module_id

    def delete_module(self, module_id: int) -> int:
        """Delete a module.  Records explicit connection deletions first
        so replay never depends on implicit cascade order."""
        for conn in sorted(
            list(self._pipeline.incoming(module_id)) + list(self._pipeline.outgoing(module_id)),
            key=lambda c: c.id,
        ):
            self._record(DeleteConnection(conn.id))
        return self._record(DeleteModule(module_id))

    def add_connection(self, source_id: int, source_port: str, target_id: int, target_port: str) -> int:
        connection_id = self._next_connection_id
        self._next_connection_id += 1
        self._record(
            AddConnection(connection_id, source_id, source_port, target_id, target_port)
        )
        return connection_id

    def delete_connection(self, connection_id: int) -> int:
        return self._record(DeleteConnection(connection_id))

    def set_parameter(self, module_id: int, name: str, value: Any) -> int:
        return self._record(SetParameter(module_id, name, value))

    # -- navigation --------------------------------------------------------------

    def checkout(self, version: int) -> Pipeline:
        """Move the working position to *version* (back up / switch branch)."""
        self._pipeline = self.tree.materialize(version, self.registry)
        self.current_version = version
        # keep id generation above everything ever used anywhere in the tree
        self._resync_id_counters()
        return self._pipeline

    def checkout_tag(self, tag: str) -> Pipeline:
        return self.checkout(self.tree.version_by_tag(tag))

    def _resync_id_counters(self) -> None:
        max_mod, max_conn = -1, -1
        for version in range(len(self.tree)):
            if version not in self.tree:
                continue
            action = self.tree.node(version).action
            if isinstance(action, AddModule):
                max_mod = max(max_mod, action.module_id)
            elif isinstance(action, AddConnection):
                max_conn = max(max_conn, action.connection_id)
        self._next_module_id = max(self._next_module_id, max_mod + 1)
        self._next_connection_id = max(self._next_connection_id, max_conn + 1)

    def tag(self, name: str, version: Optional[int] = None) -> None:
        self.tree.tag(self.current_version if version is None else version, name)

    # -- persistence ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "current_version": self.current_version,
            "tree": self.tree.to_dict(),
        }

    def save(self, path: PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @staticmethod
    def from_dict(data: Dict[str, Any], registry: Optional[ModuleRegistry] = None) -> "Vistrail":
        vt = Vistrail(str(data.get("name", "untitled")), registry)
        vt.tree = VersionTree.from_dict(data["tree"])
        version = int(data.get("current_version", ROOT_VERSION))
        vt.checkout(version)
        return vt

    @staticmethod
    def load(path: PathLike, registry: Optional[ModuleRegistry] = None) -> "Vistrail":
        raw = Path(path).read_text()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProvenanceError(f"corrupt vistrail file {path}: {exc}") from exc
        return Vistrail.from_dict(data, registry)
