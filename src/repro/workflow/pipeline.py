"""The pipeline graph: modules, connections, parameters.

A :class:`Pipeline` is the pure *structure* of a workflow — which
modules exist, how their ports connect, and what their parameter values
are.  All mutation goes through small methods (add/delete module,
add/delete connection, set parameter) because the provenance layer
records exactly those operations as change actions.

The graph must stay acyclic; validation additionally checks port
existence, type compatibility (at connection time) and required-input
coverage (at execution time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set

from repro.workflow.registry import ModuleRegistry
from repro.util.errors import WorkflowError
from repro.util.ids import IdGenerator


@dataclass(frozen=True)
class Connection:
    """A directed edge: (source module, source port) → (target module, target port)."""

    id: int
    source_id: int
    source_port: str
    target_id: int
    target_port: str


@dataclass
class ModuleSpec:
    """One module occurrence in a pipeline (name + parameter values)."""

    id: int
    name: str  # qualified "pkg:Name" registry reference
    parameters: Dict[str, Any] = field(default_factory=dict)

    def copy(self) -> "ModuleSpec":
        return ModuleSpec(self.id, self.name, dict(self.parameters))


class Pipeline:
    """A mutable, validated workflow graph.

    Change it only through the five mutators (add/delete module,
    add/delete connection, set parameter): each drops the signatures an
    executor kept on the graph (:attr:`kept_signatures`).
    """

    def __init__(self, registry: Optional[ModuleRegistry] = None) -> None:
        from repro.workflow.registry import global_registry

        self.registry = registry or global_registry()
        self.modules: Dict[int, ModuleSpec] = {}
        self.connections: Dict[int, Connection] = {}
        self._module_ids = IdGenerator()
        self._connection_ids = IdGenerator()
        #: ``Executor.signatures`` of this graph, kept until a mutator runs
        self.kept_signatures: Optional[Mapping[int, str]] = None

    def __repr__(self) -> str:
        return f"Pipeline(modules={len(self.modules)}, connections={len(self.connections)})"

    # -- mutation ----------------------------------------------------------

    def add_module(self, name: str, parameters: Optional[Dict[str, Any]] = None,
                   module_id: Optional[int] = None) -> int:
        """Add a module by registry name; returns its id."""
        self.kept_signatures = None
        qualified = self.registry.qualified_name(name)
        cls = self.registry.resolve(qualified)
        params = dict(parameters or {})
        known = {p.name for p in cls.parameters}
        unknown = set(params) - known
        if unknown:
            raise WorkflowError(f"module {name!r}: unknown parameters {sorted(unknown)}")
        if module_id is None:
            module_id = self._module_ids.next()
        elif module_id in self.modules:
            raise WorkflowError(f"module id {module_id} already in pipeline")
        else:
            self._module_ids.reserve_through(module_id)
        self.modules[module_id] = ModuleSpec(module_id, qualified, params)
        return module_id

    def delete_module(self, module_id: int) -> None:
        """Remove a module and every connection touching it."""
        self.kept_signatures = None
        self._require_module(module_id)
        del self.modules[module_id]
        doomed = [
            cid for cid, c in self.connections.items()
            if c.source_id == module_id or c.target_id == module_id
        ]
        for cid in doomed:
            del self.connections[cid]

    def set_parameter(self, module_id: int, name: str, value: Any) -> None:
        self.kept_signatures = None
        spec = self._require_module(module_id)
        cls = self.registry.resolve(spec.name)
        if name not in {p.name for p in cls.parameters}:
            raise WorkflowError(f"module {spec.name!r}: no parameter {name!r}")
        spec.parameters[name] = value

    def add_connection(
        self,
        source_id: int,
        source_port: str,
        target_id: int,
        target_port: str,
        connection_id: Optional[int] = None,
    ) -> int:
        """Connect two ports; validates types and acyclicity; returns edge id."""
        self.kept_signatures = None
        src = self._require_module(source_id)
        dst = self._require_module(target_id)
        src_cls = self.registry.resolve(src.name)
        dst_cls = self.registry.resolve(dst.name)
        out_spec = src_cls.output_port(source_port)
        in_spec = dst_cls.input_port(target_port)
        if not out_spec.compatible_with(in_spec):
            raise WorkflowError(
                f"type mismatch: {src.name}.{source_port} ({out_spec.type_tag}) → "
                f"{dst.name}.{target_port} ({in_spec.type_tag})"
            )
        for conn in self.connections.values():
            if conn.target_id == target_id and conn.target_port == target_port:
                raise WorkflowError(
                    f"input port {dst.name}.{target_port} already connected"
                )
        if source_id == target_id or self._reaches(target_id, source_id):
            raise WorkflowError("connection would create a cycle")
        if connection_id is None:
            connection_id = self._connection_ids.next()
        elif connection_id in self.connections:
            raise WorkflowError(f"connection id {connection_id} already in pipeline")
        else:
            self._connection_ids.reserve_through(connection_id)
        self.connections[connection_id] = Connection(
            connection_id, source_id, source_port, target_id, target_port
        )
        return connection_id

    def delete_connection(self, connection_id: int) -> None:
        self.kept_signatures = None
        if connection_id not in self.connections:
            raise WorkflowError(f"no connection {connection_id}")
        del self.connections[connection_id]

    # -- queries --------------------------------------------------------------

    def _require_module(self, module_id: int) -> ModuleSpec:
        try:
            return self.modules[module_id]
        except KeyError:
            raise WorkflowError(f"no module {module_id} in pipeline") from None

    def _reaches(self, start: int, goal: int) -> bool:
        """Whether *goal* is reachable downstream from *start*."""
        frontier = [start]
        seen: Set[int] = set()
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(
                c.target_id for c in self.connections.values() if c.source_id == node
            )
        return False

    def incoming(self, module_id: int) -> List[Connection]:
        return [c for c in self.connections.values() if c.target_id == module_id]

    def outgoing(self, module_id: int) -> List[Connection]:
        return [c for c in self.connections.values() if c.source_id == module_id]

    def sinks(self) -> List[int]:
        """Modules with no outgoing connections (pipeline end points)."""
        sources = {c.source_id for c in self.connections.values()}
        return sorted(mid for mid in self.modules if mid not in sources)

    def modules_of_type(self, name: str) -> List[int]:
        """Ids of modules whose registry name matches *name* (bare or qualified)."""
        qualified = self.registry.qualified_name(name)
        return sorted(mid for mid, spec in self.modules.items() if spec.name == qualified)

    def topological_order(self) -> List[int]:
        """Module ids in dependency order (raises on cycles)."""
        in_degree = {mid: 0 for mid in self.modules}
        for conn in self.connections.values():
            in_degree[conn.target_id] += 1
        ready = sorted(mid for mid, deg in in_degree.items() if deg == 0)
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for conn in sorted(self.outgoing(node), key=lambda c: c.id):
                in_degree[conn.target_id] -= 1
                if in_degree[conn.target_id] == 0:
                    ready.append(conn.target_id)
            ready.sort()
        if len(order) != len(self.modules):
            raise WorkflowError("pipeline graph has a cycle")
        return order

    def upstream_closure(self, module_ids: Iterable[int]) -> Set[int]:
        """All modules that feed (transitively) into *module_ids*, inclusive.

        This is the sub-workflow extraction primitive the hyperwall
        server uses: "each client workflow consists of one of the cell
        modules (and all its upstream modules)".
        """
        frontier = list(module_ids)
        closure: Set[int] = set()
        while frontier:
            node = frontier.pop()
            if node in closure:
                continue
            self._require_module(node)
            closure.add(node)
            frontier.extend(c.source_id for c in self.incoming(node))
        return closure

    def subpipeline(self, module_ids: Iterable[int]) -> "Pipeline":
        """A new pipeline containing *module_ids* (plus upstream closure),
        preserving module/connection ids."""
        keep = self.upstream_closure(module_ids)
        sub = Pipeline(self.registry)
        for mid in sorted(keep):
            spec = self.modules[mid]
            sub.add_module(spec.name, dict(spec.parameters), module_id=mid)
        for conn in sorted(self.connections.values(), key=lambda c: c.id):
            if conn.source_id in keep and conn.target_id in keep:
                sub.add_connection(
                    conn.source_id, conn.source_port, conn.target_id, conn.target_port,
                    connection_id=conn.id,
                )
        return sub

    def validate(self) -> None:
        """Check required inputs are connected or have no way to be computed."""
        for mid, spec in self.modules.items():
            cls = self.registry.resolve(spec.name)
            connected = {c.target_port for c in self.incoming(mid)}
            for port in cls.input_ports:
                if not port.optional and port.name not in connected:
                    raise WorkflowError(
                        f"module {spec.name!r} (id {mid}): required input "
                        f"{port.name!r} is unconnected"
                    )
        self.topological_order()  # raises on cycles

    # -- copy / serialize ----------------------------------------------------------

    def copy(self) -> "Pipeline":
        clone = Pipeline(self.registry)
        for mid in sorted(self.modules):
            spec = self.modules[mid]
            clone.add_module(spec.name, dict(spec.parameters), module_id=mid)
        for conn in sorted(self.connections.values(), key=lambda c: c.id):
            clone.add_connection(
                conn.source_id, conn.source_port, conn.target_id, conn.target_port,
                connection_id=conn.id,
            )
        return clone

    def to_dict(self) -> Dict[str, Any]:
        return {
            "modules": [
                {"id": s.id, "name": s.name, "parameters": s.parameters}
                for s in sorted(self.modules.values(), key=lambda s: s.id)
            ],
            "connections": [
                {
                    "id": c.id,
                    "source_id": c.source_id,
                    "source_port": c.source_port,
                    "target_id": c.target_id,
                    "target_port": c.target_port,
                }
                for c in sorted(self.connections.values(), key=lambda c: c.id)
            ],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any], registry: Optional[ModuleRegistry] = None) -> "Pipeline":
        pipe = Pipeline(registry)
        for m in data.get("modules", []):
            pipe.add_module(m["name"], dict(m.get("parameters", {})), module_id=int(m["id"]))
        for c in data.get("connections", []):
            pipe.add_connection(
                int(c["source_id"]), c["source_port"], int(c["target_id"]), c["target_port"],
                connection_id=int(c["id"]),
            )
        return pipe

    def structurally_equal(self, other: "Pipeline") -> bool:
        return self.to_dict() == other.to_dict()
