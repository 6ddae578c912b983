"""Pipeline execution with caching and parallel task execution.

Two properties the paper claims for the UV-CDAT/VisTrails runtime are
implemented and benchmarked here:

* **upstream result caching** — each module's result is keyed by a
  *signature* hashing its type, parameters and its inputs' signatures.
  Re-executing an edited workflow recomputes only modules whose
  signature changed (how VisTrails makes iterative exploration cheap);
* **parallel task execution** (paper abstract) — independent branches
  execute concurrently on a thread pool; the topology-driven scheduler
  dispatches a module as soon as its upstream modules finish.

Every execution produces an :class:`ExecutionResult` carrying outputs,
per-module timing/status records (consumed by the provenance execution
log) and cache statistics.  The first module failure raises
:class:`~repro.util.errors.ModuleExecutionError`; modules already
running on the pool finish, and nothing new is dispatched.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.resilience import faults
from repro.workflow.pipeline import Pipeline
from repro.util.errors import ModuleExecutionError, WorkflowError


@dataclass
class ModuleRun:
    """Timing/status record of one module execution (or cache hit)."""

    module_id: int
    module_name: str
    status: str  # "ok" | "cached"
    duration: float


@dataclass
class ExecutionResult:
    """Everything an execution produced."""

    outputs: Dict[Tuple[int, str], Any]
    runs: List[ModuleRun] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0

    def output(self, module_id: int, port: Optional[str] = None) -> Any:
        """Output of a module; port may be omitted when there is exactly one."""
        if port is not None:
            try:
                return self.outputs[(module_id, port)]
            except KeyError:
                raise WorkflowError(
                    f"no output ({module_id}, {port!r}) in execution result"
                ) from None
        candidates = [(mid, p) for (mid, p) in self.outputs if mid == module_id]
        if len(candidates) == 1:
            return self.outputs[candidates[0]]
        raise WorkflowError(
            f"module {module_id} has {len(candidates)} outputs; specify the port"
        )

    def status_of(self, module_id: int) -> str:
        for run in self.runs:
            if run.module_id == module_id:
                return run.status
        raise WorkflowError(f"module {module_id} was not executed")


class Executor:
    """Executes pipelines against a module registry.

    Parameters
    ----------
    caching:
        Keep module results keyed by signature across executions, in
        this executor's private memo.  It is the one memo of module
        outputs: results are not shared between executor instances or
        processes.  The executor never drops an entry by itself; its
        owner does, with :meth:`retain` (a
        :class:`~repro.hyperwall.client.DisplayNode` keeps what its live
        cells' upstream closures name) or :meth:`clear_cache`.
    max_workers:
        Thread-pool width for parallel branch execution; 1 = serial.
    """

    def __init__(
        self,
        caching: bool = True,
        max_workers: int = 1,
        on_module_complete=None,
    ) -> None:
        if max_workers < 1:
            raise WorkflowError("max_workers must be >= 1")
        self.caching = caching
        self.max_workers = int(max_workers)
        #: optional callable(ModuleRun, done_count, total_count) — the
        #: progress hook a GUI's status bar would subscribe to
        self.on_module_complete = on_module_complete
        self._cache: Dict[str, Dict[str, Any]] = {}

    def clear_cache(self) -> None:
        self._cache.clear()

    def retain(self, signatures: AbstractSet[str]) -> None:
        """Drop every memo entry whose signature is not in *signatures*."""
        for sig in self._cache.keys() - signatures:
            del self._cache[sig]

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # -- signatures ---------------------------------------------------------

    @staticmethod
    def _signature(
        pipeline: Pipeline, module_id: int, upstream_signatures: Dict[int, str]
    ) -> str:
        spec = pipeline.modules[module_id]
        cls = pipeline.registry.resolve(spec.name)
        instance = cls(spec.parameters)
        feed = sorted(
            (c.target_port, upstream_signatures[c.source_id], c.source_port)
            for c in pipeline.incoming(module_id)
        )
        blob = f"{spec.name}|{instance.parameter_signature()}|{feed}"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def signatures(self, pipeline: Pipeline) -> Mapping[int, str]:
        """Per-module content signatures in topological order.

        Computed once per state of *pipeline* and kept on it
        (``pipeline.kept_signatures``) until one of its mutators runs,
        so asking again of an unchanged graph is an attribute read.  A
        signature depends only on the graph, never on the executor.
        The mapping is read-only: it is the kept value itself.
        """
        kept = pipeline.kept_signatures
        if kept is None:
            result: Dict[int, str] = {}
            for mid in pipeline.topological_order():
                result[mid] = self._signature(pipeline, mid, result)
            kept = pipeline.kept_signatures = MappingProxyType(result)
        return kept

    # -- execution -------------------------------------------------------------

    def execute(
        self, pipeline: Pipeline, targets: Optional[List[int]] = None
    ) -> ExecutionResult:
        """Execute *pipeline* (or just the upstream closure of *targets*).

        Raises :class:`ModuleExecutionError` on the first module failure
        (modules already running are allowed to finish).
        """
        start_wall = time.perf_counter()
        if targets is not None:
            pipeline = pipeline.subpipeline(targets)
        pipeline.validate()
        order = pipeline.topological_order()
        signatures = self.signatures(pipeline)

        result = ExecutionResult(outputs={})
        module_outputs: Dict[int, Dict[str, Any]] = {}
        remaining: Set[int] = set(order)
        dependencies = {
            mid: {c.source_id for c in pipeline.incoming(mid)} for mid in order
        }

        # run_module executes on pool worker threads, whose obs span
        # stacks are empty — the execute-level span id is captured here
        # and passed explicitly so per-module spans nest under it.
        exec_span = obs.span(
            "executor.execute", modules=len(order), workers=self.max_workers
        )

        def run_module(mid: int) -> Tuple[int, Dict[str, Any], ModuleRun]:
            spec = pipeline.modules[mid]
            t0 = time.perf_counter()
            sig = signatures[mid]
            cls = pipeline.registry.resolve(spec.name)
            use_cache = self.caching and cls.cacheable
            with obs.span(
                "executor.module", parent_id=exec_span.id, module=spec.name
            ) as mspan:
                outputs = self._cache.get(sig) if use_cache else None
                if outputs is not None:
                    mspan.set(status="cached")
                    obs.counter("executor.cache.hit", module=spec.name)
                    return mid, outputs, ModuleRun(
                        mid, spec.name, "cached", time.perf_counter() - t0
                    )
                obs.counter("executor.cache.miss", module=spec.name)
                instance = cls(spec.parameters)
                inputs: Dict[str, Any] = {}
                for conn in pipeline.incoming(mid):
                    inputs[conn.target_port] = module_outputs[conn.source_id][conn.source_port]
                try:
                    faults.check("executor.module", module=spec.name)
                    outputs = instance.check_outputs(instance.compute(inputs))
                except Exception as exc:  # noqa: BLE001 - attributed and re-raised
                    obs.counter("executor.module.failed", module=spec.name)
                    if isinstance(exc, ModuleExecutionError):
                        raise
                    raise ModuleExecutionError(spec.name, exc) from exc
                if use_cache:
                    self._cache[sig] = outputs
                mspan.set(status="ok")
            duration = time.perf_counter() - t0
            obs.histogram("executor.module.duration", duration, module=spec.name)
            return mid, outputs, ModuleRun(mid, spec.name, "ok", duration)

        def finish(mid: int, outputs: Dict[str, Any], run: ModuleRun) -> None:
            module_outputs[mid] = outputs
            result.runs.append(run)
            for port, value in outputs.items():
                result.outputs[(mid, port)] = value
            if self.on_module_complete is not None:
                self.on_module_complete(run, len(result.runs), len(order))

        with exec_span:
            if self.max_workers == 1:
                for mid in order:
                    finish(*run_module(mid))
            else:
                with ThreadPoolExecutor(self.max_workers, thread_name_prefix="repro-executor") as pool:
                    pending: Dict[Future, int] = {}
                    done_set: Set[int] = set()

                    def dispatch_ready() -> None:
                        for mid in sorted(remaining):
                            if dependencies[mid] <= done_set and mid not in {
                                m for m in pending.values()
                            }:
                                pending[pool.submit(run_module, mid)] = mid

                    dispatch_ready()
                    first_error: Optional[BaseException] = None
                    while pending:
                        done, _ = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            mid = pending.pop(future)
                            remaining.discard(mid)
                            try:
                                record = future.result()
                            except BaseException as exc:  # noqa: BLE001
                                if first_error is None:
                                    first_error = exc
                                continue
                            finish(*record)
                            done_set.add(mid)
                        if first_error is None:
                            dispatch_ready()
                    if first_error is not None:
                        raise first_error

        # cache statistics are derived from the run records (the obs
        # counters above carry the per-module breakdown)
        result.cache_hits = sum(1 for run in result.runs if run.status == "cached")
        result.cache_misses = sum(1 for run in result.runs if run.status == "ok")
        result.wall_time = time.perf_counter() - start_wall
        return result
