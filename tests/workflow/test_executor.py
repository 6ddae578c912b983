"""Executor: dataflow, caching, parallelism, failure attribution."""

import threading
import time

import pytest

from repro.util.errors import ModuleExecutionError, WorkflowError
from repro.workflow.executor import Executor
from repro.workflow.module import Module, ParameterSpec
from repro.workflow.pipeline import Pipeline
from repro.workflow.ports import PortSpec
from repro.workflow.registry import ModuleRegistry

CALL_COUNTS = {}
CALL_LOCK = threading.Lock()


class Source(Module):
    name = "Source"
    output_ports = (PortSpec("out", "number"),)
    parameters = (ParameterSpec("value", 1.0),)

    def compute(self, inputs):
        with CALL_LOCK:
            CALL_COUNTS["Source"] = CALL_COUNTS.get("Source", 0) + 1
        return {"out": float(self.parameter_values["value"])}


class Double(Module):
    name = "Double"
    input_ports = (PortSpec("in", "number"),)
    output_ports = (PortSpec("out", "number"),)

    def compute(self, inputs):
        with CALL_LOCK:
            CALL_COUNTS["Double"] = CALL_COUNTS.get("Double", 0) + 1
        return {"out": inputs["in"] * 2}


class Add(Module):
    name = "Add"
    input_ports = (PortSpec("a", "number"), PortSpec("b", "number"))
    output_ports = (PortSpec("out", "number"),)

    def compute(self, inputs):
        return {"out": inputs["a"] + inputs["b"]}


class Sleeper(Module):
    name = "Sleeper"
    input_ports = (PortSpec("in", "number", optional=True),)
    output_ports = (PortSpec("out", "number"),)
    parameters = (ParameterSpec("seconds", 0.05), ParameterSpec("tag", ""))
    cacheable = False

    def compute(self, inputs):
        time.sleep(float(self.parameter_values["seconds"]))
        return {"out": 1.0}


class Exploder(Module):
    name = "Exploder"
    input_ports = (PortSpec("in", "number", optional=True),)
    output_ports = (PortSpec("out", "number"),)

    def compute(self, inputs):
        raise ValueError("kaboom")


class Incomplete(Module):
    name = "Incomplete"
    output_ports = (PortSpec("out", "number"), PortSpec("missing", "number"))

    def compute(self, inputs):
        return {"out": 1.0}


class Stateful(Module):
    name = "Stateful"
    output_ports = (PortSpec("out", "any"),)
    cacheable = False

    def compute(self, inputs):
        return {"out": object()}


@pytest.fixture()
def registry():
    reg = ModuleRegistry()
    for cls in (Source, Double, Add, Sleeper, Exploder, Incomplete, Stateful):
        reg.register("test", cls)
    return reg


@pytest.fixture(autouse=True)
def reset_counts():
    CALL_COUNTS.clear()


def make_chain(registry, value=3.0):
    p = Pipeline(registry)
    source = p.add_module("Source", {"value": value})
    double = p.add_module("Double")
    p.add_connection(source, "out", double, "in")
    return p, source, double


class TestBasicExecution:
    def test_dataflow(self, registry):
        p, _source, double = make_chain(registry, 3.0)
        result = Executor(caching=False).execute(p)
        assert result.output(double, "out") == 6.0

    def test_output_without_port_when_unique(self, registry):
        p, _s, double = make_chain(registry)
        result = Executor(caching=False).execute(p)
        assert result.output(double) == result.output(double, "out")

    def test_missing_output_raises(self, registry):
        p, _s, double = make_chain(registry)
        result = Executor(caching=False).execute(p)
        with pytest.raises(WorkflowError):
            result.output(double, "bogus")

    def test_diamond(self, registry):
        p = Pipeline(registry)
        source = p.add_module("Source", {"value": 2.0})
        left = p.add_module("Double")
        right = p.add_module("Double")
        add = p.add_module("Add")
        p.add_connection(source, "out", left, "in")
        p.add_connection(source, "out", right, "in")
        p.add_connection(left, "out", add, "a")
        p.add_connection(right, "out", add, "b")
        result = Executor(caching=False).execute(p)
        assert result.output(add, "out") == 8.0

    def test_targets_execute_only_upstream(self, registry):
        p, source, double = make_chain(registry)
        extra = p.add_module("Source", {"value": 99.0})
        result = Executor(caching=False).execute(p, targets=[double])
        assert (extra, "out") not in result.outputs
        assert result.output(double, "out") == 6.0

    def test_runs_recorded(self, registry):
        p, _s, _d = make_chain(registry)
        result = Executor(caching=False).execute(p)
        assert len(result.runs) == 2
        assert all(r.status == "ok" for r in result.runs)
        assert all(r.duration >= 0 for r in result.runs)


class TestCaching:
    def test_second_execution_all_cached(self, registry):
        p, _s, _d = make_chain(registry)
        ex = Executor(caching=True)
        ex.execute(p)
        result = ex.execute(p)
        assert result.cache_hits == 2 and result.cache_misses == 0
        assert CALL_COUNTS == {"Source": 1, "Double": 1}

    def test_parameter_edit_invalidates_downstream(self, registry):
        p, source, double = make_chain(registry)
        ex = Executor(caching=True)
        ex.execute(p)
        p.set_parameter(source, "value", 10.0)
        result = ex.execute(p)
        assert result.cache_misses == 2  # both recomputed
        assert result.output(double, "out") == 20.0

    def test_independent_branch_stays_cached(self, registry):
        p = Pipeline(registry)
        s1 = p.add_module("Source", {"value": 1.0})
        s2 = p.add_module("Source", {"value": 2.0})
        d1 = p.add_module("Double")
        d2 = p.add_module("Double")
        p.add_connection(s1, "out", d1, "in")
        p.add_connection(s2, "out", d2, "in")
        ex = Executor(caching=True)
        ex.execute(p)
        p.set_parameter(s1, "value", 5.0)
        result = ex.execute(p)
        assert result.status_of(d2) == "cached"
        assert result.status_of(d1) == "ok"

    def test_caching_disabled(self, registry):
        p, _s, _d = make_chain(registry)
        ex = Executor(caching=False)
        ex.execute(p)
        result = ex.execute(p)
        assert result.cache_hits == 0

    def test_non_cacheable_always_recomputes(self, registry):
        p = Pipeline(registry)
        stateful = p.add_module("Stateful")
        ex = Executor(caching=True)
        first = ex.execute(p).output(stateful, "out")
        second = ex.execute(p).output(stateful, "out")
        assert first is not second

    def test_clear_cache(self, registry):
        p, _s, _d = make_chain(registry)
        ex = Executor(caching=True)
        ex.execute(p)
        assert ex.cache_size == 2
        ex.clear_cache()
        assert ex.cache_size == 0

    def test_retain_drops_what_the_set_does_not_name(self, registry):
        p, source, double = make_chain(registry)
        ex = Executor(caching=True)
        ex.execute(p)
        ex.retain({ex.signatures(p)[source]})
        assert ex.cache_size == 1
        result = ex.execute(p)
        assert (result.status_of(source), result.status_of(double)) == ("cached", "ok")
        ex.retain(set())
        assert ex.cache_size == 0


class TestParallel:
    def test_parallel_faster_than_serial(self, registry):
        p = Pipeline(registry)
        for tag in range(4):
            p.add_module("Sleeper", {"seconds": 0.08, "tag": str(tag)})
        serial = Executor(caching=False, max_workers=1)
        parallel = Executor(caching=False, max_workers=4)
        t0 = time.perf_counter()
        serial.execute(p)
        serial_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel.execute(p)
        parallel_time = time.perf_counter() - t0
        assert parallel_time < serial_time * 0.7

    def test_parallel_correctness(self, registry):
        p = Pipeline(registry)
        source = p.add_module("Source", {"value": 2.0})
        doubles = []
        for _ in range(6):
            d = p.add_module("Double")
            p.add_connection(source, "out", d, "in")
            doubles.append(d)
        result = Executor(caching=False, max_workers=3).execute(p)
        assert all(result.output(d, "out") == 4.0 for d in doubles)

    def test_bad_worker_count(self):
        with pytest.raises(WorkflowError):
            Executor(max_workers=0)


class TestFailures:
    def test_error_attributed_to_module(self, registry):
        p = Pipeline(registry)
        p.add_module("Exploder")
        with pytest.raises(ModuleExecutionError, match="Exploder"):
            Executor(caching=False).execute(p)

    def test_error_in_parallel_mode(self, registry):
        p = Pipeline(registry)
        p.add_module("Exploder")
        p.add_module("Sleeper", {"seconds": 0.01})
        with pytest.raises(ModuleExecutionError):
            Executor(caching=False, max_workers=2).execute(p)

    def test_incomplete_outputs_detected(self, registry):
        p = Pipeline(registry)
        p.add_module("Incomplete")
        with pytest.raises(ModuleExecutionError, match="omitted"):
            Executor(caching=False).execute(p)

    def test_invalid_pipeline_rejected_before_run(self, registry):
        p = Pipeline(registry)
        p.add_module("Double")  # required input unconnected
        with pytest.raises(WorkflowError, match="unconnected"):
            Executor(caching=False).execute(p)


def make_two_branch(registry):
    """One healthy chain and one exploding chain, independent of each other."""
    p = Pipeline(registry)
    good_src = p.add_module("Source", {"value": 3.0})
    good_dbl = p.add_module("Double")
    p.add_connection(good_src, "out", good_dbl, "in")
    bad = p.add_module("Exploder")
    bad_dbl = p.add_module("Double")
    p.add_connection(bad, "out", bad_dbl, "in")
    return p, {"good_src": good_src, "good_dbl": good_dbl,
               "bad": bad, "bad_dbl": bad_dbl}


class TestFailurePolicy:
    """The executor fails fast: the first module failure raises,
    attributed to its module, and nothing downstream of it runs."""

    def test_fail_fast_remains_default(self, registry):
        p, _ids = make_two_branch(registry)
        with pytest.raises(ModuleExecutionError, match="Exploder"):
            Executor(caching=False).execute(p)

    def test_failure_recorded_with_module_name(self, registry):
        p, _ids = make_two_branch(registry)
        for workers in (1, 3):
            with pytest.raises(ModuleExecutionError) as info:
                Executor(caching=False, max_workers=workers).execute(p)
            assert str(info.value) == (
                "module 'test:Exploder' failed: ValueError('kaboom')"
            )
            assert info.value.module_name == "test:Exploder"
            assert isinstance(info.value.__cause__, ValueError)

    def test_transitive_skip(self, registry):
        # bad -> double -> double: nothing downstream of the failure runs
        p = Pipeline(registry)
        bad = p.add_module("Exploder")
        d1 = p.add_module("Double")
        d2 = p.add_module("Double")
        p.add_connection(bad, "out", d1, "in")
        p.add_connection(d1, "out", d2, "in")
        for workers in (1, 3):
            with pytest.raises(ModuleExecutionError, match="Exploder"):
                Executor(caching=False, max_workers=workers).execute(p)
        assert "Double" not in CALL_COUNTS

    def test_failed_module_not_cached(self, registry):
        from repro.resilience import faults

        p = Pipeline(registry)
        source = p.add_module("Source", {"value": 2.0})
        executor = Executor(caching=True)
        with faults.injected("executor.module", "raise", match={"module": "test:Source"}):
            with pytest.raises(ModuleExecutionError, match="Source"):
                executor.execute(p)
        assert executor.cache_size == 0
        # fault exhausted: the module recomputes (no poisoned cache entry)
        second = executor.execute(p)
        assert second.status_of(source) == "ok"
        assert second.output(source, "out") == 2.0

    def test_injected_fault_counts_metrics(self, registry):
        from repro import obs
        from repro.resilience import faults

        p = Pipeline(registry)
        p.add_module("Source", {"value": 1.0})
        recorder = obs.enable(obs.Recorder())
        try:
            with faults.injected("executor.module", "raise",
                                 match={"module": "test:Source"}):
                with pytest.raises(ModuleExecutionError):
                    Executor(caching=False).execute(p)
        finally:
            obs.disable()
        assert recorder.counter_total("executor.module.failed") == 1
        assert recorder.counter_total("resilience.faults.fired") == 1
