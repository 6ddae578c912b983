"""Executor-level memoization: one private memo per executor.

The executor keeps module results keyed by their provenance signature
in its own memo (VisTrails' upstream result caching).  Nothing else
answers for a module: a fresh executor recomputes everything, and a
parameter change misses.
"""

from __future__ import annotations

import pytest

from repro.workflow.executor import Executor
from repro.workflow.module import Module
from repro.workflow.pipeline import Pipeline
from repro.workflow.ports import PortSpec
from repro.workflow.registry import ModuleRegistry

CALLS = {"source": 0}


class Source(Module):
    output_ports = (PortSpec("out"),)

    def compute(self, inputs):
        CALLS["source"] += 1
        return {"out": 41}


class AddOne(Module):
    input_ports = (PortSpec("x"),)
    output_ports = (PortSpec("out"),)

    def compute(self, inputs):
        return {"out": inputs["x"] + 1}


class Scaled(Module):
    from repro.workflow.module import ParameterSpec

    output_ports = (PortSpec("out"),)
    parameters = (ParameterSpec("factor", default=2),)

    def compute(self, inputs):
        return {"out": 10 * self.parameter_values["factor"]}


@pytest.fixture()
def registry_():
    reg = ModuleRegistry()
    for cls in (Source, AddOne, Scaled):
        reg.register("t", cls)
    return reg


@pytest.fixture(autouse=True)
def reset_calls():
    CALLS.update(source=0)


def chain(reg):
    p = Pipeline(registry=reg)
    s = p.add_module("Source")
    a = p.add_module("AddOne")
    p.add_connection(s, "out", a, "x")
    return p, s, a


class TestSharedMemoization:
    def test_disabled_cache_preserves_seed_behavior(self, registry_, tmp_path):
        p1, _, _ = chain(registry_)
        Executor().execute(p1)
        p2, _, _ = chain(registry_)
        r2 = Executor().execute(p2)  # fresh executor: nothing is shared
        assert r2.cache_hits == 0
        assert CALLS["source"] == 2
        assert not any(tmp_path.iterdir())

    def test_parameter_change_misses(self, registry_):
        executor = Executor()

        def run(factor):
            p = Pipeline(registry=registry_)
            mid = p.add_module("Scaled", {"factor": factor})
            result = executor.execute(p)
            return result, result.output(mid, "out")

        r1, v1 = run(2)
        assert (r1.cache_misses, v1) == (1, 20)
        r2, v2 = run(2)  # same parameters: a hit from the executor's memo
        assert (r2.cache_hits, v2) == (1, 20)
        r3, v3 = run(3)  # a single parameter change: a miss
        assert (r3.cache_misses, v3) == (1, 30)
