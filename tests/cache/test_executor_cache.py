"""Executor-level memoization through the shared result cache.

The executor's own per-instance signature cache is seed behavior; these
tests cover what the ambient two-tier cache adds (``with
use_config(cfg):`` is the one switch): results that survive across
executor instances and processes, on the serial and the parallel path.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cache.config import CacheConfig, use_config
from repro.cache.store import DiskTier
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
    def test_results_survive_across_executor_instances(self, registry_, tmp_path):
        cfg = CacheConfig(path=str(tmp_path / "cache"))
        p1, _, a1 = chain(registry_)
        with use_config(cfg):
            r1 = Executor().execute(p1)
        assert r1.output(a1, "out") == 42 and r1.cache_misses == 2

        p2, _, a2 = chain(registry_)
        with use_config(cfg):
            r2 = Executor().execute(p2)  # a brand-new executor
        assert r2.output(a2, "out") == 42
        assert r2.cache_hits == 2 and r2.cache_misses == 0
        assert CALLS["source"] == 1

    def test_disk_tier_alone_serves_a_fresh_process_view(self, registry_, tmp_path):
        cfg = CacheConfig(path=str(tmp_path / "cache"), memory_entries=0)
        p1, _, _ = chain(registry_)
        p2, _, a2 = chain(registry_)
        with use_config(cfg):
            Executor().execute(p1)
            r2 = Executor().execute(p2)
        assert r2.cache_hits == 2 and r2.output(a2, "out") == 42

    def test_disabled_cache_preserves_seed_behavior(self, registry_, tmp_path):
        p1, _, _ = chain(registry_)
        Executor().execute(p1)
        p2, _, _ = chain(registry_)
        r2 = Executor().execute(p2)  # fresh executor, no shared cache
        assert r2.cache_hits == 0
        assert CALLS["source"] == 2
        assert not (tmp_path / "cache").exists()

    def test_parameter_change_misses(self, registry_, tmp_path):
        cfg = CacheConfig(path=str(tmp_path / "cache"))

        def run(factor):
            p = Pipeline(registry=registry_)
            mid = p.add_module("Scaled", {"factor": factor})
            with use_config(cfg):
                result = Executor().execute(p)
            return result, result.output(mid, "out")

        r1, v1 = run(2)
        assert (r1.cache_misses, v1) == (1, 20)
        r2, v2 = run(2)  # same parameters: a hit from a fresh executor
        assert (r2.cache_hits, v2) == (1, 20)
        r3, v3 = run(3)  # a single parameter change: a miss
        assert (r3.cache_misses, v3) == (1, 30)

    def test_parallel_executor_memoizes_through_the_disk_tier(self, registry_, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cfg = CacheConfig(path=cache_dir, memory_entries=0)

        def run():
            p = Pipeline(registry=registry_)
            tips = []
            for factor in (2, 3):  # two independent branches for the pool
                s = p.add_module("Scaled", {"factor": factor})
                a = p.add_module("AddOne")
                p.add_connection(s, "out", a, "x")
                tips.append(a)
            with use_config(cfg):
                result = Executor(max_workers=4).execute(p)
            return result, [result.output(a, "out") for a in tips]

        cold, cold_values = run()
        assert (cold.cache_hits, cold.cache_misses) == (0, 4)
        entries = len(DiskTier(cache_dir, max_bytes=1 << 30))
        assert entries == 4
        warm, warm_values = run()  # a brand-new executor: the disk tier answers
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)
        assert warm_values == cold_values == [21, 31]
        assert len(DiskTier(cache_dir, max_bytes=1 << 30)) == entries


_CHILD = r"""
import sys
from repro.cache.config import CacheConfig, use_config
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from repro.workflow.registry import global_registry

sys.path.insert(0, sys.argv[2])
from tests.conftest import build_cell_chain

pipeline = Pipeline(global_registry())
ids = build_cell_chain(pipeline, width=48, height=36)
cfg = CacheConfig(path=sys.argv[1])
with use_config(cfg):
    result = Executor().execute(pipeline)
sys.stdout.write(f"{result.cache_hits},{result.cache_misses}")
"""


class TestCrossProcess:
    def test_second_process_hits_what_the_first_stored(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, cache_dir, root],
                env=env, capture_output=True, text=True, check=True,
            )
            hits, misses = proc.stdout.split(",")
            return int(hits), int(misses)

        cold_hits, cold_misses = run()
        assert cold_hits == 0 and cold_misses > 0
        warm_hits, warm_misses = run()
        # every cacheable module is served from the disk tier; only the
        # non-cacheable live modules (plot, cell) recompute
        assert warm_hits >= 2
        assert warm_misses == cold_misses - warm_hits
        assert len(DiskTier(cache_dir, max_bytes=1 << 30)) >= 2
