"""Ablation — the cost of transparent provenance capture.

Every workflow edit through a :class:`Vistrail` records a change action
and grows the version tree; the ablation measures that overhead against
editing a bare :class:`Pipeline`, plus the cost of materializing (re-
playing) deep histories — the operation behind "users can easily back
up to earlier stages".
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.provenance.vistrail import Vistrail
from repro.workflow.pipeline import Pipeline

N_EDITS = 200


def run_edit_script_bare(registry) -> Pipeline:
    pipeline = Pipeline(registry)
    module = pipeline.add_module("basic:Constant", {"value": 0})
    for i in range(N_EDITS):
        pipeline.set_parameter(module, "value", i)
    return pipeline


def run_edit_script_tracked(registry) -> Vistrail:
    vistrail = Vistrail("bench", registry)
    module = vistrail.add_module("basic:Constant", {"value": 0})
    for i in range(N_EDITS):
        vistrail.set_parameter(module, "value", i)
    return vistrail


def test_ablation_edits_bare_pipeline(benchmark, registry):
    benchmark.group = "ablation-provenance-edits"
    pipeline = benchmark(lambda: run_edit_script_bare(registry))
    assert pipeline.modules[0].parameters["value"] == N_EDITS - 1


def test_ablation_edits_with_provenance(benchmark, registry):
    benchmark.group = "ablation-provenance-edits"
    vistrail = benchmark(lambda: run_edit_script_tracked(registry))
    assert len(vistrail.tree) == N_EDITS + 2  # root + add + edits


@pytest.mark.parametrize("depth", [50, 200])
def test_ablation_materialize_history(benchmark, registry, depth):
    """Replaying a version at the end of a deep linear history."""
    vistrail = Vistrail("bench", registry)
    module = vistrail.add_module("basic:Constant", {"value": 0})
    for i in range(depth):
        vistrail.set_parameter(module, "value", i)
    target = vistrail.current_version
    benchmark.group = "ablation-provenance-materialize"
    pipeline = benchmark(lambda: vistrail.tree.materialize(target, registry))
    assert pipeline.modules[module].parameters["value"] == depth - 1


def test_ablation_provenance_report(registry):
    import time

    t0 = time.perf_counter()
    run_edit_script_bare(registry)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_edit_script_tracked(registry)
    tracked = time.perf_counter() - t0
    per_edit_us = (tracked - bare) / N_EDITS * 1e6
    report("Ablation: provenance capture overhead",
           [("bare edits", f"{bare * 1e3:.2f} ms / {N_EDITS}"),
            ("tracked edits", f"{tracked * 1e3:.2f} ms / {N_EDITS}"),
            ("overhead per edit", f"{per_edit_us:.1f} µs")])
    # capture must stay cheap relative to any real module execution
    assert per_edit_us < 5000
