"""The op list is a pure function of (workload, seed, passes)."""

import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.script import (
    GESTURES, RUN_SECONDS, WORKLOADS, build_script, passes_for, stratum_counts,
)

ROOT = Path(__file__).resolve().parents[3]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    passes = passes_for(workload, RUN_SECONDS)
    first = build_script(workload, "e2e-v1", passes)
    again = build_script(workload, "e2e-v1", passes)
    assert first["digest"] == again["digest"]
    assert first["ops"] == again["ops"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_reorders_but_keeps_the_counts(workload):
    passes = passes_for(workload, RUN_SECONDS)
    one = build_script(workload, "e2e-v1", passes)
    two = build_script(workload, "e2e-v2", passes)
    assert one["digest"] != two["digest"]
    assert stratum_counts(one) == stratum_counts(two)

    def moving_parts(script):  # what a seed is allowed to change
        return [(op.get("params", {}).get("timestep"), op.get("params", {}).get("azimuth"),
                 op.get("azimuth"), (op.get("edit") or {}).get("variable"), op["stratum"])
                for op in script["ops"]]

    assert moving_parts(one) != moving_parts(two)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sample_minima(workload):
    counts = stratum_counts(build_script(workload, "e2e-v1", passes_for(workload, RUN_SECONDS)))
    strata = {key.split("/")[0] for key in counts}
    for stratum in strata:
        for kind in GESTURES:
            assert counts[f"{stratum}/{kind}"] >= 30, (stratum, kind)
    assert sum(n for key, n in counts.items() if key.endswith("/open")) >= 8


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_repeat_names_a_request_it_equals(workload):
    ops = build_script(workload, "e2e-v1", 3)["ops"]
    repeats = [op for op in ops if op["kind"] == "repeat"]
    assert repeats
    for op in repeats:
        original = ops[op["repeat_of"]]
        assert original["i"] < op["i"]
        assert original.get("params") == op.get("params")
        assert original.get("edit") == op.get("edit")


def test_passes_scale_with_seconds_but_never_below_three():
    assert passes_for("explore_surface", RUN_SECONDS) == WORKLOADS["explore_surface"]["passes"]
    assert passes_for("explore_surface", 1) == 3
    assert passes_for("explore_surface", 2 * RUN_SECONDS) == 12
    assert passes_for("explore_surface", RUN_SECONDS, quick=True) == 1


def test_generating_a_script_imports_no_program():
    code = ("import sys; from benchmarks.e2e.script import build_script; "
            "build_script('stream_animate', 's', 3); "
            "sys.exit(any(m == 'repro' or m.startswith('repro.') or m == 'numpy' "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT).returncode == 0
