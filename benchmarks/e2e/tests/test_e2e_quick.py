"""``--quick`` runs: every metric BENCHMARK.json names is printed, nothing fails."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare
from benchmarks.e2e.run import run_script
from benchmarks.e2e.script import WORKLOADS, build_script

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*arguments):
    started = time.monotonic()
    done = subprocess.run([sys.executable, *SPEC["command"][1:], *arguments],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done, time.monotonic() - started


def test_benchmark_json_names_these_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_prints_every_end_to_end_metric(workload):
    done, seconds = _run("--workload", workload, "--seed", "7", "--quick")
    assert done.returncode == 0, done.stderr
    assert seconds < 25
    assert "NOT a gating run" in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["serve_sessions", "analyze_reduce"])
def test_quick_traced_run_prints_every_per_layer_metric(workload):
    done, seconds = _run("--workload", workload, "--seed", "7", "--quick", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert seconds < 25
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_a_serving_tier_that_stopped_working_reads_regressed():
    """serve_sessions with speculation and the serving cache switched off.

    Every frame is still correct, only rendered on demand: the paced
    gestures must read ``regressed`` by the bounds of BENCHMARK.json.
    """
    script = build_script("serve_sessions", "sensitivity", passes=2)
    working = run_script(script, trace=False)
    script["spec"] = dict(script["spec"], cache_entries=0,
                          serving={"slots": 2, "speculation_budget": 0})
    broken = run_script(script, trace=False)
    assert working["failed"] == 0 and broken["failed"] == 0
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        if name in ("step_ms", "orbit_ms", "repeat_ms", "frames_per_s"):
            before, after = (r["metrics"][name]["value"] for r in (working, broken))
            assert compare.verdict([before], [after], metric["better"],
                                   metric["bound"]) == "regressed", (name, before, after)


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "explore_surface",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
