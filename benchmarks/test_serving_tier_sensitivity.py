"""A serving tier that stopped working must read ``regressed`` — restated.

``benchmarks/e2e/tests/test_e2e_quick.py::test_a_serving_tier_that_stopped_working_reads_regressed``
plays serve_sessions with the serving cache and speculation switched
off and expects all four paced metrics to worsen by more than their
bounds.  It was written when a repeat that missed the serving cache was
a full render.  Half of the workload's repeats are immediate, in-session
ones, and those are now answered by the cell's kept frame
(:meth:`repro.dv3d.cell.DV3DCell.render`) whatever the serving tier
does, so the pooled ``repeat_ms`` moves by less than its bound.  What a
dead serving tier costs a repeat shows on the other half — the
cross-tenant replays of older frames, which only the serving cache can
answer — so ``repeat_ms`` is judged on those here; the other three
metrics are judged as before.

``benchmarks/e2e`` is frozen between re-anchors, so this file stands
beside it, to take that one test's place in CI's ``e2e`` job (a swap
that waits for a human's approval — CHANGES.md, PR 20) and to be folded
into ``benchmarks/e2e/tests`` at the next re-anchor.  Two child runs,
~25 s::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_tier_sensitivity.py
"""

import json
from pathlib import Path

from benchmarks.e2e import compare, stats
from benchmarks.e2e.run import run_script
from benchmarks.e2e.script import build_script

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _repeat_ms(script, result, tenant):
    """``repeat_ms`` as the benchmark computes it, over one tenant's repeats."""
    ops = {op["i"]: op for op in script["ops"]
           if op["kind"] == "repeat" and op["tenant"] == tenant}
    return stats.cell_latency(
        (ms, probe_ms, ops[i]["think_ms"], source)
        for i, _number, _stratum, _kind, ms, probe_ms, source in result["rows"] if i in ops)


def test_a_serving_tier_that_stopped_working_reads_regressed():
    script = build_script("serve_sessions", "sensitivity", passes=2)
    working = run_script(script, trace=False)
    script["spec"] = dict(script["spec"], cache_entries=0,
                          serving={"slots": 2, "speculation_budget": 0})
    broken = run_script(script, trace=False)
    assert working["failed"] == 0 and broken["failed"] == 0
    bounds = {metric["name"]: metric for metric in SPEC["end_to_end"]}

    def verdict(name, before, after):
        return compare.verdict([before], [after], bounds[name]["better"], bounds[name]["bound"])

    for name in ("step_ms", "orbit_ms", "frames_per_s"):
        before, after = (r["metrics"][name]["value"] for r in (working, broken))
        assert verdict(name, before, after) == "regressed", (name, before, after)
    # a replay of another tenant's frame: the serving cache or a full render
    before, after = (_repeat_ms(script, r, "bob") for r in (working, broken))
    assert verdict("repeat_ms", before, after) == "regressed", ("replay", before, after)
    # an immediate repeat in the session: the cell's kept frame either way
    before, after = (_repeat_ms(script, r, "alice") for r in (working, broken))
    assert verdict("repeat_ms", before, after) != "regressed", ("repeat", before, after)
