"""compare.py: verdicts by the bounds, and its exit code."""

import json

from benchmarks.e2e import compare

SPEC = {"end_to_end": [
    {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
]}
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdicts():
    slower = [v * 1.2 for v in STEADY]
    faster = [v * 0.8 for v in STEADY]
    assert compare.verdict(STEADY, STEADY, "lower", 0.10) == "unchanged"
    assert compare.verdict(STEADY, slower, "lower", 0.10) == "regressed"
    assert compare.verdict(STEADY, faster, "lower", 0.10) == "improved"
    assert compare.verdict(STEADY, slower, "higher", 0.10) == "improved"
    assert compare.verdict(STEADY, faster, "higher", 0.10) == "regressed"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    noisy = [80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, [v * 0.4 for v in noisy], "lower", 0.10) == "improved"


def _write_set(directory, step_values, failed=0):
    directory.mkdir()
    for k, value in enumerate(step_values):
        (directory / f"w.{k}.e2e.json").write_text(json.dumps({
            "workload": "w", "gating": True, "failed": failed, "attempted": 100,
            "metrics": {"step_ms": {"value": value, "unit": "ms"},
                        "frames_per_s": {"value": 1000.0 / value, "unit": "1/s"}},
        }))


def test_regressions_and_failures_are_bad(tmp_path):
    _write_set(tmp_path / "a", STEADY)
    _write_set(tmp_path / "same", STEADY)
    _write_set(tmp_path / "slow", [v * 1.3 for v in STEADY])
    _write_set(tmp_path / "broken", STEADY, failed=2)

    def run(b):
        return compare.compare(tmp_path / "a", tmp_path / b, SPEC)

    assert run("same")[1] is False
    lines, bad = run("slow")
    assert bad and "regressed" in "\n".join(lines) and "(base 100)" in "\n".join(lines)
    lines, bad = run("broken")
    assert bad and "ROSE" in "\n".join(lines)


def test_the_command_reads_the_bounds_of_benchmark_json(tmp_path, capsys):
    _write_set(tmp_path / "a", STEADY)
    _write_set(tmp_path / "slow", [v * 1.3 for v in STEADY])  # past every bound (<= 0.25)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    assert "regressed" in capsys.readouterr().out
