"""Unit tests for the CI perf-regression comparator.

The gate's semantics are proven here with synthetic artifacts — CI
never has to induce a real regression to know the gate would catch
one.  Covers: calibration normalization, the relative threshold, the
absolute noise floor, the speedup-floor contract, the CLI exit codes,
and the job-summary side channel.
"""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import bench_compare  # noqa: E402


def artifact(raycast_s, isosurface_s, calibration_s=0.003):
    return {
        "meta": {"calibration_s": calibration_s},
        "kernels": {
            "raycast": {"serial_s": raycast_s, "parallel_s": raycast_s},
            "isosurface": {"serial_s": isosurface_s, "parallel_s": isosurface_s},
        },
    }


class TestCompareReports:
    def test_no_change_passes(self):
        rows = bench_compare.compare_reports(
            artifact(0.10, 0.10), artifact(0.10, 0.10)
        )
        assert [row["kernel"] for row in rows] == ["raycast", "isosurface"]
        assert not any(row["regression"] for row in rows)

    def test_large_regression_flagged(self):
        rows = bench_compare.compare_reports(
            artifact(0.20, 0.10), artifact(0.10, 0.10)
        )
        flagged = {row["kernel"]: row["regression"] for row in rows}
        assert flagged == {"raycast": True, "isosurface": False}

    def test_slowdown_within_threshold_passes(self):
        rows = bench_compare.compare_reports(
            artifact(0.115, 0.10), artifact(0.10, 0.10), threshold=0.20
        )
        assert not any(row["regression"] for row in rows)

    def test_speedup_never_flagged(self):
        rows = bench_compare.compare_reports(
            artifact(0.01, 0.01), artifact(0.10, 0.10)
        )
        assert not any(row["regression"] for row in rows)

    def test_calibration_normalizes_machine_speed(self):
        # fresh machine is 2x slower overall: raw times double, but so
        # does calibration_s — not a regression
        rows = bench_compare.compare_reports(
            artifact(0.20, 0.20, calibration_s=0.006),
            artifact(0.10, 0.10, calibration_s=0.003),
        )
        assert not any(row["regression"] for row in rows)
        assert all(abs(row["ratio"] - 1.0) < 1e-12 for row in rows)

    def test_noise_floor_suppresses_tiny_absolute_slowdowns(self):
        # 2x relative but only 1 ms absolute: below min_delta in
        # calibrated units, so it must not fail the build
        rows = bench_compare.compare_reports(
            artifact(0.002, 0.002), artifact(0.001, 0.001),
            threshold=0.20, min_delta=0.5,
        )
        assert not any(row["regression"] for row in rows)

    def test_missing_calibration_rejected(self):
        bad = artifact(0.1, 0.1)
        del bad["meta"]["calibration_s"]
        with pytest.raises(bench_compare.CompareError):
            bench_compare.compare_reports(bad, artifact(0.1, 0.1))

    def test_missing_kernel_rejected(self):
        bad = artifact(0.1, 0.1)
        del bad["kernels"]["isosurface"]
        with pytest.raises(bench_compare.CompareError):
            bench_compare.compare_reports(bad, artifact(0.1, 0.1))


class TestSpeedupContract:
    def test_floor_met(self):
        rows = bench_compare.check_speedup(
            artifact(0.03, 0.03), artifact(0.10, 0.10), floor=3.0
        )
        assert all(row["ok"] for row in rows)

    def test_floor_missed(self):
        rows = bench_compare.check_speedup(
            artifact(0.05, 0.03), artifact(0.10, 0.10), floor=3.0
        )
        by_kernel = {row["kernel"]: row["ok"] for row in rows}
        assert by_kernel == {"raycast": False, "isosurface": True}

    def test_speedup_calibrated(self):
        # fresh run came from a machine 2x slower overall; identical raw
        # times mean the fresh code is really 2x faster per calibrated unit
        rows = bench_compare.check_speedup(
            artifact(0.10, 0.10, calibration_s=0.006),
            artifact(0.10, 0.10, calibration_s=0.003),
            floor=1.5,
        )
        assert all(row["ok"] for row in rows)
        assert all(abs(row["speedup"] - 2.0) < 1e-12 for row in rows)


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", artifact(0.1, 0.1))
        base = self.write(tmp_path, "base.json", artifact(0.1, 0.1))
        assert bench_compare.main([fresh, "--baseline", base]) == 0
        out = capsys.readouterr().out
        assert "Perf regression gate" in out and "| raycast |" in out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", artifact(0.5, 0.1))
        base = self.write(tmp_path, "base.json", artifact(0.1, 0.1))
        assert bench_compare.main([fresh, "--baseline", base]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_exit_one_on_missed_speedup_floor(self, tmp_path, capsys):
        fresh = self.write(tmp_path, "fresh.json", artifact(0.1, 0.1))
        base = self.write(tmp_path, "base.json", artifact(0.1, 0.1))
        ref = self.write(tmp_path, "ref.json", artifact(0.2, 0.2))
        assert bench_compare.main(
            [fresh, "--baseline", base, "--speedup-baseline", ref,
             "--speedup-floor", "3.0"]
        ) == 1
        assert "speedup floor missed" in capsys.readouterr().err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", artifact(0.1, 0.1))
        code = bench_compare.main(
            [str(tmp_path / "nope.json"), "--baseline", base]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_job_summary_written(self, tmp_path, monkeypatch, capsys):
        fresh = self.write(tmp_path, "fresh.json", artifact(0.1, 0.1))
        base = self.write(tmp_path, "base.json", artifact(0.1, 0.1))
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        assert bench_compare.main([fresh, "--baseline", base]) == 0
        assert "Perf regression gate" in summary.read_text()

    def test_committed_baselines_are_comparable(self, capsys):
        """The real committed artifacts satisfy the gate's schema."""
        baselines = TOOLS.parent / "benchmarks" / "baselines"
        fresh = bench_compare.load_report(str(baselines / "BENCH_parallel.json"))
        pre = bench_compare.load_report(
            str(baselines / "BENCH_parallel.pre_batching.json")
        )
        rows = bench_compare.compare_reports(fresh, fresh)
        assert not any(row["regression"] for row in rows)
        speedups = bench_compare.check_speedup(fresh, pre, floor=3.0)
        assert all(row["ok"] for row in speedups), speedups
