#!/usr/bin/env python
"""Compare a fresh ``BENCH_parallel.json`` against a committed baseline.

This is the CI perf-regression gate: the ``perf`` job runs
``perf_report --parallel``, then this tool diffs the pinned kernel
timings against ``benchmarks/baselines/BENCH_parallel.json`` and fails
the build when a kernel slowed down by more than the threshold.

Cross-machine noise is handled two ways:

* every ``perf_report`` artifact embeds ``meta.calibration_s`` — the
  best-of-N time of a fixed numpy workload on the machine that produced
  it — and all comparisons are made in *calibrated units*
  (``seconds / calibration_s``), so a slower CI runner shifts both
  sides equally;
* a regression is only reported when the slowdown clears both the
  relative threshold (default 20%) **and** an absolute floor in
  calibrated units, so micro-benchmarks jittering by fractions of a
  millisecond cannot fail a build.

``--speedup-baseline`` adds a second check, used to enforce the batched
-kernel speedup contract: the fresh run's serial timings must beat the
named (pre-optimization) baseline by ``--speedup-floor`` on every
pinned kernel.

Artifacts with ``"kind": "serving"`` (from ``tools/loadgen.py``) take a
different path: there is no cross-machine baseline for open-loop
latency, so the gate is a structural schema check — trace digest
present, >= 3 offered-load points, each with counters, throughput and
p50/p99 latency — rendered as a table in the job summary.
``"kind": "serving_sessions"`` artifacts (``loadgen.py
--session-locality``) are self-relative, so they carry real gates:
zero byte-identity mismatches against the demand-render oracle, a
speculative hit-rate floor over predictable frames, and a p99
improvement of the session-aware configuration over the stateless
baseline run on the same trace.

Exit codes: 0 ok, 1 regression (or missing speedup), 2 usage/IO error.

Usage::

    PYTHONPATH=src python tools/perf_report.py --parallel --quick --out fresh.json
    python tools/bench_compare.py fresh.json \
        --baseline benchmarks/baselines/BENCH_parallel.quick.json \
        --speedup-baseline benchmarks/baselines/BENCH_parallel.pre_batching.quick.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: kernels whose serial timings gate the build
PINNED_KERNELS = ("raycast", "isosurface")

#: relative slowdown tolerated before a pinned metric is a regression
DEFAULT_THRESHOLD = 0.20

#: absolute floor, in calibrated units, below which a slowdown is noise
#: (with calibration_s ≈ 3 ms this is ≈ 1.5 ms of raw wall time)
DEFAULT_MIN_DELTA = 0.5


class CompareError(Exception):
    """Unusable input (missing file, malformed artifact, bad metric)."""


def load_report(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CompareError(f"cannot read benchmark artifact {path!r}: {exc}") from exc


def validate_serving(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Schema-check a ``kind: serving`` artifact (``tools/loadgen.py``).

    Serving runs have no committed baseline (latency under open-loop
    load is machine-bound); the gate is structural: the artifact must
    carry a deterministic trace digest and at least three offered-load
    points, each reporting completion counters, throughput and the
    p50/p99 latency percentiles.  Returns the load-point rows for
    display; raises :class:`CompareError` on any violation.
    """
    meta = report.get("meta", {})
    if not isinstance(meta.get("trace_digest"), str) or not meta["trace_digest"]:
        raise CompareError("serving artifact has no meta.trace_digest")
    if not isinstance(meta.get("seed"), (str, int)):
        raise CompareError("serving artifact has no meta.seed")
    points = report.get("load_points")
    if not isinstance(points, list) or len(points) < 3:
        raise CompareError(
            "serving artifact needs >= 3 load_points, got "
            f"{len(points) if isinstance(points, list) else type(points).__name__}"
        )
    counters = ("offered", "completed", "ok", "shed", "coalesced", "errors")
    for index, point in enumerate(points):
        if not isinstance(point, dict):
            raise CompareError(f"load_points[{index}] is not an object")
        rps = point.get("offered_rps")
        if not isinstance(rps, (int, float)) or rps <= 0:
            raise CompareError(f"load_points[{index}] has no usable offered_rps")
        for field in counters:
            value = point.get(field)
            if not isinstance(value, int) or value < 0:
                raise CompareError(
                    f"load_points[{index}].{field} must be a non-negative int"
                )
        throughput = point.get("throughput_rps")
        if not isinstance(throughput, (int, float)) or throughput < 0:
            raise CompareError(f"load_points[{index}] has no usable throughput_rps")
        latency = point.get("latency_ms")
        if not isinstance(latency, dict):
            raise CompareError(f"load_points[{index}] has no latency_ms object")
        for quantile in ("p50", "p99"):
            value = latency.get(quantile)
            if not isinstance(value, (int, float)) or value < 0:
                raise CompareError(
                    f"load_points[{index}].latency_ms.{quantile} missing or negative"
                )
        if point["completed"] > point["offered"]:
            raise CompareError(
                f"load_points[{index}]: completed exceeds offered"
            )
    return points


#: minimum aggregate speculative hit rate over predictable frames a
#: ``serving_sessions`` artifact must demonstrate
SESSIONS_MIN_HIT_RATE = 0.5


def validate_serving_sessions(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Gate a ``kind: serving_sessions`` artifact (``loadgen.py
    --session-locality``).

    Latency is machine-bound but the artifact is *self-relative* —
    every load point ran the same trace through a stateless baseline
    and the session-aware configuration on the same machine — so three
    machine-independent invariants gate the build:

    * **byte identity** — zero payload mismatches against the
      deterministic oracle in both configurations (a speculative or
      replayed frame must be the bytes a demand render produces);
    * **speculation works** — the aggregate speculative hit rate over
      predictable frames is >= ``SESSIONS_MIN_HIT_RATE``;
    * **sessions help** — p99 improves over the baseline at the
      highest offered load and on at least half of all load points.

    Returns the load-point rows for display; raises
    :class:`CompareError` on any violation.
    """
    meta = report.get("meta", {})
    if not isinstance(meta.get("trace_digest"), str) or not meta["trace_digest"]:
        raise CompareError("serving_sessions artifact has no meta.trace_digest")
    if not isinstance(meta.get("seed"), (str, int)):
        raise CompareError("serving_sessions artifact has no meta.seed")
    points = report.get("load_points")
    if not isinstance(points, list) or len(points) < 3:
        raise CompareError(
            "serving_sessions artifact needs >= 3 load_points, got "
            f"{len(points) if isinstance(points, list) else type(points).__name__}"
        )
    total_hits = 0
    total_predictable = 0
    p99_wins = 0
    for index, point in enumerate(points):
        if not isinstance(point, dict):
            raise CompareError(f"load_points[{index}] is not an object")
        rps = point.get("offered_rps")
        if not isinstance(rps, (int, float)) or rps <= 0:
            raise CompareError(f"load_points[{index}] has no usable offered_rps")
        predictable = point.get("predictable")
        if not isinstance(predictable, int) or predictable < 0:
            raise CompareError(
                f"load_points[{index}].predictable must be a non-negative int"
            )
        for mode in ("baseline", "sessions"):
            run = point.get(mode)
            if not isinstance(run, dict):
                raise CompareError(f"load_points[{index}].{mode} missing")
            for field in ("offered", "completed", "ok", "shed", "errors"):
                value = run.get(field)
                if not isinstance(value, int) or value < 0:
                    raise CompareError(
                        f"load_points[{index}].{mode}.{field} must be a "
                        "non-negative int"
                    )
            mismatches = run.get("payload_mismatches")
            if not isinstance(mismatches, int) or mismatches < 0:
                raise CompareError(
                    f"load_points[{index}].{mode} has no payload_mismatches "
                    "count (run the harness with its oracle)"
                )
            if mismatches != 0:
                raise CompareError(
                    f"load_points[{index}].{mode}: {mismatches} payload(s) "
                    "differ from the demand-render oracle — byte identity "
                    "is broken"
                )
            latency = run.get("latency_ms")
            if not isinstance(latency, dict):
                raise CompareError(
                    f"load_points[{index}].{mode} has no latency_ms object"
                )
            for quantile in ("p50", "p99"):
                value = latency.get(quantile)
                if not isinstance(value, (int, float)) or value < 0:
                    raise CompareError(
                        f"load_points[{index}].{mode}.latency_ms.{quantile} "
                        "missing or negative"
                    )
        speculative = point.get("speculative")
        if not isinstance(speculative, dict):
            raise CompareError(f"load_points[{index}] has no speculative object")
        for field in ("started", "rendered", "hit", "waste", "cancelled"):
            value = speculative.get(field)
            if not isinstance(value, int) or value < 0:
                raise CompareError(
                    f"load_points[{index}].speculative.{field} must be a "
                    "non-negative int"
                )
        total_hits += speculative["hit"]
        total_predictable += predictable
        if (point["sessions"]["latency_ms"]["p99"]
                < point["baseline"]["latency_ms"]["p99"]):
            p99_wins += 1
    if total_predictable <= 0:
        raise CompareError(
            "serving_sessions trace contains no predictable frames — "
            "nothing for speculation to do"
        )
    hit_rate = total_hits / total_predictable
    if hit_rate < SESSIONS_MIN_HIT_RATE:
        raise CompareError(
            f"speculative hit rate {hit_rate:.2f} is below the "
            f"{SESSIONS_MIN_HIT_RATE:.2f} floor "
            f"({total_hits}/{total_predictable} predictable frames served "
            "from speculation)"
        )
    top = max(points, key=lambda p: p["offered_rps"])
    top_sessions = top["sessions"]["latency_ms"]["p99"]
    top_baseline = top["baseline"]["latency_ms"]["p99"]
    if top_sessions >= top_baseline:
        raise CompareError(
            "session-aware p99 did not improve at the highest offered load "
            f"({top_sessions:.1f}ms >= {top_baseline:.1f}ms baseline)"
        )
    if p99_wins * 2 < len(points):
        raise CompareError(
            f"session-aware p99 improved on only {p99_wins} of "
            f"{len(points)} load points"
        )
    return points


def format_serving_sessions_table(points: List[Dict[str, Any]]) -> str:
    lines = [
        "| offered rps | predictable | spec hits | hit rate | waste "
        "| baseline p50/p99 | sessions p50/p99 |",
        "|---|---|---|---|---|---|---|",
    ]
    for point in points:
        speculative = point["speculative"]
        predictable = point["predictable"]
        hit_rate = speculative["hit"] / predictable if predictable else 0.0
        base = point["baseline"]["latency_ms"]
        sess = point["sessions"]["latency_ms"]
        lines.append(
            "| {rps:g} | {predictable} | {hit} | {rate:.2f} | {waste} "
            "| {bp50:.1f}/{bp99:.1f}ms | {sp50:.1f}/{sp99:.1f}ms |".format(
                rps=point["offered_rps"], predictable=predictable,
                hit=speculative["hit"], rate=hit_rate,
                waste=speculative["waste"],
                bp50=base["p50"], bp99=base["p99"],
                sp50=sess["p50"], sp99=sess["p99"],
            )
        )
    lines.append("")
    lines.append(
        "Gates: zero oracle payload mismatches in both configurations, "
        f"aggregate hit rate >= {SESSIONS_MIN_HIT_RATE:.2f}, p99 better "
        "than baseline at the top load point and on half of all points."
    )
    return "\n".join(lines)


def format_serving_table(points: List[Dict[str, Any]]) -> str:
    lines = [
        "| offered rps | offered | completed | shed | coalesced "
        "| p50 | p99 | throughput |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for point in points:
        latency = point["latency_ms"]
        lines.append(
            "| {offered_rps:g} | {offered} | {completed} | {shed} "
            "| {coalesced} | {p50:.1f}ms | {p99:.1f}ms | {tp:.1f}rps |".format(
                p50=latency["p50"], p99=latency["p99"],
                tp=point["throughput_rps"], **point,
            )
        )
    return "\n".join(lines)


def calibration(report: Dict[str, Any]) -> float:
    value = report.get("meta", {}).get("calibration_s")
    if not isinstance(value, (int, float)) or value <= 0:
        raise CompareError(
            "artifact has no usable meta.calibration_s "
            "(regenerate it with the current perf_report)"
        )
    return float(value)


def kernel_seconds(report: Dict[str, Any], kernel: str, field: str) -> float:
    value = report.get("kernels", {}).get(kernel, {}).get(field)
    if not isinstance(value, (int, float)) or value <= 0:
        raise CompareError(f"artifact has no usable kernels.{kernel}.{field}")
    return float(value)


def compare_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    min_delta: float = DEFAULT_MIN_DELTA,
    kernels: Tuple[str, ...] = PINNED_KERNELS,
) -> List[Dict[str, Any]]:
    """Per-kernel comparison rows; ``row["regression"]`` flags failures.

    Times are divided by each artifact's own ``meta.calibration_s``
    before comparing, so artifacts from differently-sized machines are
    commensurable.
    """
    fresh_cal = calibration(fresh)
    base_cal = calibration(baseline)
    rows: List[Dict[str, Any]] = []
    for kernel in kernels:
        fresh_units = kernel_seconds(fresh, kernel, "serial_s") / fresh_cal
        base_units = kernel_seconds(baseline, kernel, "serial_s") / base_cal
        ratio = fresh_units / base_units
        regression = (
            ratio > 1.0 + threshold and (fresh_units - base_units) > min_delta
        )
        rows.append(
            {
                "kernel": kernel,
                "metric": "serial_s",
                "fresh_s": kernel_seconds(fresh, kernel, "serial_s"),
                "baseline_s": kernel_seconds(baseline, kernel, "serial_s"),
                "fresh_units": fresh_units,
                "baseline_units": base_units,
                "ratio": ratio,
                "regression": bool(regression),
            }
        )
    return rows


def check_speedup(
    fresh: Dict[str, Any],
    reference: Dict[str, Any],
    floor: float,
    kernels: Tuple[str, ...] = PINNED_KERNELS,
) -> List[Dict[str, Any]]:
    """Calibrated speedup of *fresh* over a pre-optimization *reference*."""
    fresh_cal = calibration(fresh)
    ref_cal = calibration(reference)
    rows: List[Dict[str, Any]] = []
    for kernel in kernels:
        fresh_units = kernel_seconds(fresh, kernel, "serial_s") / fresh_cal
        ref_units = kernel_seconds(reference, kernel, "serial_s") / ref_cal
        speedup = ref_units / fresh_units
        rows.append(
            {
                "kernel": kernel,
                "metric": "serial_s",
                "speedup": speedup,
                "floor": floor,
                "ok": bool(speedup >= floor),
            }
        )
    return rows


def format_table(rows: List[Dict[str, Any]], threshold: float) -> str:
    lines = [
        "| kernel | baseline | fresh | calibrated ratio | status |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        status = "REGRESSION" if row["regression"] else "ok"
        lines.append(
            "| {kernel} | {baseline_s:.4f}s | {fresh_s:.4f}s "
            "| {ratio:.2f}x | {status} |".format(status=status, **row)
        )
    lines.append("")
    lines.append(
        f"Gate: fail when calibrated ratio > {1.0 + threshold:.2f}x "
        "and the slowdown clears the noise floor."
    )
    return "\n".join(lines)


def format_speedup_table(rows: List[Dict[str, Any]]) -> str:
    lines = [
        "| kernel | speedup vs pre-batching | floor | status |",
        "|---|---|---|---|",
    ]
    for row in rows:
        status = "ok" if row["ok"] else "TOO SLOW"
        lines.append(
            "| {kernel} | {speedup:.2f}x | {floor:.2f}x | {status} |".format(
                status=status, **row
            )
        )
    return "\n".join(lines)


def write_job_summary(markdown: str) -> None:
    """Append to the GitHub Actions job summary when running in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    try:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
    except OSError:
        pass  # a broken summary file must not mask the comparison result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh BENCH_parallel.json to evaluate")
    parser.add_argument(
        "--baseline",
        default=str(
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "baselines" / "BENCH_parallel.json"
        ),
        help="committed baseline artifact to diff against",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative slowdown tolerated before failing (default 0.20)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=DEFAULT_MIN_DELTA,
        help="absolute noise floor in calibrated units (default 0.5)",
    )
    parser.add_argument(
        "--speedup-baseline", default=None,
        help="pre-optimization artifact the fresh run must beat",
    )
    parser.add_argument(
        "--speedup-floor", type=float, default=3.0,
        help="required calibrated speedup over --speedup-baseline (default 3.0)",
    )
    args = parser.parse_args(argv)

    try:
        fresh = load_report(args.fresh)
        if fresh.get("kind") == "serving":
            points = validate_serving(fresh)
            markdown = (
                "## Serving load harness\n\n"
                f"trace digest `{fresh['meta']['trace_digest'][:16]}…` "
                f"(seed {fresh['meta'].get('seed')!r})\n\n"
                + format_serving_table(points)
            )
            print(markdown)
            write_job_summary(markdown)
            return 0
        if fresh.get("kind") == "serving_sessions":
            points = validate_serving_sessions(fresh)
            markdown = (
                "## Session-aware serving harness\n\n"
                f"trace digest `{fresh['meta']['trace_digest'][:16]}…` "
                f"(seed {fresh['meta'].get('seed')!r})\n\n"
                + format_serving_sessions_table(points)
            )
            print(markdown)
            write_job_summary(markdown)
            return 0
        baseline = load_report(args.baseline)
        rows = compare_reports(
            fresh, baseline, threshold=args.threshold, min_delta=args.min_delta
        )
        speedup_rows: List[Dict[str, Any]] = []
        if args.speedup_baseline:
            reference = load_report(args.speedup_baseline)
            speedup_rows = check_speedup(fresh, reference, args.speedup_floor)
    except CompareError as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2

    markdown = "## Perf regression gate\n\n" + format_table(rows, args.threshold)
    if speedup_rows:
        markdown += "\n\n### Batched-kernel speedup contract\n\n"
        markdown += format_speedup_table(speedup_rows)
    print(markdown)
    write_job_summary(markdown)

    failed = [row for row in rows if row["regression"]]
    too_slow = [row for row in speedup_rows if not row["ok"]]
    if failed or too_slow:
        for row in failed:
            print(
                f"bench_compare: REGRESSION {row['kernel']}.{row['metric']}: "
                f"{row['ratio']:.2f}x calibrated baseline",
                file=sys.stderr,
            )
        for row in too_slow:
            print(
                f"bench_compare: speedup floor missed for {row['kernel']}: "
                f"{row['speedup']:.2f}x < {row['floor']:.2f}x",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
