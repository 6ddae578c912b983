"""Compare two sets of run results (directories written by ``run --out``).

    python -m benchmarks.e2e.compare A B

Per workload and end-to-end metric: both medians and quartiles, the
ratio B/A with its base, and a verdict by the bounds of BENCHMARK.json:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so neither "unchanged" nor "regressed" can be said — unless
  every run of B reads better than every run of A, which is ``improved``;
* ``improved``   — B's median is better by more than A's own quartile
  spread;
* ``unchanged``  — otherwise.

Exits non-zero on any ``regressed`` or any rise in failed/ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> one value per run


def load_set(directory: Path) -> Tuple[Runs, Dict[str, Tuple[int, int]]]:
    """Metric values and (failed, ops) per workload of the gating runs in *directory*."""
    values: Runs = {}
    failed: Dict[str, Tuple[int, int]] = {}
    for path in sorted(directory.glob("*.e2e.json")):
        result = json.loads(path.read_text())
        if not result.get("gating", True):
            continue
        workload = result["workload"]
        for name, metric in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
        bad, ops = failed.get(workload, (0, 0))
        failed[workload] = (bad + result["failed"], ops + result["attempted"])
    return values, failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive worsening = worse
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worsening = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worsening > bound:
        return "regressed"
    if -worsening > (a3 - a1) / am and worsening < 0:
        return "improved"
    return "unchanged"


def compare(a_dir: Path, b_dir: Path, spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    a_values, a_failed = load_set(a_dir)
    b_values, b_failed = load_set(b_dir)
    lines = ["| workload | metric | A median [Q1, Q3] | B median [Q1, Q3] | B/A (base A) | verdict |",
             "|---|---|---|---|---|---|"]
    bad = False
    for workload in sorted(set(a_values) & set(b_values)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_values[workload].get(name), b_values[workload].get(name)
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            word = verdict(a, b, metric["better"], metric["bound"])
            bad |= word == "regressed"
            lines.append(
                f"| {workload} | {name} ({metric['unit']}) | {am:.4g} [{a1:.4g}, {a3:.4g}] "
                f"| {bm:.4g} [{b1:.4g}, {b3:.4g}] | {bm / am:.3f} (base {am:.4g}) | {word} |")
        (af, ao), (bf, bo) = a_failed[workload], b_failed[workload]
        rose = bf * ao > af * bo
        bad |= rose
        lines.append(f"| {workload} | failed/ops | {af}/{ao} | {bf}/{bo} | | "
                     f"{'ROSE' if rose else 'ok'} |")
    return lines, bad


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="directory of the base runs")
    parser.add_argument("b", type=Path, help="directory of the runs to judge")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(args.a, args.b, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
