"""Noise calibration: sets of runs on unchanged code, their medians and spreads.

    python -m benchmarks.e2e.calibrate benchmarks/e2e/results/cal

Three sets of ten runs per workload, each run on another seed, the
workloads taking turns, as the driver makes them.  Prints, per workload
and metric, every set's median, the spread inside each set
((Q3 - Q1) / median) and the largest relative difference between two
set medians — the table in README.md.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.run import run_workload
from benchmarks.e2e.script import RUN_SECONDS, WORKLOADS
from benchmarks.e2e.stats import quartile_spread

SETS = 3
RUNS = 10  # what the driver holds against the bounds


def main(out: Path) -> int:
    values: Dict[str, Dict[str, List[List[float]]]] = {w: {} for w in WORKLOADS}
    failed = 0
    for s in range(SETS):
        directory = out / f"set{s}"
        directory.mkdir(parents=True, exist_ok=True)
        for k in range(RUNS):
            for workload in WORKLOADS:  # workloads alternate, as noise does not
                seed = f"cal-{s}-{k}"
                result = run_workload(workload, seed, RUN_SECONDS, trace=False)
                failed += result["failed"]
                (directory / f"{workload}.{seed}.e2e.json").write_text(json.dumps(result))
                for name, metric in result["metrics"].items():
                    sets = values[workload].setdefault(name, [[] for _ in range(SETS)])
                    sets[s].append(metric["value"])
                print(f"set {s} run {k} {workload}: "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                      flush=True)
    print("\n| workload | metric | " + " | ".join(f"median {s}" for s in range(SETS))
          + " | " + " | ".join(f"spread {s}" for s in range(SETS))
          + " | largest difference |")
    print("|---|---|" + "---|" * (2 * SETS + 1))
    for workload in WORKLOADS:
        for name, sets in values[workload].items():
            medians = [statistics.median(v) for v in sets]
            spreads = [quartile_spread(v) for v in sets]
            difference = max(abs(a - b) / min(a, b) for a in medians for b in medians)
            print(f"| {workload} | {name} | " + " | ".join(f"{m:.4g}" for m in medians)
                  + " | " + " | ".join(f"{x:.3f}" for x in spreads)
                  + f" | {difference:.3f} |")
    print(f"\nfailed operations over all runs: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
