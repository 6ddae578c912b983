"""Run one workload of the end-to-end benchmark in a fresh child process.

    python -m benchmarks.e2e.run --workload explore_surface --seed e2e-v1
    python -m benchmarks.e2e.run --all [--quick] [--trace]

Prints every metric by name with its unit, then — the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` (the default) reports the end-to-end
metrics; ``--trace`` / ``--trace 1`` does the separate traced run and
reports the per-layer metrics.  ``--out DIR`` keeps each run's full
result for ``python -m benchmarks.e2e.compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(ROOT) not in sys.path:  # ``python benchmarks/e2e/run.py`` from the root
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.script import RUN_SECONDS, WORKLOADS, build_script, passes_for  # noqa: E402

#: fixed for the child and recorded in its result
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170


def run_script(script: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Play a generated script in a fresh child process and return its result."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{script['workload']}-", dir=work))
    try:
        (workdir / "script.json").write_text(json.dumps(script))
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        command = [
            sys.executable, "-m", "benchmarks.e2e.child",
            "--script", str(workdir / "script.json"), "--out", str(workdir / "result.json"),
            "--trace", str(int(trace)),
        ]
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"child exited with code {done.returncode}")
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = CHILD_ENV
    result["gating"] = not script["quick"]
    return result


def run_workload(workload: str, seed: str, seconds: float, trace: bool,
                 quick: bool = False) -> Dict[str, Any]:
    """Generate the op list (before the program is imported) and play it."""
    passes = 2 if trace else passes_for(workload, seconds, quick)
    return run_script(build_script(workload, seed, passes, quick), trace)


def report(result: Dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    gating = "" if result["gating"] else "  [--quick: NOT a gating run]"
    print(f"== {result['workload']}  seed={result['seed']}  passes={result['passes']}  "
          f"{kind}{gating}")
    print(f"   ops={result['attempted']} failed={result['failed']} "
          f"machine_slowdown={result['machine_slowdown']:.2f} script={result['digest'][:12]}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<46} {metric['value']:>12.4f} {metric['unit']}")
    for kind_name, value in result.get("bare_ms", {}).items():
        print(f"   {kind_name + '_ms, think time excluded (not gated)':<46} {value:>12.4f} ms")
    for kind_name, shares in result.get("shares", {}).items():
        top = sorted(shares.items(), key=lambda item: -item[1])[:6]
        print(f"   share of {kind_name:<7}" + "  ".join(f"{k}={v:.2f}" for k, v in top))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload in turn")
    parser.add_argument("--seed", default="e2e-v1")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales the number of timed passes (a run is a fixed op list)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass, quarter counts: a smoke run, not a gating one")
    parser.add_argument("--out", help="directory to keep full results in")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    names = sorted(WORKLOADS) if args.all else [args.workload]
    last: Dict[str, Any] = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.quick)
        report(result)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            suffix = "trace" if result["trace"] else "e2e"
            (out / f"{name}.{args.seed}.{suffix}.json").write_text(json.dumps(result, indent=1))
        last = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
        print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
