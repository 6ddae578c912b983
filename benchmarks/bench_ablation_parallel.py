"""Ablation — "parallel task execution" (paper abstract).

Independent workflow branches execute concurrently on the executor's
thread pool.  The ablation separates the two workload regimes that
matter in practice:

* **latency-bound** stages (remote/ESG data access, external tools) —
  threads overlap their waiting, so the fan of branches speeds up by
  nearly the worker count;
* **CPU-bound** pure-Python stages (software rendering) — the GIL
  serializes them, so thread-level parallelism does not help; that
  regime is what *process-level* parallelism exists for: the
  hyperwall's per-cell distribution (benchmarked separately).

Both regimes are measured and reported.  The speedup assertion applies
to the latency-bound case (threads overlap waiting).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import build_cell_chain, report
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline

SIZE = {"nlat": 23, "nlon": 36, "nlev": 6, "ntime": 2}
N_BRANCHES = 6
STAGE_SECONDS = 0.05

_SLEEPER_SOURCE = (
    "import time\n"
    f"time.sleep({STAGE_SECONDS})\n"
    "outputs = {'result': 1}\n"
)


def latency_fan(registry) -> Pipeline:
    """N independent simulated remote-access stages."""
    pipeline = Pipeline(registry)
    for _ in range(N_BRANCHES):
        pipeline.add_module("basic:PythonSource", {"source": _SLEEPER_SOURCE})
    return pipeline


def render_fan(registry) -> Pipeline:
    """N independent CPU-bound render chains."""
    pipeline = Pipeline(registry)
    variables = ["ta", "zg", "ua", "va", "hus", "ta"]
    for index in range(N_BRANCHES):
        build_cell_chain(pipeline, variable=variables[index], width=64,
                         height=48, size=SIZE)
    return pipeline


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "parallel-4"])
def test_ablation_parallel_latency_bound(benchmark, registry, workers):
    pipeline = latency_fan(registry)
    benchmark.group = "ablation-parallel-latency"
    result = benchmark(
        lambda: Executor(caching=False, max_workers=workers).execute(pipeline)
    )
    assert len(result.runs) == N_BRANCHES


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "parallel-4"])
def test_ablation_parallel_cpu_bound(benchmark, registry, workers):
    pipeline = render_fan(registry)
    benchmark.group = "ablation-parallel-cpu"
    result = benchmark(
        lambda: Executor(caching=False, max_workers=workers).execute(pipeline)
    )
    assert len([r for r in result.runs if r.module_name == "dv3d:DV3DCell"]) == N_BRANCHES


def test_ablation_parallel_report(registry):
    import time

    def timed(builder):
        timings = {}
        for workers in (1, 4):
            executor = Executor(caching=False, max_workers=workers)
            executor.execute(builder(registry))  # warm-up
            t0 = time.perf_counter()
            executor.execute(builder(registry))
            timings[workers] = time.perf_counter() - t0
        return timings

    rows = [("workload", "serial (s)", "4 workers (s)", "speedup")]
    speedups = {}
    regimes = [
        ("latency-bound (threads)", latency_fan),
        ("cpu-bound (threads)", render_fan),
    ]
    for name, builder in regimes:
        timings = timed(builder)
        speedups[name] = timings[1] / timings[4]
        rows.append((name, f"{timings[1]:.2f}", f"{timings[4]:.2f}",
                     f"{speedups[name]:.2f}x"))
    report("Ablation: parallel task execution by workload regime", rows)
    # threads must overlap latency-bound stages nearly perfectly
    assert speedups["latency-bound (threads)"] > 2.0
    # CPU-bound pure-Python work is GIL-serialized: no claim beyond "runs"
    assert speedups["cpu-bound (threads)"] > 0.0
