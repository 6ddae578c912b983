"""Ablation — "parallel task execution" (paper abstract).

Independent workflow branches execute concurrently on the executor's
thread pool.  The ablation separates the two workload regimes that
matter in practice:

* **latency-bound** stages (remote/ESG data access, external tools) —
  threads overlap their waiting, so the fan of branches speeds up by
  nearly the worker count;
* **CPU-bound** pure-Python stages (software rendering) — the GIL
  serializes them, so thread-level parallelism does not help; that
  regime is what *process-level* parallelism exists for, in two forms:
  the hyperwall's per-cell distribution (benchmarked separately) and
  the tiled kernel pool (:mod:`repro.parallel`), parametrized here by
  process count on the same render fan.

All regimes are measured and reported.  The speedup assertions apply
to the latency-bound case (threads overlap waiting) and — on machines
with enough cores — to the process-pool CPU-bound case.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import build_cell_chain, report
from repro.parallel import ParallelConfig
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _process_config(workers: int) -> ParallelConfig | None:
    """Kernel-pool config for *workers* processes (None = serial path)."""
    if workers <= 1:
        return None
    return ParallelConfig(workers=workers, min_items=1, timeout=600.0)

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


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "processes-4"])
def test_ablation_parallel_cpu_bound_processes(benchmark, registry, workers):
    """The same CPU-bound render fan, but with the tiled kernel pool:
    rendering inside each module fans out to worker processes."""
    pipeline = render_fan(registry)
    benchmark.group = "ablation-parallel-cpu-processes"
    result = benchmark(
        lambda: Executor(
            caching=False, parallel=_process_config(workers)
        ).execute(pipeline)
    )
    assert len([r for r in result.runs if r.module_name == "dv3d:DV3DCell"]) == N_BRANCHES


def test_ablation_parallel_report(registry):
    import time

    def timed(make_executor):
        timings = {}
        for workers in (1, 4):
            executor = make_executor(workers)
            executor.execute(builder(registry))  # warm-up
            t0 = time.perf_counter()
            executor.execute(builder(registry))
            timings[workers] = time.perf_counter() - t0
        return timings

    rows = [("workload", "serial (s)", "4 workers (s)", "speedup")]
    speedups = {}
    regimes = [
        ("latency-bound (threads)", latency_fan,
         lambda w=1: Executor(caching=False, max_workers=w)),
        ("cpu-bound (threads)", render_fan,
         lambda w=1: Executor(caching=False, max_workers=w)),
        ("cpu-bound (process pool)", render_fan,
         lambda w=1: Executor(caching=False, parallel=_process_config(w))),
    ]
    for name, builder, make_executor in regimes:
        timings = timed(make_executor)
        speedups[name] = timings[1] / timings[4]
        rows.append((name, f"{timings[1]:.2f}", f"{timings[4]:.2f}",
                     f"{speedups[name]:.2f}x"))
    report("Ablation: parallel task execution by workload regime", rows)
    # threads must overlap latency-bound stages nearly perfectly
    assert speedups["latency-bound (threads)"] > 2.0
    # CPU-bound pure-Python work is GIL-serialized: no claim beyond "runs"
    assert speedups["cpu-bound (threads)"] > 0.0
    # the tiled kernel pool (rasterize, streamlines) only wins when the
    # machine actually has the cores to back it up
    if _usable_cores() >= 4:
        assert speedups["cpu-bound (process pool)"] > 1.2
    else:
        assert speedups["cpu-bound (process pool)"] > 0.0
