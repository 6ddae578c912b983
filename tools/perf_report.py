#!/usr/bin/env python
"""Replay the benchmark scenarios with the obs recorder on.

Produces ``BENCH_obs.json`` — the observability artifact CI uploads on
every build so per-kernel span timings, executor cache behaviour and
hyperwall traffic can be compared across PRs.  The artifact contains:

* ``aggregates.spans`` — per-span-name count/total/mean/max seconds for
  every instrumented kernel (``raycast.render``,
  ``isosurface.marching_tetrahedra``, ``streamline.integrate``,
  ``rasterizer.rasterize``, ``regrid.*``, ``executor.*``,
  ``hyperwall.*``);
* ``aggregates.counters`` — cache hits/misses, voxel/triangle/pixel
  throughput, hyperwall message and byte counts, summed over labels
  (the labelled breakdown stays in ``recorder.counters``);
* ``recorder`` — the full span/metric dump (``Recorder.to_dict()``).

``--parallel`` switches to the kernel-pool ablation instead: the
serial-only raycast and isosurface kernels are timed for the
``tools/bench_compare.py`` gate, and the pooled kernel (streamlines)
is timed serial vs ``min(4, usable cores)`` workers (2 on a 1-core
host), checked for bitwise identity and written — with
``parallel.tiles`` counters and tile spans — to ``BENCH_parallel.json``.

``--resilience`` runs the fault-tolerance scenarios instead: a kernel
pool losing a worker mid-run (tiles retried on a replacement), and a
hyperwall frame losing a client (cell reassigned to a survivor, or
served degraded from the mirror).  Recovery latencies, retry/degraded
counters and the injected-fault counts are written to
``BENCH_resilience.json``, with the recovery signals validated the
same way the other artifacts are.

``--cache`` runs the provenance-keyed result-cache ablation: the
render, regrid and executor scenarios each run cold (empty cache) and
warm (served from the shared disk tier) against one temporary cache
directory.  Warm outputs are checked for byte identity with the cold
pass, the cold/warm timings and the cache counters/histograms are
written to ``BENCH_cache.json``, and the overall warm speedup must
clear a 5x floor.

Usage::

    PYTHONPATH=src python tools/perf_report.py            # full sizes
    PYTHONPATH=src python tools/perf_report.py --quick    # CI sizes
    PYTHONPATH=src python tools/perf_report.py --out path.json --summary
    PYTHONPATH=src python tools/perf_report.py --parallel # BENCH_parallel.json
    PYTHONPATH=src python tools/perf_report.py --resilience
    PYTHONPATH=src python tools/perf_report.py --cache    # BENCH_cache.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs  # noqa: E402
from repro.cdms.grid import uniform_grid  # noqa: E402
from repro.cdms.regrid import regrid_bilinear, regrid_conservative  # noqa: E402
from repro.data.fields import global_temperature  # noqa: E402
from repro.hyperwall.inproc import InProcessHyperwall  # noqa: E402
from repro.parallel import ParallelConfig  # noqa: E402
from repro.parallel.kernels import parallel_integrate_streamlines  # noqa: E402
from repro.rendering.camera import Camera  # noqa: E402
from repro.rendering.framebuffer import Framebuffer  # noqa: E402
from repro.rendering.image_data import ImageData  # noqa: E402
from repro.rendering.isosurface import marching_tetrahedra  # noqa: E402
from repro.rendering.rasterizer import rasterize  # noqa: E402
from repro.rendering.raycast import raycast_volume  # noqa: E402
from repro.rendering.streamline import (  # noqa: E402
    integrate_streamlines,
    plane_seed_grid,
)
from repro.rendering.transfer_function import TransferFunction  # noqa: E402
from repro.workflow.executor import Executor  # noqa: E402
from repro.workflow.pipeline import Pipeline  # noqa: E402
from repro.workflow.registry import global_registry  # noqa: E402

#: scenario workload sizes; --quick is what CI runs on every build
SIZES = {
    "full": {
        "volume_n": 40,
        "image": (96, 72),
        "seeds": (12, 12),
        "regrid_src": (72, 144),
        "regrid_dst": (46, 72),
        "dataset": {"nlat": 46, "nlon": 72, "nlev": 8, "ntime": 3},
        "cells": 4,
        "cell_size": (128, 96),
    },
    "quick": {
        "volume_n": 24,
        "image": (48, 36),
        "seeds": (6, 6),
        "regrid_src": (36, 72),
        "regrid_dst": (24, 36),
        "dataset": {"nlat": 24, "nlon": 36, "nlev": 4, "ntime": 2},
        "cells": 2,
        "cell_size": (64, 48),
    },
}


def make_volume(n: int) -> ImageData:
    """Gaussian-blob scalar + swirling vector field on one grid."""
    x = np.linspace(-1, 1, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    vol = ImageData((n, n, n), origin=(-1, -1, -1), spacing=(2 / (n - 1),) * 3)
    vol.add_array("blob", np.exp(-3 * (X**2 + Y**2 + Z**2)))
    vec = np.stack([-Y, X, 0.2 * np.ones_like(Z)], axis=-1)
    vol.add_array("swirl", vec, set_active=False)
    return vol


def build_workflow(size: Dict[str, Any], cells: int, cell_size) -> Pipeline:
    """Reader → variable → plot → cell chains (one chain per wall cell)."""
    pipeline = Pipeline(registry=global_registry())
    reader = pipeline.add_module(
        "CDMSDatasetReader", {"source": "synthetic_reanalysis", "size": dict(size)}
    )
    plots = ["Slicer", "VolumeRender", "Isosurface", "HovmollerSlicer"]
    for index in range(cells):
        var = pipeline.add_module("CDMSVariableReader", {"variable": "ta"})
        plot = pipeline.add_module(plots[index % len(plots)])
        cell = pipeline.add_module(
            "DV3DCell", {"width": cell_size[0], "height": cell_size[1]}
        )
        pipeline.add_connection(reader, "dataset", var, "dataset")
        pipeline.add_connection(var, "variable", plot, "variable")
        pipeline.add_connection(plot, "plot", cell, "plot")
    return pipeline


# -- scenarios ---------------------------------------------------------------


def scenario_executor(sizes: Dict[str, Any]) -> None:
    """Cold run then warm re-run: exercises cache miss *and* hit paths."""
    with obs.span("scenario.executor"):
        pipeline = build_workflow(sizes["dataset"], 2, sizes["cell_size"])
        executor = Executor(caching=True, max_workers=2)
        executor.execute(pipeline)
        executor.execute(pipeline)  # warm: upstream modules come from cache


def scenario_rendering(sizes: Dict[str, Any]) -> None:
    """The three kernel benchmarks plus a rasterization pass."""
    volume = make_volume(sizes["volume_n"])
    camera = Camera.fit_bounds(volume.bounds())
    width, height = sizes["image"]
    with obs.span("scenario.raycast"):
        transfer = TransferFunction(volume.scalar_range(), center=0.8, width=0.4)
        raycast_volume(volume, transfer, camera, width, height, lighting=True)
    with obs.span("scenario.isosurface"):
        surface = marching_tetrahedra(volume, 0.5)
    with obs.span("scenario.rasterize"):
        framebuffer = Framebuffer(width, height)
        rasterize(surface, camera, framebuffer, light_direction=np.array([0.3, -0.4, 0.8]))
    with obs.span("scenario.streamline"):
        seeds = plane_seed_grid(volume, 2, 0.0, *sizes["seeds"])
        integrate_streamlines(volume, "swirl", seeds, max_steps=100)


def scenario_regrid(sizes: Dict[str, Any]) -> None:
    nlat, nlon = sizes["regrid_src"]
    field = global_temperature(
        nlat=nlat, nlon=nlon, nlev=2, ntime=2, seed="perf-report"
    )
    target = uniform_grid(*sizes["regrid_dst"])
    with obs.span("scenario.regrid"):
        regrid_bilinear(field, target)
        regrid_conservative(field, target)


def scenario_hyperwall(sizes: Dict[str, Any]) -> None:
    """In-process wall: server mirror + full-res clients + an event."""
    with obs.span("scenario.hyperwall"):
        workflow = build_workflow(sizes["dataset"], sizes["cells"], sizes["cell_size"])
        wall = InProcessHyperwall(
            workflow,
            reduction=4,
            client_resolution=sizes["cell_size"],
            max_workers=2,
        )
        wall.execute_all()
        wall.propagate_event("key", key="c")


SCENARIOS = [
    ("executor", scenario_executor),
    ("rendering", scenario_rendering),
    ("regrid", scenario_regrid),
    ("hyperwall", scenario_hyperwall),
]


# -- kernel-pool ablation (--parallel) ---------------------------------------

#: worker cap for the pool side of the ablation (the golden suite's count)
PARALLEL_WORKERS = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibrate(repeats: int = 5) -> float:
    """Best-of-N seconds for a fixed, deterministic numpy workload.

    Recorded in every artifact's ``meta.calibration_s`` so timings can
    be compared across machines of different speeds: dividing a
    scenario time by the calibration time yields a unitless cost that
    is stable across hardware generations (same memory/ALU mix as the
    render kernels).  ``tools/bench_compare.py`` normalizes with this
    before applying its regression threshold.
    """
    rng = np.random.default_rng(20260808)
    volume = rng.standard_normal((64, 64, 48))
    coords = rng.uniform(0, 47, size=(3, 20000))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        from scipy import ndimage

        sampled = ndimage.map_coordinates(volume, coords, order=1, prefilter=False)
        np.sort(volume, axis=0)
        np.exp(np.clip(volume, -1.0, 1.0)).sum()
        float(sampled.sum())
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of(fn, repeats: int):
    """Best-of-N wall time plus the final return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def parallel_report(sizes: Dict[str, Any], repeats: int = 5) -> Dict[str, Any]:
    """Serial timings for every kernel, pool timings for the pooled one.

    Returns the ``kernels``/``pool``/``aggregates`` payload sections;
    raises ``RuntimeError`` if the pooled kernel is not bitwise identical
    to its serial counterpart (the contract golden tests also enforce).
    """
    volume = make_volume(sizes["volume_n"])
    camera = Camera.fit_bounds(volume.bounds())
    width, height = sizes["image"]
    transfer = TransferFunction(volume.scalar_range(), center=0.8, width=0.4)
    workers = max(2, min(PARALLEL_WORKERS, _usable_cores()))
    config = ParallelConfig(workers=workers, min_items=1, timeout=600.0)
    if not config.enabled:
        raise RuntimeError("POSIX shared memory unavailable; cannot run --parallel")
    seeds = plane_seed_grid(volume, 2, 0.0, *sizes["seeds"])

    def lines(fn, **kwargs):
        return fn(volume, "swirl", seeds, max_steps=100, **kwargs)

    # name -> (serial, pool); raycast and isosurface have no pool variant —
    # their serial_s is what bench_compare pins against the baselines
    cases = {
        "raycast": (lambda: raycast_volume(volume, transfer, camera, width, height), None),
        "isosurface": (lambda: marching_tetrahedra(volume, 0.5), None),
        "streamlines": (
            lambda: lines(integrate_streamlines),
            lambda: lines(parallel_integrate_streamlines, config=config),
        ),
    }
    kernels: Dict[str, Any] = {}
    pool: Dict[str, Any] = {}
    recorder = obs.Recorder()
    for name, (serial_fn, pool_fn) in cases.items():
        serial_s, serial_out = _best_of(serial_fn, repeats)
        if pool_fn is None:
            kernels[name] = {"serial_s": serial_s}
            print(f"  kernel {name:<11} serial {serial_s:7.3f}s")
            continue
        with obs.recording(recorder):
            parallel_s, pool_out = _best_of(pool_fn, repeats)
        identical = len(serial_out) == len(pool_out) and all(map(np.array_equal, serial_out, pool_out))
        pool[name] = {
            "serial_s": serial_s, "parallel_s": parallel_s, "workers": workers,
            "speedup": serial_s / parallel_s, "identical": identical,
        }
        print(
            f"  pool   {name:<11} serial {serial_s:7.3f}s   {workers} workers "
            f"{parallel_s:7.3f}s   {serial_s / parallel_s:5.2f}x   identical={identical}"
        )
        if not identical:
            raise RuntimeError(f"parallel {name} output differs from serial")
    return {"kernels": kernels, "pool": pool, "aggregates": aggregate(recorder),
            "recorder": recorder.to_dict()}


# -- result-cache ablation (--cache) -----------------------------------------

#: enforced cold/warm speedup floor for the whole scenario suite
CACHE_SPEEDUP_FLOOR = 5.0


def cache_report(sizes: Dict[str, Any], cache_dir: str) -> Dict[str, Any]:
    """Cold vs warm timings through the provenance-keyed result cache.

    Each scenario runs twice against one shared cache directory: the
    cold pass populates the disk tier, the warm pass must be served
    from it — and must reproduce the cold output byte for byte.
    """
    from repro.cache.config import CacheConfig, use_config
    from repro.cache.store import reset_cache
    from repro.dv3d.volume import VolumePlot

    width, height = sizes["image"]
    nlat, nlon = sizes["regrid_src"]
    field = global_temperature(nlat=nlat, nlon=nlon, nlev=2, ntime=2, seed="perf-report")
    target = uniform_grid(*sizes["regrid_dst"])
    plot = VolumePlot(field, center=0.7, width=0.3)
    camera = plot.default_camera()

    def run_render():
        fb = plot.render(width, height, camera=camera)
        return (fb.color.tobytes(), fb.depth.tobytes())

    def run_regrid():
        out = regrid_bilinear(field, target)
        out2 = regrid_conservative(field, target)
        return (
            np.ma.getdata(out.data).tobytes(),
            np.ma.getdata(out2.data).tobytes(),
        )

    def run_executor():
        pipeline = build_workflow(sizes["dataset"], 2, sizes["cell_size"])
        executor = Executor(caching=True, max_workers=2)
        result = executor.execute(pipeline)
        images = [
            result.output(mid, "image").tobytes()
            for mid, spec in pipeline.modules.items()
            if spec.name == "DV3DCell"
        ]
        return tuple(images)

    cases = [("render", run_render), ("regrid", run_regrid),
             ("executor", run_executor)]
    scenarios: Dict[str, Any] = {}
    recorder = obs.Recorder()
    config = CacheConfig(path=cache_dir)
    with obs.recording(recorder), use_config(config):
        for name, fn in cases:
            reset_cache()  # cold pass starts without the in-memory tier
            t0 = time.perf_counter()
            cold_out = fn()
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm_out = fn()
            warm_s = time.perf_counter() - t0
            identical = cold_out == warm_out
            scenarios[name] = {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "speedup": cold_s / warm_s,
                "identical": identical,
            }
            print(
                f"  scenario {name:<9} cold {cold_s:7.3f}s   "
                f"warm {warm_s:7.3f}s   {cold_s / warm_s:6.2f}x   "
                f"identical={identical}"
            )
    reset_cache()
    cold_total = sum(s["cold_s"] for s in scenarios.values())
    warm_total = sum(s["warm_s"] for s in scenarios.values())
    return {
        "scenarios": scenarios,
        "overall": {
            "cold_s": cold_total,
            "warm_s": warm_total,
            "speedup": cold_total / warm_total,
        },
        "aggregates": aggregate(recorder),
        "recorder": recorder.to_dict(),
    }


def run_cache_mode(args, sizes: Dict[str, Any]) -> int:
    """``--cache``: time cold vs warm passes, write BENCH_cache.json."""
    import shutil
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    start = time.perf_counter()
    try:
        sections = cache_report(sizes, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    wall = time.perf_counter() - start
    payload = {
        "meta": {
            "tool": "perf_report",
            "mode": ("quick" if args.quick else "full") + "-cache",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": _usable_cores(),
            "calibration_s": calibrate(),
            "wall_s": wall,
        },
    }
    payload.update(sections)
    out = Path(args.out or "BENCH_cache.json")
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out} ({out.stat().st_size} bytes, {wall:.2f}s total)")

    problems = []
    for name, stats in sections["scenarios"].items():
        if not stats["identical"]:
            problems.append(f"warm {name} output differs from cold")
    overall = sections["overall"]["speedup"]
    if overall < CACHE_SPEEDUP_FLOOR:
        problems.append(
            f"overall warm speedup {overall:.2f}x below the "
            f"{CACHE_SPEEDUP_FLOOR}x floor"
        )
    counters = sections["aggregates"]["counters"]
    for counter in ("cache.hits", "cache.misses"):
        if counters.get(counter, 0) <= 0:
            problems.append(f"missing counter {counter}")
    histograms = sections["aggregates"]["histograms"]
    for histogram in ("cache.lookup.seconds", "cache.store.seconds"):
        if histogram not in histograms:
            problems.append(f"missing histogram {histogram}")
    if problems:
        print(f"ERROR: cache artifact failed validation: {problems}")
        return 1
    return 0


# -- resilience ablation (--resilience) --------------------------------------


def _resilience_tile(payload, task):
    """Module-level tile fn (forked workers must be able to run it)."""
    start, stop = task
    return [payload * i * i for i in range(start, stop)]


def _pool_recovery_case() -> Dict[str, Any]:
    """Kernel pool losing a worker mid-run: clean vs recovered timings."""
    from repro.parallel import run_tiles
    from repro.resilience import faults

    tasks = [(i, i + 2) for i in range(8)]
    config = ParallelConfig(workers=2, min_items=1, timeout=600.0, respawn_budget=2)
    t0 = time.perf_counter()
    clean = run_tiles(config, _resilience_tile, tasks, payload=3, label="resilience")
    clean_s = time.perf_counter() - t0
    faults.arm("parallel.tile", "exit", match={"tile": 2, "attempt": 0})
    try:
        t0 = time.perf_counter()
        recovered = run_tiles(
            config, _resilience_tile, tasks, payload=3, label="resilience"
        )
        recovered_s = time.perf_counter() - t0
    finally:
        faults.disarm()
    return {
        "clean_s": clean_s,
        "worker_killed_s": recovered_s,
        "recovery_overhead_s": recovered_s - clean_s,
        "identical": clean == recovered,
    }


def _wall_failover_case(
    sizes: Dict[str, Any], failover: str, drop_client: int = None
) -> Dict[str, Any]:
    """One threaded hyperwall frame; optionally with a client dropped."""
    import threading

    from repro.hyperwall.client import HyperwallClient
    from repro.hyperwall.display import WallGeometry
    from repro.hyperwall.server import HyperwallServer
    from repro.resilience import RetryPolicy, faults

    n_cells = sizes["cells"]
    cell_w, cell_h = sizes["cell_size"]
    workflow = build_workflow(sizes["dataset"], n_cells, sizes["cell_size"])
    wall = WallGeometry(columns=n_cells, rows=1, tile_width=cell_w, tile_height=cell_h)
    if drop_client is not None:
        faults.arm("hyperwall.server.recv", "drop", match={"client": drop_client})
    server = HyperwallServer(
        workflow, wall=wall, reduction=4, failover=failover,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
    )
    threads = []
    try:
        for cid in range(n_cells):
            client = HyperwallClient(server.host, server.port, cid)
            client.connect()
            thread = threading.Thread(target=client.run, daemon=True)
            thread.start()
            threads.append(thread)
        server.accept_clients(n_cells)
        server.distribute_workflows()
        server.execute_server()
        t0 = time.perf_counter()
        reports = server.execute_clients()
        frame_s = time.perf_counter() - t0
    finally:
        faults.disarm()
        server.shutdown()
        for thread in threads:
            thread.join(5.0)
    statuses = sorted(r["status"] for r in reports)
    return {"frame_s": frame_s, "cells": len(reports), "statuses": statuses}


def resilience_report(sizes: Dict[str, Any]) -> Dict[str, Any]:
    """Run the recovery scenarios under one recorder; returns sections."""
    from repro.resilience import RetryPolicy

    recorder = obs.Recorder()
    cases: Dict[str, Any] = {}
    with obs.recording(recorder):
        cases["kernel_pool"] = _pool_recovery_case()
        cases["wall_baseline"] = _wall_failover_case(sizes, "reassign")
        cases["wall_reassign"] = _wall_failover_case(sizes, "reassign", drop_client=1)
        cases["wall_degrade"] = _wall_failover_case(sizes, "degrade", drop_client=1)
    cases["retry_schedule_s"] = list(
        RetryPolicy(max_attempts=5, base_delay=0.05, seed="perf-report").delays()
    )
    for name in ("kernel_pool", "wall_baseline", "wall_reassign", "wall_degrade"):
        print(f"  case {name:<14} {cases[name]}")
    return {
        "resilience": cases,
        "aggregates": aggregate(recorder),
        "recorder": recorder.to_dict(),
    }


def run_resilience_mode(args, sizes: Dict[str, Any]) -> int:
    """``--resilience``: time recovery paths, write BENCH_resilience.json."""
    start = time.perf_counter()
    sections = resilience_report(sizes)
    wall = time.perf_counter() - start
    payload = {
        "meta": {
            "tool": "perf_report",
            "mode": ("quick" if args.quick else "full") + "-resilience",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": _usable_cores(),
            "calibration_s": calibrate(),
            "wall_s": wall,
        },
    }
    payload.update(sections)
    out = Path(args.out or "BENCH_resilience.json")
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out} ({out.stat().st_size} bytes, {wall:.2f}s total)")

    problems = []
    cases = sections["resilience"]
    if not cases["kernel_pool"]["identical"]:
        problems.append("kernel pool recovery was not bitwise identical")
    if cases["wall_reassign"]["statuses"].count("live") != sizes["cells"] - 1:
        problems.append("reassign case did not keep the surviving cells live")
    if "degraded" not in cases["wall_degrade"]["statuses"]:
        problems.append("degrade case produced no degraded cell")
    counters = sections["aggregates"]["counters"]
    for counter in ("resilience.faults.fired", "resilience.retries",
                    "resilience.degraded", "hyperwall.clients.lost"):
        if counters.get(counter, 0) <= 0:
            problems.append(f"missing counter {counter}")
    if "resilience.recovery.seconds" not in sections["aggregates"]["histograms"]:
        problems.append("missing resilience.recovery.seconds histogram")
    if problems:
        print(f"ERROR: resilience artifact failed validation: {problems}")
        return 1
    return 0


# -- aggregation -------------------------------------------------------------


def aggregate(recorder: obs.Recorder) -> Dict[str, Any]:
    """Collapse the raw recorder dump into the stable shape CI tracks."""
    spans: Dict[str, Dict[str, float]] = {}
    for record in recorder.spans:
        agg = spans.setdefault(
            record.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        agg["count"] += 1
        agg["total_s"] += record.duration
        agg["max_s"] = max(agg["max_s"], record.duration)
    for agg in spans.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    counters: Dict[str, float] = {}
    for key, value in recorder.counters.items():
        counters[key.name] = counters.get(key.name, 0.0) + value
    histograms: Dict[str, Dict[str, float]] = {}
    for key, data in recorder.histograms.items():
        agg = histograms.setdefault(
            key.name, {"count": 0, "total": 0.0, "max": 0.0}
        )
        agg["count"] += data.count
        agg["total"] += data.total
        agg["max"] = max(agg["max"], data.max)
    return {"spans": spans, "counters": counters, "histograms": histograms}


def run_parallel_mode(args, sizes: Dict[str, Any]) -> int:
    """``--parallel``: time the tiled kernels and write BENCH_parallel.json."""
    start = time.perf_counter()
    sections = parallel_report(sizes)
    wall = time.perf_counter() - start
    payload = {
        "meta": {
            "tool": "perf_report",
            "mode": ("quick" if args.quick else "full") + "-parallel",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": _usable_cores(),
            "calibration_s": calibrate(),
            "wall_s": wall,
        },
    }
    payload.update(sections)
    out = Path(args.out or "BENCH_parallel.json")
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out} ({out.stat().st_size} bytes, {wall:.2f}s total)")

    counters = sections["aggregates"]["counters"]
    if counters.get("parallel.tiles", 0) <= 0:
        print("ERROR: artifact is missing the parallel.tiles counter")
        return 1
    if "parallel.tile" not in sections["aggregates"]["spans"]:
        print("ERROR: artifact is missing parallel.tile spans")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (what CI runs)"
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: BENCH_obs.json, or BENCH_parallel.json "
             "with --parallel)",
    )
    parser.add_argument(
        "--summary", action="store_true", help="also print the span summary tree"
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="run the kernel-pool ablation (serial vs pooled kernels) instead",
    )
    parser.add_argument(
        "--resilience", action="store_true",
        help="run the fault-tolerance recovery scenarios instead",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="run the cold-vs-warm result-cache ablation instead",
    )
    args = parser.parse_args(argv)
    sizes = SIZES["quick" if args.quick else "full"]

    if args.parallel:
        return run_parallel_mode(args, sizes)
    if args.resilience:
        return run_resilience_mode(args, sizes)
    if args.cache:
        return run_cache_mode(args, sizes)

    args.out = args.out or "BENCH_obs.json"
    recorder = obs.Recorder()
    start = time.perf_counter()
    with obs.recording(recorder):
        for name, scenario in SCENARIOS:
            t0 = time.perf_counter()
            scenario(sizes)
            print(f"  scenario {name:<10} {time.perf_counter() - t0:8.3f}s")
    wall = time.perf_counter() - start

    payload = {
        "meta": {
            "tool": "perf_report",
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": _usable_cores(),
            "calibration_s": calibrate(),
            "wall_s": wall,
        },
        "aggregates": aggregate(recorder),
        "recorder": recorder.to_dict(),
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"wrote {out} ({out.stat().st_size} bytes, {wall:.2f}s total)")
    if args.summary:
        print(recorder.summary_tree())

    # the artifact must carry the signals CI regression-tracks
    required_spans = [
        "raycast.render",
        "isosurface.marching_tetrahedra",
        "streamline.integrate",
        "rasterizer.rasterize",
        "executor.execute",
    ]
    missing = [n for n in required_spans if n not in payload["aggregates"]["spans"]]
    counters = payload["aggregates"]["counters"]
    for counter in ("executor.cache.hit", "executor.cache.miss",
                    "protocol.frames.sent", "protocol.bytes.sent"):
        if counters.get(counter, 0) <= 0:
            missing.append(counter)
    if missing:
        print(f"ERROR: artifact is missing expected signals: {missing}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
