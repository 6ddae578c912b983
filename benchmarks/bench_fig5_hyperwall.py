"""Figure 5 — the hyperwall distributed visualization framework.

The figure shows the NCCS deployment: a 5×3 wall (15 displays, 15.7
Mpixel), one control node, 15 client nodes; the server runs a reduced-
resolution 15-cell mirror while each client runs its own full-resolution
1-cell sub-workflow, and interactions propagate server → clients.

The benchmark reproduces that execution pattern with the in-process
wall (the cluster's control node and display nodes on inline links:
deterministic) at reduced tile sizes, and reports the numbers that make
the architecture worthwhile: the server-mirror speedup from resolution
reduction, the cost of the full-resolution tiles, process distribution
next to what this host's cores can give, and the cost of interaction
propagation.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from benchmarks.conftest import build_cell_chain, report
from repro.hyperwall.display import NCCS_WALL, WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.workflow.pipeline import Pipeline

SIZE = {"nlat": 23, "nlon": 36, "nlev": 6, "ntime": 2}
TILE = (96, 96)
N_CELLS = 15


def wall_workflow(registry, n_cells: int = N_CELLS) -> Pipeline:
    pipeline = Pipeline(registry)
    plots = ["Slicer", "VolumeRender", "Isosurface"]
    variables = ["ta", "zg", "ua", "va", "hus"]
    for index in range(n_cells):
        build_cell_chain(
            pipeline,
            plot=plots[index % len(plots)],
            variable=variables[index % len(variables)],
            width=TILE[0], height=TILE[1], size=SIZE,
        )
    return pipeline


def make_wall(n_cells: int) -> WallGeometry:
    return WallGeometry(columns=5, rows=(n_cells + 4) // 5,
                        tile_width=TILE[0], tile_height=TILE[1])


def test_fig5_server_reduced_mirror(benchmark, registry):
    """The server's 15-cell reduced-resolution execution."""
    hw = InProcessHyperwall(wall_workflow(registry), wall=make_wall(N_CELLS),
                            reduction=4)
    benchmark.group = "fig5-hyperwall"

    def run():
        # a cold build: an unchanged re-execute would return the live
        # cells, and the last release empties the executor memo
        for cell_id in hw.cell_ids:
            hw.mirror.release(cell_id)
        return hw.execute_server()

    result = benchmark(run)
    assert result["n_cells"] == N_CELLS
    for shape in result["image_shapes"].values():
        assert shape == [TILE[1] // 4, TILE[0] // 4, 3]


def test_fig5_clients_full_resolution(benchmark, registry):
    """All 15 display nodes' full-resolution sub-workflow executions."""
    hw = InProcessHyperwall(wall_workflow(registry), wall=make_wall(N_CELLS),
                            reduction=4)
    benchmark.group = "fig5-hyperwall"

    def run():
        # a cold build: an unchanged re-execute would return the live
        # cells, and each node's last release empties its executor memo
        for node in hw.nodes:
            for cell_id in list(node.cells):
                node.release(cell_id)
        return hw.execute_clients()

    reports = benchmark(run)
    assert len(reports) == N_CELLS
    assert all(r["image_shape"] == [TILE[1], TILE[0], 3] for r in reports)
    assert all(r["status"] == "live" for r in reports)


def test_fig5_interaction_propagation(benchmark, registry):
    """Propagating one navigation event to server mirror + all clients."""
    hw = InProcessHyperwall(wall_workflow(registry), wall=make_wall(N_CELLS),
                            reduction=4)
    hw.execute_all()
    benchmark.group = "fig5-hyperwall"
    result = benchmark(lambda: hw.broadcast_event("drag", dx=0.02, dy=0.01,
                                                  mode="camera"))
    assert len(result["clients"]) == N_CELLS
    assert all(hw.consistency_check().values())


def _spin(n: int = 2_000_000) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def host_probe() -> float:
    """What two processes buy on this host: the time of two pure-Python
    loops run one after the other over the time of the same two run in
    two forked processes.  ~2 on two idle cores, ~1 on one (or on two
    hyperthreads of one) — the ceiling the distribution row below is
    read against."""
    t0 = time.perf_counter()
    _spin()
    _spin()
    serial = time.perf_counter() - t0
    ctx = mp.get_context("fork")
    workers = [ctx.Process(target=_spin) for _ in range(2)]
    t0 = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return serial / (time.perf_counter() - t0)


def test_fig5_scaling_report(registry):
    """The architecture's quantitative story, as a table:

    * reduced-resolution mirror vs full-resolution work (the server's
      reason to run a low-res mirror);
    * **process-level** distribution (the real cluster pattern: one
      process per display node, as on the physical wall) vs the same
      control node driving the same display nodes inline, one after
      the other, in this process — the two rows differ only in the link.

    What the pattern guarantees on any host is asserted: every
    distributed tile is ``live`` and is, digest for digest, the tile the
    in-process wall drew.  What the host gives is printed: the process
    speedup is bounded by its cores (the probe row; the physical wall
    has one node per tile), so no wall-clock ratio is asserted.
    """
    import os

    from repro.hyperwall.cluster import LocalCluster

    n_cells = 6
    workflow = wall_workflow(registry, n_cells)
    wall = make_wall(n_cells)

    # serial baseline: all tiles in one process (best of two walls,
    # fresh caches each, to tame scheduler noise on small hosts)
    serial_times = []
    for _ in range(2):
        hw_serial = InProcessHyperwall(workflow, wall=wall, reduction=4)
        t0 = time.perf_counter()
        serial_reports = hw_serial.execute_clients()
        serial_times.append(time.perf_counter() - t0)
    serial = min(serial_times)

    # distributed: one client process per tile over the socket protocol
    cluster = LocalCluster(workflow, n_clients=n_cells, wall=wall, reduction=4)
    try:
        cluster.start()
        cluster.server.distribute_workflows()
        t0 = time.perf_counter()
        distributed_reports = cluster.server.execute_clients()
        distributed = time.perf_counter() - t0
    finally:
        cluster.stop()

    # server mirror at increasing reduction
    mirror_times = {}
    for reduction in (1, 2, 4):
        hw = InProcessHyperwall(workflow, wall=wall, reduction=reduction)
        t0 = time.perf_counter()
        hw.execute_server()
        mirror_times[reduction] = time.perf_counter() - t0

    speedup = serial / distributed
    cores = len(os.sched_getaffinity(0))
    rows = [
        ("metric", "value"),
        ("paper wall", f"{NCCS_WALL.n_tiles} tiles, {NCCS_WALL.total_pixels/1e6:.1f} Mpixel"),
        ("host cores available", cores),
        ("host probe: 2 processes vs 1", f"{host_probe():.2f}x"),
        (f"tiles inline, 1 process ({n_cells} tiles)", f"{serial:.2f} s"),
        (f"tiles distributed, {n_cells} processes", f"{distributed:.2f} s  ({speedup:.2f}x)"),
        ("server mirror, reduction 1", f"{mirror_times[1]:.2f} s"),
        ("server mirror, reduction 2", f"{mirror_times[2]:.2f} s"),
        ("server mirror, reduction 4", f"{mirror_times[4]:.2f} s"),
    ]
    report("Fig.5: hyperwall execution pattern", rows)
    assert [r["status"] for r in distributed_reports] == ["live"] * n_cells
    assert {r["cell_id"]: r["image_digest"] for r in distributed_reports} == {
        r["cell_id"]: r["image_digest"] for r in serial_reports
    }, "a distributed tile must be the tile the in-process wall draws"
    assert mirror_times[4] < mirror_times[1], "reduction must cut mirror cost"
