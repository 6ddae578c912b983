"""Hyperwall replay through the shared result cache.

A 2x2 wall of real client processes runs a 3-frame animation sequence
twice, sharing one disk-tier cache directory: each cluster starts inside
``with use_config(cfg):``, and its forked clients inherit the scope.
The second pass must be byte-identical to the first (proved by the
wire-level image digests — pixels never leave the display nodes) and
fully served from cache (the disk tier gains no entries).  Killing a
client during the warm pass must hand its cell to a survivor that
reproduces the exact same bytes.
"""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig, use_config
from repro.cache.store import DiskTier
from repro.hyperwall.cluster import LocalCluster
from repro.hyperwall.display import WallGeometry
from repro.resilience import faults
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

QUAD_WALL = WallGeometry(columns=2, rows=2, tile_width=32, tile_height=24)
N_CELLS = 4
N_FRAMES = 3


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture()
def quad_pipeline(registry):
    p = Pipeline(registry)
    for _ in range(N_CELLS):
        build_cell_chain(p, width=32, height=24)
    return p


def play_sequence(cluster) -> dict:
    """Execute the wall, then render a 3-frame animation sequence.

    Returns ``{"execute": {cell_id: digest}, "frames": [{cell_id:
    digest}, ...], "status": {cell_id: status}}``.
    """
    cluster.server.distribute_workflows()
    cluster.server.execute_server()
    reports = cluster.server.execute_clients()
    out = {
        "execute": {r["cell_id"]: r["image_digest"] for r in reports},
        "status": {r["cell_id"]: r["status"] for r in reports},
        "frames": [],
    }
    for frame in range(N_FRAMES):
        if frame:
            cluster.server.broadcast_event("key", key="t")  # step time
        renders = cluster.server.request_renders(32, 24)
        out["frames"].append({r["cell_id"]: r["image_digest"] for r in renders})
    return out


def test_replayed_sequence_is_cached_and_byte_identical(quad_pipeline, tmp_path):
    cache_dir = str(tmp_path / "wall-cache")
    cfg = CacheConfig(path=cache_dir)

    with use_config(cfg), LocalCluster(
        quad_pipeline, n_clients=N_CELLS, wall=QUAD_WALL, io_timeout=60.0
    ) as cluster:
        cold = play_sequence(cluster)

    assert set(cold["status"].values()) == {"live"}
    assert all(len(frame) == N_CELLS for frame in cold["frames"])
    entries_after_cold = len(DiskTier(cache_dir, max_bytes=1 << 30))
    assert entries_after_cold > 0

    # a brand-new cluster (fresh client processes) replays the sequence
    with use_config(cfg), LocalCluster(
        quad_pipeline, n_clients=N_CELLS, wall=QUAD_WALL, io_timeout=60.0
    ) as cluster:
        warm = play_sequence(cluster)

    # byte-identity, cell by cell and frame by frame
    assert warm["execute"] == cold["execute"]
    assert warm["frames"] == cold["frames"]
    # ...and the pass was served from cache: the disk tier grew by nothing
    assert len(DiskTier(cache_dir, max_bytes=1 << 30)) == entries_after_cold


def test_client_killed_on_warm_frame_reassigned_byte_identical(
    quad_pipeline, tmp_path
):
    cache_dir = str(tmp_path / "wall-cache")
    cfg = CacheConfig(path=cache_dir)

    with use_config(cfg), LocalCluster(
        quad_pipeline, n_clients=N_CELLS, wall=QUAD_WALL, io_timeout=60.0
    ) as cluster:
        cold = play_sequence(cluster)
    assert set(cold["status"].values()) == {"live"}

    # warm pass: client 2 dies mid-execution; its cell must come back
    # from a survivor with the exact bytes the dead client produced
    faults.arm("hyperwall.client.execute", "exit", match={"client": 2})
    with use_config(cfg), LocalCluster(
        quad_pipeline, n_clients=N_CELLS, wall=QUAD_WALL,
        io_timeout=60.0, failover="reassign",
    ) as cluster:
        cluster.server.distribute_workflows()
        cluster.server.execute_server()
        reports = cluster.server.execute_clients()
        assert 2 in cluster.server.dead_clients

    by_status = {}
    for report in reports:
        by_status.setdefault(report["status"], []).append(report)
    assert len(by_status.get("reassigned", [])) == 1
    assert len(by_status.get("live", [])) == N_CELLS - 1
    recovered = by_status["reassigned"][0]
    # failover honored the cache: the reassigned cell is byte-identical
    # to the frame the original client produced on the cold pass
    assert recovered["image_digest"] == cold["execute"][recovered["cell_id"]]
    for report in by_status["live"]:
        assert report["image_digest"] == cold["execute"][report["cell_id"]]
