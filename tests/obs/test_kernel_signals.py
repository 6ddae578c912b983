"""The kernel spans and traffic counters downstream consumers name.

``benchmarks/e2e/layers.py::OBS_COUNTERS`` and the request-scoped
tracing planned in ROADMAP item 3 build on these names; a kernel that
stops emitting one would otherwise only show up as a hole in a traced
benchmark run.
"""

import numpy as np

from repro import obs
from repro.dv3d import DV3DCell, IsosurfacePlot
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.rendering.isosurface import marching_tetrahedra
from repro.rendering.rasterizer import rasterize
from repro.rendering.raycast import raycast_volume
from repro.rendering.scene import Actor
from repro.rendering.streamline import integrate_streamlines, plane_seed_grid
from repro.rendering.transfer_function import TransferFunction
from repro.workflow.executor import Executor
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain
from tests.rendering.reference_rasterizer import make_volume

SPANS = (
    "raycast.render",
    "isosurface.marching_tetrahedra",
    "streamline.integrate",
    "rasterizer.rasterize",
    "executor.execute",
)
MEMO_COUNTERS = (
    "dv3d.scene.hits", "dv3d.scene.misses", "dv3d.frame.hits", "dv3d.frame.misses",
)
COUNTERS = (
    "executor.cache.hit",
    "executor.cache.miss",
    "protocol.frames.sent",
    "protocol.bytes.sent",
)


def test_kernels_executor_and_wall_emit_their_signals(registry):
    volume = make_volume(24)
    camera = Camera.fit_bounds(volume.bounds())
    width, height = 48, 36
    pipeline = Pipeline(registry)
    build_cell_chain(pipeline, width=64, height=48)

    with obs.recording() as rec:
        transfer = TransferFunction(volume.scalar_range(), center=0.8, width=0.4)
        raycast_volume(volume, transfer, camera, width, height, lighting=True)
        surface = marching_tetrahedra(volume, 0.5)
        rasterize([Actor(surface)], camera, Framebuffer(width, height),
                  light_direction=np.array([0.3, -0.4, 0.8]))
        seeds = plane_seed_grid(volume, 2, 0.0, 6, 6)
        integrate_streamlines(volume, "swirl", seeds, max_steps=100)

        executor = Executor(caching=True, max_workers=2)
        executor.execute(pipeline)
        executor.execute(pipeline)  # warm: the memo answers

        wall = InProcessHyperwall(
            pipeline, WallGeometry(1, 1, tile_width=64, tile_height=48), reduction=4
        )
        wall.execute_all()
        wall.broadcast_event("key", key="c")  # the frames an event sends

    emitted = {span.name for span in rec.spans}
    assert [name for name in SPANS if name not in emitted] == []
    assert [name for name in COUNTERS if rec.counter_total(name) <= 0] == []


def test_the_dv3d_memos_count_which_tier_answered(ta):
    """``dv3d.scene.*`` / ``dv3d.frame.*`` say, per render, whether the
    kept scene and the kept frame answered or were rebuilt — and cost
    nothing while recording is off."""
    cell = DV3DCell(IsosurfacePlot(ta))
    cell.render(32, 24)  # recording off: nothing is counted
    with obs.recording() as rec:
        cell.render(32, 24)                      # unchanged: both tiers answer
        cell.render(32, 24, camera=cell.plot.default_camera().orbit(30.0, 0.0))
        cell.plot.adjust_isovalue(0.1)           # a new surface
        cell.render(32, 24)
    totals = {name: rec.counter_total(name) for name in MEMO_COUNTERS}
    assert totals == {
        "dv3d.scene.hits": 2, "dv3d.scene.misses": 1,
        "dv3d.frame.hits": 1, "dv3d.frame.misses": 2,
    }
    assert rec.counter_value("dv3d.frame.hits", plot="isosurface") == 1
