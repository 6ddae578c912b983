"""Process-parallel tiled rasterization and streamline integration.

Each kernel here partitions its domain (framebuffer rows, seed chunks),
runs the existing serial kernel on each tile in a worker process, and
merges the results:

==================================  ======================  ==================
kernel                              partition               merge
==================================  ======================  ==================
``parallel_rasterize``              framebuffer row bands   shared color+depth
``parallel_integrate_streamlines``  seed chunks             ordered concat
==================================  ======================  ==================

Only kernels whose pool variant beats the serial one at some served
size have one; ray casting, isosurface extraction and regridding lost
at every size and are serial-only (numbers and the rule in
docs/parallel-kernels.md).

Determinism: both kernels are **bitwise identical** to their serial
counterparts — every per-pixel / per-seed quantity is computed
elementwise by the shared serial code paths.

Every kernel takes a ``config`` (:class:`~repro.parallel.config.ParallelConfig`)
and falls back to the serial implementation when the config is
disabled or the workload is below ``config.min_items``.  Worker-side
re-entry is guarded by passing ``config.serial()`` into any nested
kernel call, so a forked worker never spawns its own pool.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.parallel.config import ParallelConfig, get_config
from repro.parallel.partition import index_bands, row_bands
from repro.parallel.pool import attach_ndarray, run_tiles, shared_ndarray

# ---------------------------------------------------------------------------
# rasterize


def _rasterize_tile(payload: Tuple[Any, ...], band: Tuple[int, int]) -> int:
    from repro.rendering.framebuffer import Framebuffer
    from repro.rendering.rasterizer import rasterize

    (poly, camera, height, width, light_direction, flat_color, line_color,
     point_size, color_name, depth_name) = payload
    with attach_ndarray(color_name, (height, width, 3), np.float32) as color:
        with attach_ndarray(depth_name, (height, width), np.float32) as depth:
            fb = Framebuffer.from_arrays(color, depth)
            return rasterize(
                poly, camera, fb,
                light_direction=light_direction, flat_color=flat_color,
                line_color=line_color, point_size=point_size, row_range=band,
            )


def parallel_rasterize(
    poly,
    camera,
    framebuffer,
    light_direction: Optional[np.ndarray] = None,
    flat_color: tuple = (0.8, 0.8, 0.8),
    line_color: Optional[tuple] = None,
    point_size: int = 1,
    config: Optional[ParallelConfig] = None,
) -> int:
    """Tiled :func:`repro.rendering.rasterizer.rasterize` — bitwise identical.

    The framebuffer's color and depth planes are copied into shared
    memory, each worker rasterizes its row band in place, and the
    result is copied back; returns total pixels written.
    """
    from repro.rendering.rasterizer import rasterize

    config = config if config is not None else get_config()
    n_work = int(poly.n_triangles) + sum(int(line.size) for line in poly.lines)
    if not config.wants(n_work):
        return rasterize(
            poly, camera, framebuffer,
            light_direction=light_direction, flat_color=flat_color,
            line_color=line_color, point_size=point_size,
        )
    height, width = framebuffer.height, framebuffer.width
    bands = row_bands(height, config.workers, config.tile_rows)
    with shared_ndarray((height, width, 3), np.float32) as (color_name, color):
        with shared_ndarray((height, width), np.float32) as (depth_name, depth):
            color[:] = framebuffer.color
            depth[:] = framebuffer.depth
            payload = (
                poly, camera, height, width, light_direction, flat_color,
                line_color, point_size, color_name, depth_name,
            )
            counts = run_tiles(
                config, _rasterize_tile, bands, payload=payload, label="rasterize"
            )
            framebuffer.color[:] = color
            framebuffer.depth[:] = depth
    return int(sum(counts))


# ---------------------------------------------------------------------------
# streamlines


def _streamline_tile(payload: Tuple[Any, ...], chunk: Tuple[int, int]) -> List[np.ndarray]:
    from repro.rendering.streamline import integrate_streamlines

    (volume, vector_name, seeds, step_size, max_steps, min_speed,
     bidirectional, serial_config) = payload
    s0, s1 = chunk
    return integrate_streamlines(
        volume, vector_name, seeds[s0:s1],
        step_size=step_size, max_steps=max_steps, min_speed=min_speed,
        bidirectional=bidirectional, parallel=serial_config,
    )


def parallel_integrate_streamlines(
    volume,
    vector_name: str,
    seeds: np.ndarray,
    step_size: Optional[float] = None,
    max_steps: int = 200,
    min_speed: float = 1e-6,
    bidirectional: bool = False,
    config: Optional[ParallelConfig] = None,
) -> List[np.ndarray]:
    """Seed-chunked streamline integration — identical lines, same order."""
    from repro.rendering.streamline import integrate_streamlines

    config = config if config is not None else get_config()
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.float64))
    if not config.wants(seeds.shape[0]):
        return integrate_streamlines(
            volume, vector_name, seeds,
            step_size=step_size, max_steps=max_steps, min_speed=min_speed,
            bidirectional=bidirectional, parallel=config.serial(),
        )
    chunks = index_bands(seeds.shape[0], config.workers)
    payload = (
        volume, vector_name, seeds, step_size, max_steps, min_speed,
        bidirectional, config.serial(),
    )
    results = run_tiles(config, _streamline_tile, chunks, payload=payload, label="streamline")
    return [line for chunk_lines in results for line in chunk_lines]

