"""Process-parallel streamline integration.

The kernel partitions its seeds into chunks, runs the serial integrator
on each chunk in a worker process and concatenates the lines in seed
order.  It is the only kernel with a pool variant: a variant stays only
if it beats the serial path at some served size, and ray casting,
isosurface extraction, regridding and rasterization lost at every size
(numbers and the rule in docs/parallel-kernels.md).

Determinism: the lines are **bitwise identical** to the serial ones —
every per-seed quantity is computed by the shared serial code path.

The kernel takes a ``config`` (:class:`~repro.parallel.config.ParallelConfig`)
and falls back to the serial implementation when the config is
disabled or the workload is below ``config.min_items``.  Worker-side
re-entry is guarded by passing ``config.serial()`` into the nested
call, so a forked worker never spawns its own pool.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.parallel.config import ParallelConfig, get_config
from repro.parallel.partition import index_bands
from repro.parallel.pool import run_tiles


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

