"""Process-parallel kernel pool (serial fallback, deterministic output, crash containment).

Streamline integration — the one hot path whose pool variant beats the
serial one (docs/parallel-kernels.md has the numbers) — chunks its
seeds across worker processes.  Rasterization, ray casting, isosurface
extraction and regridding always run serially.  Parallelism is strictly
opt-in:

    from repro import parallel

    parallel.configure(workers=4)          # ambient: all plots pick it up
    ...
    with parallel.use_config(parallel.ParallelConfig(workers=4)):
        img = plot.render(width=640, height=480)    # scoped

Guarantees (see docs/parallel-kernels.md):

* **serial fallback** — ``workers <= 1``, missing POSIX shared memory,
  or workloads under ``min_items`` silently run the serial kernels;
* **determinism** — the pooled kernel produces *bitwise identical*
  lines at any worker count (golden-image tested);
* **crash containment with recovery** — a crashed worker's tiles are
  retried on replacement workers (``respawn_budget``) and then
  serially in the parent, so a transient worker loss still completes
  bitwise-identically; poisonous tiles, tile exceptions and pool
  timeouts raise :class:`~repro.util.errors.KernelPoolError` (never a
  hang) and shared-memory segments are always unlinked.
"""

from repro.parallel.config import (
    ParallelConfig,
    configure,
    get_config,
    set_config,
    shared_memory_supported,
    use_config,
)
from repro.parallel.kernels import parallel_integrate_streamlines
from repro.parallel.partition import index_bands, sized_bands
from repro.parallel.pool import KernelPool, attach_ndarray, run_tiles, shared_ndarray
from repro.util.errors import KernelPoolError

__all__ = [
    "KernelPool",
    "KernelPoolError",
    "ParallelConfig",
    "attach_ndarray",
    "configure",
    "get_config",
    "index_bands",
    "parallel_integrate_streamlines",
    "run_tiles",
    "set_config",
    "shared_memory_supported",
    "shared_ndarray",
    "sized_bands",
    "use_config",
]
