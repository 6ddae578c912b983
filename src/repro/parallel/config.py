"""Configuration for the process-parallel kernel pool.

A :class:`ParallelConfig` describes how the pooled kernels distribute
work: how many worker processes, the work-size floor, and the pool-wide
timeout.  The pool is strictly **opt-in**: the default configuration
has ``workers=1`` and every kernel falls back to its serial
implementation whenever the config is not
:attr:`ParallelConfig.enabled` — including on platforms without POSIX
shared memory.

The ambient default config (:func:`get_config` / :func:`set_config` /
:func:`use_config`) is what lets DV3D plot types pick up parallelism
without API changes: ``integrate_streamlines`` consults it when no
explicit config is passed.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from typing import Optional

from repro.util.errors import KernelPoolError
from repro.util.scope import ConfigScope


def shared_memory_supported() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform."""
    global _SHM_SUPPORTED
    if _SHM_SUPPORTED is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=16)
            probe.close()
            probe.unlink()
            _SHM_SUPPORTED = True
        except Exception:
            _SHM_SUPPORTED = False
    return _SHM_SUPPORTED


_SHM_SUPPORTED: Optional[bool] = None


@dataclass(frozen=True)
class ParallelConfig:
    """How the kernel pool distributes work.

    Parameters
    ----------
    workers:
        Worker process count; ``<= 1`` selects the serial path.
    min_items:
        Work-size floor (seeds) below which kernels run serially —
        fork + IPC overhead dwarfs tiny workloads.  Determinism is
        unaffected: the parallel path is bitwise-identical to the
        serial one.
    timeout:
        Pool-wide wall-clock limit in seconds; exceeding it raises
        :class:`~repro.util.errors.KernelPoolError` after the pool
        tears down its workers.
    respawn_budget:
        How many replacement workers one pool run may spawn to retry
        the tiles of crashed workers before degrading to in-parent
        serial execution of the remaining tiles (0 disables respawn;
        a tile that kills its worker twice is deemed poisonous and
        fails the run regardless).
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available — zero-copy payload inheritance — else ``spawn``).
    """

    workers: int = 1
    min_items: int = 2048
    timeout: float = 120.0
    respawn_budget: int = 2
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise KernelPoolError(f"workers must be >= 1, got {self.workers}")
        if self.timeout <= 0:
            raise KernelPoolError(f"timeout must be positive, got {self.timeout}")
        if self.min_items < 0:
            raise KernelPoolError(f"min_items must be >= 0, got {self.min_items}")
        if self.respawn_budget < 0:
            raise KernelPoolError(
                f"respawn_budget must be >= 0, got {self.respawn_budget}"
            )

    @property
    def enabled(self) -> bool:
        """Whether kernels should take the process-parallel path."""
        return self.workers > 1 and shared_memory_supported()

    def wants(self, n_items: int) -> bool:
        """Whether a workload of *n_items* is worth distributing."""
        return self.enabled and n_items >= self.min_items

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

    def serial(self) -> "ParallelConfig":
        """This config with the pool disabled (worker-side re-entry guard)."""
        return replace(self, workers=1)


#: the ambient default — serial unless the application opts in
_SCOPE = ConfigScope(ParallelConfig())

get_config = _SCOPE.get
set_config = _SCOPE.set
configure = _SCOPE.configure
use_config = _SCOPE.use
