"""Configuration for the serving tier's result cache.

A :class:`CacheConfig` describes the two tiers of one
:class:`~repro.cache.store.ResultCache`: an in-memory LRU (bounded by
entry count) and an on-disk store (bounded by total bytes, shared
between processes through atomic file renames).  A config is only ever
used to build a cache that is then handed to its user; there is no
process-wide default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.util.errors import CacheError

#: environment override for the default disk-tier location (the test
#: suite points this at a per-test tmp dir so no test can leak entries
#: into the shared path)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The disk-tier root used when a config does not name one."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return str(Path.home() / ".cache" / "repro")


@dataclass(frozen=True)
class CacheConfig:
    """Size bounds and location of the two cache tiers.

    Parameters
    ----------
    enabled:
        Master switch; a disabled config builds a cache with no tiers,
        whose every lookup is a miss-without-store.
    memory_entries:
        In-memory LRU capacity in entries (0 disables the tier).
    disk_bytes:
        On-disk budget in bytes; exceeding it evicts the stalest
        entries (0 disables the tier).
    path:
        Disk-tier root directory.  ``None`` resolves through the
        ``REPRO_CACHE_DIR`` environment variable, then the per-user
        default (``~/.cache/repro``).
    use_disk:
        Whether the disk tier participates at all (``False`` keeps the
        cache purely in-process).
    """

    enabled: bool = True
    memory_entries: int = 256
    disk_bytes: int = 512 * 1024 * 1024
    path: Optional[str] = None
    use_disk: bool = True

    def __post_init__(self) -> None:
        if self.memory_entries < 0:
            raise CacheError(f"memory_entries must be >= 0, got {self.memory_entries}")
        if self.disk_bytes < 0:
            raise CacheError(f"disk_bytes must be >= 0, got {self.disk_bytes}")

    def resolved_path(self) -> str:
        """The disk-tier root this config writes to."""
        return self.path or default_cache_dir()

    @property
    def wants_memory(self) -> bool:
        return self.enabled and self.memory_entries > 0

    @property
    def wants_disk(self) -> bool:
        return self.enabled and self.use_disk and self.disk_bytes > 0

