"""An ambient configuration scope: one process-wide default, swappable.

Hot paths that take no explicit config (``repro.cache``: the executor,
the frame cache, regrid) consult an ambient default instead, so whole
pipelines opt in without per-module plumbing.  A subsystem owns one
:class:`ConfigScope` and binds its public ``get_config`` /
``set_config`` / ``use_config`` names to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generic, Iterator, Optional, TypeVar

C = TypeVar("C")


class ConfigScope(Generic[C]):
    """The ambient default of one config type, initially *default*."""

    def __init__(self, default: C) -> None:
        self._current = default

    def get(self) -> C:
        """The ambient config consulted by hot paths when none is passed."""
        return self._current

    def set(self, config: C) -> C:
        """Install *config* as the ambient default; returns the previous one."""
        previous = self._current
        self._current = config
        return previous

    @contextmanager
    def use(self, config: Optional[C]) -> Iterator[C]:
        """Temporarily install *config* as the ambient default (None = no-op)."""
        if config is None:
            yield self.get()
            return
        previous = self.set(config)
        try:
            yield config
        finally:
            self.set(previous)
