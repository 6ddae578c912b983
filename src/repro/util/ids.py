"""Identifier generation.

Workflow modules, connections and provenance actions need stable
integer identifiers.  The :class:`IdGenerator` hands out monotonically
increasing integers (the VisTrails convention for module/action ids).
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Monotonic integer id source, optionally starting above existing ids."""

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._last = start - 1

    def next(self) -> int:
        self._last = next(self._counter)
        return self._last

    @property
    def last(self) -> int:
        """The most recently issued id (``start - 1`` if none issued)."""
        return self._last

    def reserve_through(self, value: int) -> None:
        """Ensure future ids are strictly greater than *value*.

        Used when deserializing a pipeline/vistrail so new entities do
        not collide with persisted ones.
        """
        if value >= self._last:
            self._counter = itertools.count(value + 1)
            self._last = value

