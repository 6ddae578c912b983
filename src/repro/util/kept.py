"""One kept value: the single-entry memo every kept site goes through.

A :class:`Kept` holds the last key it was asked for and the value built
for it.  Each instance names its *site*, and each :meth:`Kept.get`
counts ``<site>.hits`` or ``<site>.misses`` on :mod:`repro.obs` with
the labels given at construction (``docs/performance.md`` lists the
sites).  A key matches by ``==``, or by one of the identity rules below.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro import obs

_NOTHING = object()  # the key of a Kept that holds no value


def same_first(kept: Any, key: Any) -> bool:
    """Match rule for an ``(object, rest)`` key: the very object, an equal rest."""
    return kept[0] is key[0] and kept[1] == key[1]


def same_items(kept: Any, key: Any) -> bool:
    """Match rule for a tuple of objects: the very same objects, in order."""
    return len(kept) == len(key) and all(map(operator.is_, kept, key))


class Kept:
    """The value built for the last key, at one named site."""

    __slots__ = ("key", "value", "_match", "_hits", "_misses", "_labels")

    def __init__(self, site: str, match: Callable[[Any, Any], bool] = operator.eq,
                 **labels: Any) -> None:
        self.key: Any = _NOTHING
        self.value: Any = None
        self._match = match
        self._hits, self._misses = f"{site}.hits", f"{site}.misses"
        self._labels = labels

    def get(self, key: Any, build: Callable[[], Any]) -> Any:
        """The value kept for *key*, else ``build()``'s, kept: read-only
        if an ndarray or a tuple's ndarray item.  A build that raises
        keeps nothing, not even the value kept before it."""
        hit = self.key is not _NOTHING and self._match(self.key, key)
        if obs.enabled():
            obs.counter(self._hits if hit else self._misses, **self._labels)
        if hit:
            return self.value
        self.key, self.value = _NOTHING, None
        value = build()
        for item in value if type(value) is tuple else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
        self.key, self.value = key, value
        return value
