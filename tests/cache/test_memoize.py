"""``ambient_cache`` / ``memoize``: the one get-or-compute path."""

from __future__ import annotations

import pytest

from repro.cache import keys
from repro.cache.config import CacheConfig, use_config
from repro.cache.store import UNCACHEABLE, ambient_cache, memoize


@pytest.fixture()
def enabled():
    with use_config(CacheConfig(use_disk=False)):
        yield


def test_disabled_cache_never_computes_a_digest(monkeypatch):
    """Disabled means not even a digest: ``cache_key`` must not run."""

    def forbidden(*args, **kwargs):
        raise AssertionError("cache_key called while caching is disabled")

    monkeypatch.setattr(keys, "cache_key", forbidden)
    assert ambient_cache() is None
    calls = []
    for _ in range(2):
        assert memoize("site", ("part",), lambda: calls.append(1) or "value") == "value"
    assert len(calls) == 2  # and nothing is remembered either


def test_enabled_computes_once_per_key(enabled):
    calls = []

    def compute():
        calls.append(1)
        return {"n": len(calls)}

    first = memoize("site", ("a", 1), compute)
    assert memoize("site", ("a", 1), compute) is first  # shared, no clone
    assert memoize("site", ("a", 2), compute) == {"n": 2}
    assert memoize("other", ("a", 1), compute) == {"n": 3}
    assert len(calls) == 3
    assert ambient_cache().stats()["hits"] == 1


def test_clone_isolates_the_entry_both_ways(enabled):
    fresh = memoize("site", ("k",), lambda: [1, 2], clone=list)
    fresh.append(3)  # mutating the computed result must not reach the entry
    served = memoize("site", ("k",), lambda: pytest.fail("recomputed"), clone=list)
    assert served == [1, 2]
    served.append(4)  # nor may mutating a served copy
    assert memoize("site", ("k",), lambda: pytest.fail("recomputed"), clone=list) == [1, 2]


def test_uncacheable_results_are_computed_every_time(enabled):
    calls = []

    def compute():
        calls.append(1)
        return object()

    for _ in range(2):
        memoize("site", ("k",), compute, clone=lambda value: UNCACHEABLE)
    assert len(calls) == 2
