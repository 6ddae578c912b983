"""The ambient config scope (``repro.cache`` binds its config names to one)."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.cache import config as cache_config
from repro.util.scope import ConfigScope


@dataclass(frozen=True)
class Knob:
    level: int = 0


@pytest.fixture()
def scope():
    return ConfigScope(Knob())


def test_set_returns_previous_and_get_sees_new(scope):
    assert scope.get() == Knob(0)
    assert scope.set(Knob(1)) == Knob(0)
    assert scope.get() == Knob(1)


def test_use_nests_and_restores_in_order(scope):
    with scope.use(Knob(1)) as outer:
        assert outer == Knob(1)
        with scope.use(Knob(2)):
            assert scope.get() == Knob(2)
        assert scope.get() == Knob(1)
    assert scope.get() == Knob(0)


def test_use_none_is_a_no_op_yielding_the_current(scope):
    scope.set(Knob(3))
    with scope.use(None) as current:
        assert current == Knob(3)
        assert scope.get() == Knob(3)
    assert scope.get() == Knob(3)


def test_use_restores_on_exception(scope):
    with pytest.raises(RuntimeError):
        with scope.use(Knob(5)):
            raise RuntimeError("boom")
    assert scope.get() == Knob(0)


def test_two_scopes_are_independent(scope):
    cache_before = cache_config.get_config()
    knob_before = scope.get()
    with cache_config.use_config(cache_config.CacheConfig(use_disk=False)):
        assert scope.get() is knob_before
        with scope.use(Knob(2)):
            assert cache_config.get_config().use_disk is False
            assert scope.get().level == 2
        assert scope.get() is knob_before
    assert cache_config.get_config() is cache_before


def test_module_names_are_the_scope():
    """``from … import get_config`` copies stay live: they are bound
    methods of the one scope, not snapshots of a module global."""
    from repro.cache.config import get_config, set_config

    installed = cache_config.CacheConfig(memory_entries=3, use_disk=False)
    previous = set_config(installed)
    try:
        assert get_config() is installed
        assert cache_config.get_config() is installed
    finally:
        set_config(previous)
