"""Utilities: id generation, deterministic RNG."""

import numpy as np

from repro.util.ids import IdGenerator
from repro.util.rng import deterministic_rng


class TestIds:
    def test_monotonic(self):
        gen = IdGenerator()
        assert [gen.next() for _ in range(3)] == [0, 1, 2]
        assert gen.last == 2

    def test_reserve_through(self):
        gen = IdGenerator()
        gen.next()
        gen.reserve_through(10)
        assert gen.next() == 11

    def test_reserve_below_current_is_noop(self):
        gen = IdGenerator()
        for _ in range(5):
            gen.next()
        gen.reserve_through(2)
        assert gen.next() == 5


class TestRng:
    def test_integer_seed_reproducible(self):
        a = deterministic_rng(42).normal(size=5)
        b = deterministic_rng(42).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_string_seed_reproducible(self):
        a = deterministic_rng("temperature/run1").normal(size=5)
        b = deterministic_rng("temperature/run1").normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = deterministic_rng("a").normal(size=5)
        b = deterministic_rng("b").normal(size=5)
        assert not np.array_equal(a, b)
