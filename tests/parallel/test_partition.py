"""Property tests for domain partitioning.

The partition functions carry the pool's correctness: every parallel
kernel assumes its bands exactly cover the domain with no overlap.
Hypothesis sweeps random sizes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.partition import index_bands, sized_bands
from repro.util.errors import KernelPoolError


def _assert_exact_cover(bands, n):
    """Bands are ascending, non-empty, disjoint and cover [0, n)."""
    if n == 0:
        assert bands == []
        return
    assert bands[0][0] == 0
    assert bands[-1][1] == n
    for start, stop in bands:
        assert start < stop
    for (_, prev_stop), (next_start, _) in zip(bands, bands[1:]):
        assert next_start == prev_stop


class TestIndexBands:
    @given(n=st.integers(0, 700), k=st.integers(1, 24))
    @settings(max_examples=200)
    def test_exact_cover_no_overlap(self, n, k):
        bands = index_bands(n, k)
        _assert_exact_cover(bands, n)
        assert len(bands) == min(k, n) if n else bands == []

    @given(n=st.integers(1, 700), k=st.integers(1, 24))
    @settings(max_examples=200)
    def test_near_equal_sizes(self, n, k):
        sizes = [stop - start for start, stop in index_bands(n, k)]
        assert max(sizes) - min(sizes) <= 1
        # longer bands come first (deterministic tile → worker mapping)
        assert sizes == sorted(sizes, reverse=True)

    def test_bad_args(self):
        with pytest.raises(KernelPoolError):
            index_bands(-1, 2)
        with pytest.raises(KernelPoolError):
            index_bands(10, 0)


class TestSizedBands:
    @given(n=st.integers(0, 700), size=st.integers(1, 64))
    @settings(max_examples=200)
    def test_exact_cover(self, n, size):
        bands = sized_bands(n, size)
        _assert_exact_cover(bands, n)
        assert all(stop - start <= size for start, stop in bands)
        # all but the last band are full-size
        assert all(stop - start == size for start, stop in bands[:-1])

    def test_bad_args(self):
        with pytest.raises(KernelPoolError):
            sized_bands(5, 0)

