"""Domain partitioning for the tiled kernels.

Pure integer math, property-tested: every partition function returns
half-open ``(start, stop)`` ranges that exactly cover ``[0, n)`` with
no overlap, in ascending order, and never returns an empty range.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.util.errors import KernelPoolError

Range = Tuple[int, int]


def index_bands(n: int, n_bands: int) -> List[Range]:
    """Split ``[0, n)`` into at most *n_bands* near-equal contiguous bands.

    The first ``n % n_bands`` bands are one element longer, so sizes
    differ by at most one.  Fewer bands are returned when ``n < n_bands``.
    """
    if n < 0:
        raise KernelPoolError(f"cannot partition a negative range ({n})")
    if n_bands < 1:
        raise KernelPoolError(f"n_bands must be >= 1, got {n_bands}")
    if n == 0:
        return []
    n_bands = min(n_bands, n)
    base, extra = divmod(n, n_bands)
    bands: List[Range] = []
    start = 0
    for index in range(n_bands):
        stop = start + base + (1 if index < extra else 0)
        bands.append((start, stop))
        start = stop
    return bands


def sized_bands(n: int, band_size: int) -> List[Range]:
    """Split ``[0, n)`` into bands of *band_size* (last one may be short)."""
    if n < 0:
        raise KernelPoolError(f"cannot partition a negative range ({n})")
    if band_size < 1:
        raise KernelPoolError(f"band_size must be >= 1, got {band_size}")
    return [(start, min(start + band_size, n)) for start in range(0, n, band_size)]

