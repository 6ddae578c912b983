"""The per-cell bounds and the blocked-cell test as they were written
before the separable build — the references the kernels in
:mod:`repro.rendering.accel` are compared against.

:func:`build` is the seven 8-offset passes over strided corner slices,
with both non-finite fills made whatever the data; :func:`blocked_outside`
is the float64 expression over fresh widened copies of the bounds,
recomputed on every call.  :func:`gradient` is ``np.gradient`` over a
float64 copy, stacked.  The reference ray caster
(``tests/rendering/reference_raycast.py``) borrows these three from
``src``, so only a comparison with these can see them drift.  Slow on
purpose; never imported from ``src/``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.rendering.accel import SUPPORT_MARGIN


def build(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vmin, vmax, nonfinite)`` per cell of a ``(nx, ny, nz)`` array."""
    nx, ny, nz = values.shape
    vals = values if values.dtype.kind == "f" else values.astype(np.float64)
    finite = np.isfinite(vals)
    lo = np.where(finite, vals, np.inf)
    hi = np.where(finite, vals, -np.inf)
    bad = ~finite
    cmin = lo[:-1, :-1, :-1]
    cmax = hi[:-1, :-1, :-1]
    cbad = bad[:-1, :-1, :-1]
    for ox, oy, oz in (
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
        (1, 0, 1), (0, 1, 1), (1, 1, 1),
    ):
        sel = (
            slice(ox, ox + nx - 1),
            slice(oy, oy + ny - 1),
            slice(oz, oz + nz - 1),
        )
        cmin = np.minimum(cmin, lo[sel])
        cmax = np.maximum(cmax, hi[sel])
        cbad = cbad | bad[sel]
    return cmin, cmax, cbad


def blocked_outside(
    vmin: np.ndarray, vmax: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Cells whose every finite corner value falls outside ``(lo, hi)``."""
    vmin, vmax = vmin.astype(np.float64), vmax.astype(np.float64)
    empty = vmin > vmax
    with np.errstate(invalid="ignore"):
        mag = np.maximum(np.maximum(np.abs(vmin), np.abs(vmax)), 1.0)
        margin = SUPPORT_MARGIN * mag
        return empty | (vmax + margin < lo) | (vmin - margin > hi)


def gradient(values: np.ndarray, spacing: Tuple[float, float, float]) -> np.ndarray:
    """Central differences of a float array, ``values.shape + (3,)``."""
    return np.stack(np.gradient(values.astype(np.float64), *spacing), -1)
