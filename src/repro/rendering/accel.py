"""Acceleration structures for the batched render kernels.

The hot paths (ray casting, isosurface extraction) spend most of their
time evaluating regions of the volume that provably contribute nothing:
samples whose transfer-function opacity is exactly zero, cells that the
isovalue does not cross.  A :class:`MinMaxPyramid` makes those regions
cheap to identify *conservatively* — per-cell value bounds guarantee
that every trilinear sample and every corner value of a cell lies
within the cell's ``[min, max]`` interval, so a cell whose bounds rule
out any contribution can be skipped without changing a single output
byte.

The structure is one level, per cell — the granularity both consumers
test at, and the finest, so it skips the most.  Each cell's bounds are
taken over its 8 *corner* voxels, so neighbouring cells correctly share
the voxels between them (9 B a cell for float32 data).  Non-finite
voxels (NaN/±inf) are tracked separately: they map to zero opacity in
the ray caster and to "outside" in marching tetrahedra, so they never
prevent a skip — but a cell holding one must still be treated as
unbounded-below for the isosurface test (NaN becomes ``-inf`` there).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.util.errors import RenderingError
from repro.util.kept import Kept

#: safety margin (normalized units) widening the opacity support when
#: classifying cells — absorbs trilinear round-off so a sample that
#: lands ulps outside its cell's value bounds can never be skipped
#: while carrying real opacity
SUPPORT_MARGIN = 1e-6


def _corners(op, a: np.ndarray) -> np.ndarray:
    """*op* over each cell's 8 corners, pairwise along x, then y, then z:
    three contiguous passes.  ``min``, ``max`` and ``or`` are exact, so
    the grouping cannot change a value."""
    a = op(a[:-1], a[1:])
    a = op(a[:, :-1], a[:, 1:])
    return op(a[:, :, :-1], a[:, :, 1:])


class MinMaxPyramid:
    """Per-cell conservative value bounds for one scalar volume.

    ``vmin`` / ``vmax`` / ``nonfinite`` are shaped :attr:`cell_dims`.
    Bounds are over finite corner values only, with ``nonfinite``
    flagging cells with any NaN/±inf corner (and ``vmin > vmax`` marking
    cells with *no* finite corner at all).  The bounds keep the data's
    own float dtype — a min or max is one of the values, so it is exact
    — and every test on them is made in float64.
    """

    def __init__(
        self,
        dims: Tuple[int, int, int],
        vmin: np.ndarray,
        vmax: np.ndarray,
        nonfinite: np.ndarray,
    ) -> None:
        self.dims = dims
        self.vmin = vmin
        self.vmax = vmax
        self.nonfinite = nonfinite
        #: the read-only mask of the last ``blocked_outside`` support
        self._blocked = Kept("accel.blocked")

    @classmethod
    def build(cls, values: np.ndarray) -> "MinMaxPyramid":
        """Cell bounds of a scalar array shaped ``(nx, ny, nz)``.

        Requires at least 2 points per axis (one cell).
        """
        if values.ndim != 3:
            raise RenderingError("MinMaxPyramid requires a 3-D scalar array")
        nx, ny, nz = values.shape
        if min(nx, ny, nz) < 2:
            raise RenderingError("MinMaxPyramid requires at least one cell per axis")
        vals = values if values.dtype.kind == "f" else values.astype(np.float64)
        finite = np.isfinite(vals)
        if finite.all():
            cmin = _corners(np.minimum, vals)
            cmax = _corners(np.maximum, vals)
            cbad = np.zeros((nx - 1, ny - 1, nz - 1), dtype=bool)
        else:
            cmin = _corners(np.minimum, np.where(finite, vals, np.inf))
            cmax = _corners(np.maximum, np.where(finite, vals, -np.inf))
            cbad = _corners(np.logical_or, ~finite)
        return cls((nx, ny, nz), cmin, cmax, cbad)

    @property
    def cell_dims(self) -> Tuple[int, int, int]:
        nx, ny, nz = self.dims
        return nx - 1, ny - 1, nz - 1

    # -- classification ---------------------------------------------------

    def blocked_outside(self, lo: float, hi: float) -> np.ndarray:
        """Cells whose every *finite* corner value falls outside ``(lo, hi)``.

        This is the ray-caster test: with an opacity transfer function
        that is exactly zero outside ``[lo, hi]`` (and zero for
        non-finite samples), a ``True`` cell cannot contribute color or
        absorb light — every sample in it has opacity exactly 0.  The
        comparison keeps :data:`SUPPORT_MARGIN` of slack so trilinear
        round-off can never un-skip a contributing sample.  The mask of
        the last ``(lo, hi)`` is kept, read-only.
        """
        return self._blocked.get((lo, hi), lambda: self._blocked_outside(lo, hi))

    def _blocked_outside(self, lo: float, hi: float) -> np.ndarray:
        # every test is made in float64: the float32 bounds are widened
        # inside each ufunc (exactly), never rounded to a Python float
        vmin, vmax = self.vmin, self.vmax
        blocked = np.greater(vmin, vmax)  # no finite corner at all
        # slack scales with each cell's own value magnitude, so float32
        # interpolation round-off (≈ magnitude * 2^-24) is always covered;
        # an empty cell's margin is inf and its comparisons NaN, which
        # the empty test overrides
        margin = np.abs(vmin, dtype=np.float64)
        edge = np.abs(vmax, dtype=np.float64)
        np.maximum(margin, edge, out=margin)
        np.maximum(margin, 1.0, out=margin)
        np.multiply(SUPPORT_MARGIN, margin, out=margin)
        test = np.empty_like(blocked)
        with np.errstate(invalid="ignore"):
            np.add(vmax, margin, out=edge)
            blocked |= np.less(edge, lo, out=test)
            np.subtract(vmin, margin, out=edge)
            blocked |= np.greater(edge, hi, out=test)
        return blocked

    def straddling(self, isovalue: float) -> np.ndarray:
        """Cells that may be crossed by *isovalue*.

        Marching tetrahedra treats non-finite voxels as ``-inf``
        ("outside" at any isovalue), so a cell holding one is unbounded
        below.  A cell produces triangles only when some corner is
        ``> isovalue`` and some is ``<= isovalue``; a ``False`` cell
        provably produces none.  Exact — corner values are members of
        the min/max, so no floating-point margin is needed.
        """
        iso = float(isovalue)
        vmin, vmax = self._bounds64()
        empty = vmin > vmax
        vmin[self.nonfinite | empty] = -np.inf
        vmax[empty] = -np.inf
        return (vmax > iso) & (vmin <= iso)

    def _bounds64(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fresh float64 copies of the bounds: compared with a Python
        float, float32 bounds would round the float to float32 first."""
        return self.vmin.astype(np.float64), self.vmax.astype(np.float64)

    def active_cell_bounds(
        self, mask: np.ndarray
    ) -> Optional[Tuple[int, int, int, int, int, int]]:
        """Tight half-open box ``(i0, i1, j0, j1, k0, k1)`` of ``True`` cells.

        ``None`` when no cell is ``True``; every sample whose containing
        cell is outside the box lies in a ``False`` cell.
        """
        if not mask.any():
            return None
        bounds = []
        for axis in range(3):
            axes = tuple(a for a in range(3) if a != axis)
            occupied = np.nonzero(mask.any(axis=axes))[0]
            bounds.extend((int(occupied[0]), int(occupied[-1]) + 1))
        return tuple(bounds)  # type: ignore[return-value]
