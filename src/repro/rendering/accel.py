"""Acceleration structures for the batched render kernels.

The hot paths (ray casting, isosurface extraction) spend most of their
time evaluating regions of the volume that provably contribute nothing:
samples whose transfer-function opacity is exactly zero, cells that the
isovalue does not cross.  A :class:`MinMaxPyramid` makes those regions
cheap to identify *conservatively* — per-tile value bounds guarantee
that every trilinear sample and every cell-corner value inside a tile
lies within the tile's ``[min, max]`` interval, so a tile whose bounds
rule out any contribution can be skipped without changing a single
output byte.  The same structure is the shape the future
chunked-storage work needs for per-slab culling.

Level 0 tiles are ``tile``³ cells; each coarser level merges 2×2×2
finer tiles.  Bounds are computed over *cell corner* values (the 8
voxels bounding each cell), so tiles correctly cover the voxels shared
with their neighbours.  Non-finite voxels (NaN/±inf) are tracked
separately: they map to zero opacity in the ray caster and to
"outside" in marching tetrahedra, so they never prevent a skip — but a
tile holding them must still be treated as unbounded-below for the
isosurface test (NaN becomes ``-inf`` there).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.util.errors import RenderingError

#: default level-0 tile edge, in cells
DEFAULT_TILE = 4

#: safety margin (normalized units) widening the opacity support when
#: classifying tiles — absorbs trilinear round-off so a sample that
#: lands ulps outside its cell's value bounds can never be skipped
#: while carrying real opacity
SUPPORT_MARGIN = 1e-6


class PyramidLevel:
    """One resolution level: per-tile value bounds over cell corners."""

    __slots__ = ("tile", "vmin", "vmax", "nonfinite")

    def __init__(
        self, tile: int, vmin: np.ndarray, vmax: np.ndarray, nonfinite: np.ndarray
    ) -> None:
        self.tile = int(tile)
        self.vmin = vmin
        self.vmax = vmax
        self.nonfinite = nonfinite

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.vmin.shape  # type: ignore[return-value]


def _pad_reduce(block: np.ndarray, tile: int, op, fill) -> np.ndarray:
    """Tile-reduce a 3-D array with *op*, padding partial tiles with *fill*."""
    shape = block.shape
    padded_shape = tuple(-(-s // tile) * tile for s in shape)
    if padded_shape != shape:
        padded = np.full(padded_shape, fill, dtype=block.dtype)
        padded[: shape[0], : shape[1], : shape[2]] = block
        block = padded
    nt = tuple(s // tile for s in block.shape)
    view = block.reshape(nt[0], tile, nt[1], tile, nt[2], tile)
    return op(view, axis=(1, 3, 5))


class MinMaxPyramid:
    """Per-tile conservative value bounds for one scalar volume.

    ``levels[0]`` is the finest; ``levels[k]`` tiles are ``tile * 2**k``
    cells on edge.  All bounds are over finite voxel values only, with
    ``nonfinite`` flagging tiles that contain any NaN/±inf voxel (and
    ``vmin > vmax`` marking tiles with *no* finite voxel at all).
    """

    def __init__(self, dims: Tuple[int, int, int], levels: List[PyramidLevel]) -> None:
        self.dims = dims
        self.levels = levels

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, values: np.ndarray, tile: int = DEFAULT_TILE) -> "MinMaxPyramid":
        """Build the pyramid for a scalar array shaped ``(nx, ny, nz)``.

        Requires at least 2 points per axis (one cell); *tile* is the
        level-0 tile edge in cells.
        """
        if values.ndim != 3:
            raise RenderingError("MinMaxPyramid requires a 3-D scalar array")
        if tile < 1:
            raise RenderingError(f"tile must be >= 1, got {tile}")
        nx, ny, nz = values.shape
        if min(nx, ny, nz) < 2:
            raise RenderingError("MinMaxPyramid requires at least one cell per axis")
        vals = values.astype(np.float64, copy=False)
        finite = np.isfinite(vals)
        lo = np.where(finite, vals, np.inf)
        hi = np.where(finite, vals, -np.inf)
        bad = ~finite
        # cell-level bounds over each cell's 8 corner voxels
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
        levels = [
            PyramidLevel(
                tile,
                _pad_reduce(cmin, tile, np.min, np.inf),
                _pad_reduce(cmax, tile, np.max, -np.inf),
                _pad_reduce(cbad, tile, np.max, False).astype(bool),
            )
        ]
        while max(levels[-1].shape) > 1:
            prev = levels[-1]
            levels.append(
                PyramidLevel(
                    prev.tile * 2,
                    _pad_reduce(prev.vmin, 2, np.min, np.inf),
                    _pad_reduce(prev.vmax, 2, np.max, -np.inf),
                    _pad_reduce(prev.nonfinite, 2, np.max, False).astype(bool),
                )
            )
        return cls((nx, ny, nz), levels)

    @property
    def tile(self) -> int:
        return self.levels[0].tile

    @property
    def cell_dims(self) -> Tuple[int, int, int]:
        nx, ny, nz = self.dims
        return nx - 1, ny - 1, nz - 1

    # -- classification ---------------------------------------------------

    def blocked_outside(
        self, lo: float, hi: float, level: int = 0
    ) -> np.ndarray:
        """Tiles whose every *finite* value falls outside ``(lo, hi)``.

        This is the ray-caster test: with an opacity transfer function
        that is exactly zero outside ``[lo, hi]`` (and zero for
        non-finite samples), a ``True`` tile cannot contribute color or
        absorb light — every sample in it has opacity exactly 0.  The
        comparison keeps :data:`SUPPORT_MARGIN` of slack so trilinear
        round-off can never un-skip a contributing sample.
        """
        lvl = self.levels[level]
        empty = lvl.vmin > lvl.vmax  # no finite voxel at all
        # slack scales with each tile's own value magnitude, so float32
        # interpolation round-off (≈ magnitude * 2^-24) is always covered
        with np.errstate(invalid="ignore"):
            mag = np.maximum(np.maximum(np.abs(lvl.vmin), np.abs(lvl.vmax)), 1.0)
            margin = np.where(np.isfinite(mag), SUPPORT_MARGIN * mag, 0.0)
            out = empty | (lvl.vmax + margin < lo) | (lvl.vmin - margin > hi)
        return out

    def straddling(self, isovalue: float, level: int = 0) -> np.ndarray:
        """Tiles that may contain cells crossed by *isovalue*.

        Marching tetrahedra treats non-finite voxels as ``-inf``
        ("outside" at any isovalue), so a tile holding one is unbounded
        below.  A cell produces triangles only when some corner is
        ``> isovalue`` and some is ``<= isovalue``; a ``False`` tile
        provably holds no such cell.  Exact — corner values are members
        of the min/max, so no floating-point margin is needed.
        """
        lvl = self.levels[level]
        iso = float(isovalue)
        vmin = np.where(lvl.nonfinite | (lvl.vmin > lvl.vmax), -np.inf, lvl.vmin)
        vmax = np.where(lvl.vmin > lvl.vmax, -np.inf, lvl.vmax)
        return (vmax > iso) & (vmin <= iso)

    def cell_mask(self, tile_mask: np.ndarray, level: int = 0) -> np.ndarray:
        """Expand a per-tile mask to per-cell, shaped ``cell_dims``."""
        lvl = self.levels[level]
        if tile_mask.shape != lvl.shape:
            raise RenderingError(
                f"tile mask shape {tile_mask.shape} != level shape {lvl.shape}"
            )
        cx, cy, cz = self.cell_dims
        out = tile_mask
        for axis in range(3):
            out = np.repeat(out, lvl.tile, axis=axis)
        return out[:cx, :cy, :cz]

    def active_cell_bounds(
        self, tile_mask: np.ndarray, level: int = 0
    ) -> Optional[Tuple[int, int, int, int, int, int]]:
        """Tight cell-index bounding box of ``True`` tiles, or None.

        Returns half-open cell ranges ``(i0, i1, j0, j1, k0, k1)``
        clipped to the cell grid; every sample whose containing cell is
        outside the box lies in a ``False`` tile.
        """
        if not tile_mask.any():
            return None
        lvl = self.levels[level]
        bounds = []
        for axis, n_cells in enumerate(self.cell_dims):
            axes = tuple(a for a in range(3) if a != axis)
            occupied = np.nonzero(tile_mask.any(axis=axes))[0]
            t0, t1 = int(occupied[0]), int(occupied[-1]) + 1
            bounds.extend((t0 * lvl.tile, min(t1 * lvl.tile, n_cells)))
        return tuple(bounds)  # type: ignore[return-value]
