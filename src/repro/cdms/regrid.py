"""Regridding between rectilinear grids.

The paper lists "regridding" among the CDAT operations DV3D workflows
use.  For rectilinear grids both standard schemes factor into separable
1-D operators, which keeps everything as dense matrix products (fully
vectorized, per the session performance guides):

* **bilinear** — two-point linear interpolation weights per output
  coordinate, with periodic wrap-around in longitude for global grids;
* **conservative** (first order) — cell-overlap weights, computed in
  sin(latitude) for latitude (exact spherical areas) and degrees for
  longitude.

Both schemes are mask-aware: masked source cells contribute nothing and
output cells whose total valid weight falls below a threshold are
masked.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro import obs
from repro.cdms.grid import RectilinearGrid
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError

_VALID_WEIGHT_FLOOR = 0.5  # conservative: mask output cells <50% covered by valid input


def _bilinear_matrix(src: np.ndarray, dst: np.ndarray, periodic: bool) -> np.ndarray:
    """(n_dst, n_src) two-point linear interpolation weight matrix."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src[0] > src[-1]:  # normalise to increasing
        flip = _bilinear_matrix(src[::-1], dst, periodic)
        return flip[:, ::-1]
    n_src = src.size
    if periodic:
        ext = np.concatenate([src, [src[0] + 360.0]])
        dstw = np.where(dst < src[0], dst + 360.0, dst)
    else:
        ext = src
        dstw = np.clip(dst, src[0], src[-1])
    # bracket indices in the (possibly extended) source
    hi = np.searchsorted(ext, dstw, side="left")
    hi = np.clip(hi, 1, ext.size - 1)
    lo = hi - 1
    span = ext[hi] - ext[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(span > 0, (dstw - ext[lo]) / np.where(span > 0, span, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    matrix = np.zeros((dst.size, n_src), dtype=np.float64)
    rows = np.arange(dst.size)
    matrix[rows, lo % n_src] += 1.0 - frac
    matrix[rows, hi % n_src] += frac
    return matrix


def _overlap_matrix(
    src_bounds: np.ndarray,
    dst_bounds: np.ndarray,
    transform=None,
    periodic: bool = False,
) -> np.ndarray:
    """(n_dst, n_src) first-order conservative overlap-fraction matrix.

    Each row holds, for one destination cell, the fraction of that cell
    covered by each source cell (in the transformed coordinate, e.g.
    sin(latitude)).  Rows of a fully covered destination sum to 1.
    """

    def edges(bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lo = np.minimum(bounds[:, 0], bounds[:, 1])
        hi = np.maximum(bounds[:, 0], bounds[:, 1])
        if transform is not None:
            tlo, thi = transform(lo), transform(hi)
            lo, hi = np.minimum(tlo, thi), np.maximum(tlo, thi)
        return lo, hi

    src_lo, src_hi = edges(np.asarray(src_bounds, dtype=np.float64))
    dst_lo, dst_hi = edges(np.asarray(dst_bounds, dtype=np.float64))

    def raw_overlap(dlo: np.ndarray, dhi: np.ndarray) -> np.ndarray:
        left = np.maximum(dlo[:, None], src_lo[None, :])
        right = np.minimum(dhi[:, None], src_hi[None, :])
        return np.clip(right - left, 0.0, None)

    overlap = raw_overlap(dst_lo, dst_hi)
    if periodic:
        # try shifting destination cells by ±360° to catch wrap-around
        for shift in (-360.0, 360.0):
            overlap += raw_overlap(dst_lo + shift, dst_hi + shift)
    width = dst_hi - dst_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = overlap / np.where(width > 0, width, 1.0)[:, None]
    return matrix


def _apply_separable(
    var: Variable,
    target: RectilinearGrid,
    lat_matrix: np.ndarray,
    lon_matrix: np.ndarray,
    weight_floor: float,
) -> Variable:
    """Apply 1-D operators along the latitude and longitude dimensions."""
    lat_dim = var.axis_index("latitude")
    lon_dim = var.axis_index("longitude")
    data = np.moveaxis(var.filled(np.nan), (lat_dim, lon_dim), (-2, -1))
    valid = ~np.isnan(data)
    filled = np.where(valid, data, 0.0)

    # numerator and normalisation share the same operator application
    numerator = np.einsum("li,...ij,mj->...lm", lat_matrix, filled, lon_matrix, optimize=True)
    denominator = np.einsum(
        "li,...ij,mj->...lm", lat_matrix, valid.astype(np.float64), lon_matrix, optimize=True
    )

    with np.errstate(invalid="ignore", divide="ignore"):
        result = numerator / denominator
    mask = denominator < weight_floor
    result = np.where(mask, 0.0, result)
    out = np.ma.MaskedArray(result, mask=mask)
    out = np.ma.asarray(np.moveaxis(out, (-2, -1), (lat_dim, lon_dim)))
    new_axes = list(var.axes)
    new_axes[lat_dim] = target.latitude
    new_axes[lon_dim] = target.longitude
    return Variable(
        out,
        new_axes,
        id=var.id,
        missing_value=var.missing_value,
        attributes=dict(var.attributes),
    )


def _require_grid(var: Variable) -> RectilinearGrid:
    grid = var.get_grid()
    if grid is None:
        raise CDMSError(f"variable {var.id!r} has no horizontal grid to regrid")
    return grid


def regrid_bilinear(var: Variable, target: RectilinearGrid) -> Variable:
    """Bilinear regrid of *var* onto *target* (mask-aware)."""
    source = _require_grid(var)
    periodic = source.is_global()
    with obs.span("regrid.bilinear", src=str(var.shape)) as _span:
        lat_matrix = _bilinear_matrix(source.latitude.values, target.latitude.values, periodic=False)
        lon_matrix = _bilinear_matrix(source.longitude.values, target.longitude.values, periodic=periodic)
        out = _apply_separable(var, target, lat_matrix, lon_matrix, weight_floor=1e-9)
        if obs.enabled():
            obs.counter("regrid.cells", int(np.prod(out.shape)))
            _span.set(dst=str(out.shape))
    return out


def regrid_conservative(var: Variable, target: RectilinearGrid) -> Variable:
    """First-order conservative regrid of *var* onto *target*.

    For global grids and unmasked data the area-weighted global mean is
    preserved to numerical precision.
    """
    source = _require_grid(var)
    periodic = source.is_global()
    with obs.span("regrid.conservative", src=str(var.shape)) as _span:
        lat_matrix = _overlap_matrix(
            source.latitude.gen_bounds(),
            target.latitude.gen_bounds(),
            transform=lambda x: np.sin(np.radians(x)),
        )
        lon_matrix = _overlap_matrix(
            source.longitude.gen_bounds(),
            target.longitude.gen_bounds(),
            periodic=periodic,
        )
        out = _apply_separable(
            var, target, lat_matrix, lon_matrix, weight_floor=_VALID_WEIGHT_FLOOR
        )
        if obs.enabled():
            obs.counter("regrid.cells", int(np.prod(out.shape)))
            _span.set(dst=str(out.shape))
    return out
