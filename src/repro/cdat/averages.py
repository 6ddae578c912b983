"""Weighted averages ("weighted averages" in the paper's CDAT list).

All horizontal averages are **area-weighted** using the spherical cell
weights from :class:`~repro.cdms.grid.RectilinearGrid`; axis averages
use the axis's own quadrature weights.  Masked points are excluded and
the weights renormalised over the valid points, matching CDAT's
``cdutil.averager`` semantics.

Every average consumes its input through the slab protocol
(:mod:`repro.cdms.slabs`): reductions *along* the slab axis fold the
accumulator kernels of :mod:`repro.cdat.slabkernels`; reductions over
other dimensions run per slab, each slab's rows written into one output
(each output row depends only on its own input row).  Eager and
streamed inputs take the same code path and produce byte-identical
results.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.cdat import slabkernels
from repro.cdms.slabs import is_streamed, map_slabs, materialize, slab_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def _finish_mean(
    var: Variable, drop_dims, num: np.ndarray, wsum: np.ndarray, out_id: str,
    all_masked_message: str,
) -> Union[Variable, float]:
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = num / wsum
    result = np.ma.MaskedArray(np.where(wsum > 0, mean, 0.0), mask=(wsum <= 0))
    axes = tuple(a for i, a in enumerate(var.axes) if i not in drop_dims)
    if not axes:
        if result.mask:
            raise CDATError(all_masked_message)
        return float(result)
    # CF: the output records the mean it is, after its input's methods
    name = "area" if len(drop_dims) == 2 else var.get_axis(drop_dims[0]).id
    methods = " ".join(filter(None, (var.attributes.get("cell_methods"), f"{name}: mean")))
    return Variable(
        result, axes, id=out_id, missing_value=var.missing_value,
        attributes={**var.attributes, "cell_methods": methods},
    )


def _weighted_mean_along(var: Variable, dim: int, weights: np.ndarray) -> Union[Variable, float]:
    """Weighted mean along one dimension, mask-aware, axes preserved."""
    out_id = f"mean[{var.get_axis(dim).id}]({var.id})"
    if slab_axis(var) == dim:
        num, wsum = slabkernels.fold_weighted_sums(
            var, dim, weights, op=f"mean[{var.get_axis(dim).id}]"
        )
        return _finish_mean(
            var, (dim,), num, wsum, out_id,
            f"variable {var.id!r}: all data masked in average",
        )
    return map_slabs(lambda s: _weighted_mean_eager(s, dim, weights), var, id=out_id)


def _weighted_mean_eager(var: Variable, dim: int, weights: np.ndarray) -> Union[Variable, float]:
    """One-slab weighted mean over a non-slab dimension.

    Per-slab application of this is byte-identical to the whole-array
    computation: each output element's reduction spans only its own
    slab-axis row.
    """
    data = var.data
    shape = [1] * var.ndim
    shape[dim] = len(weights)
    w = weights.reshape(shape)
    valid = ~np.ma.getmaskarray(data)
    wsum = np.sum(np.where(valid, w, 0.0), axis=dim)
    num = np.sum(np.where(valid, np.asarray(data.filled(0.0)) * w, 0.0), axis=dim)
    return _finish_mean(
        var, (dim,), num, wsum, f"mean[{var.get_axis(dim).id}]({var.id})",
        f"variable {var.id!r}: all data masked in average",
    )


def axis_average(var: Variable, axis: str = "time") -> Union[Variable, float]:
    """Weighted mean over one named axis (weights from the axis bounds)."""
    dim = var.axis_index(axis)
    weights = var.get_axis(dim).area_weights()
    return _weighted_mean_along(var, dim, weights)


def zonal_mean(var: Variable) -> Union[Variable, float]:
    """Mean over longitude (uniform weights along a longitude circle)."""
    return axis_average(var, "longitude")


def meridional_mean(var: Variable) -> Union[Variable, float]:
    """Area-weighted mean over latitude."""
    return axis_average(var, "latitude")


def area_average(var: Variable) -> Union[Variable, float]:
    """Area-weighted mean over latitude *and* longitude.

    The reduction is performed jointly (not sequentially) so that masked
    cells are weighted correctly: a sequential zonal-then-meridional
    mean over a masked field would weight latitude rows equally
    regardless of how many valid cells they contain.
    """
    grid = var.get_grid()
    if grid is None:
        raise CDATError(f"variable {var.id!r} has no lat/lon grid for area averaging")
    lat_dim = var.axis_index("latitude")
    lon_dim = var.axis_index("longitude")
    if is_streamed(var) and slab_axis(var) in (lat_dim, lon_dim):
        # chunked along a reduced dimension: gather (observable) first
        var = materialize(var, op="area_average")
    return map_slabs(_area_average_eager, var, id=f"areaavg({var.id})")


def _area_average_eager(var: Variable) -> Union[Variable, float]:
    grid = var.get_grid()
    lat_dim = var.axis_index("latitude")
    lon_dim = var.axis_index("longitude")
    weights2d = grid.area_weights()
    data = np.moveaxis(var.data, (lat_dim, lon_dim), (-2, -1))
    valid = ~np.ma.getmaskarray(data)
    w = np.broadcast_to(weights2d, data.shape)
    wsum = np.sum(np.where(valid, w, 0.0), axis=(-2, -1))
    num = np.sum(np.where(valid, np.asarray(data.filled(0.0)) * w, 0.0), axis=(-2, -1))
    return _finish_mean(
        var, (lat_dim, lon_dim), num, wsum, f"areaavg({var.id})",
        f"variable {var.id!r}: all data masked in area average",
    )


def running_mean(var: Variable, axis: str = "time", window: int = 3) -> Variable:
    """Centred running mean of odd *window* length along a named axis.

    Output has the same shape; the ``window // 2`` points at each end
    (where the window would run off the data) are masked.  Masked input
    points are excluded from each window's average.  Along the slab
    axis the windowed sums are carried across slab boundaries, so a
    streamed input never holds more than ``window + 1`` cumulative rows.
    """
    if window < 1 or window % 2 == 0:
        raise CDATError(f"running_mean: window must be odd and positive, got {window}")
    dim = var.axis_index(axis)
    n = var.shape[dim]
    if window > n:
        raise CDATError(f"running_mean: window {window} exceeds axis length {n}")
    out_id = f"runmean{window}({var.id})"
    if slab_axis(var) == dim:
        out = slabkernels.fold_running_mean(var, dim, window, op=f"runmean{window}")
        out = np.moveaxis(out, 0, dim)
        return Variable(
            out, var.axes, id=out_id,
            missing_value=var.missing_value, attributes=dict(var.attributes),
        )
    return map_slabs(lambda s: _running_mean_eager(s, dim, window), var, id=out_id)


def _running_mean_eager(var: Variable, dim: int, window: int) -> Variable:
    """One-slab running mean over a non-slab dimension (cumsum form)."""
    n = var.shape[dim]
    data = np.moveaxis(var.data, dim, 0)
    valid = (~np.ma.getmaskarray(data)).astype(np.float64)
    filled = np.asarray(data.filled(0.0))
    # cumulative sums give O(n) windowed sums (vectorized, no Python loop)
    csum = np.cumsum(np.concatenate([np.zeros_like(filled[:1]), filled]), axis=0)
    cvalid = np.cumsum(np.concatenate([np.zeros_like(valid[:1]), valid]), axis=0)
    half = window // 2
    core_sum = csum[window:] - csum[:-window]
    core_valid = cvalid[window:] - cvalid[:-window]
    with np.errstate(invalid="ignore", divide="ignore"):
        core = core_sum / core_valid
    out = np.ma.masked_all(data.shape, dtype=np.float64)
    body = np.ma.MaskedArray(np.where(core_valid > 0, core, 0.0), mask=(core_valid <= 0))
    out[half : n - half] = body
    out = np.moveaxis(out, 0, dim)
    return Variable(
        out, var.axes, id=f"runmean{window}({var.id})",
        missing_value=var.missing_value, attributes=dict(var.attributes),
    )
