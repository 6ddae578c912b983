"""Statistical operations ("various statistical operations").

Weighted pattern statistics (correlation, covariance, RMS difference),
per-gridpoint temporal statistics (variance, trend, standardisation)
and percentiles — the workhorse comparisons a scientist runs before and
alongside the DV3D visual comparison plots (e.g. the isosurface-of-A-
colored-by-B plot pairs naturally with a pattern correlation of A and B).

The scalar pattern statistics run through the canonical row-fold kernel
(:class:`repro.cdat.slabkernels.ScalarStats`); per-point temporal
statistics fold the two-pass moment / trend-sum kernels along the slab
axis.  Either way, eager and streamed inputs share the code path and
produce byte-identical results.  Percentiles along the slab axis need
the full series per point and gather explicitly (observable as
``cdat.materialize``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.cdat.slabkernels import (
    ScalarStats,
    fold_moments,
    fold_trend_sums,
)
from repro.cdms.slabs import is_streamed, map_slabs, materialize, slab_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def _check_same_shape(a: Variable, b: Variable, op: str) -> None:
    if a.shape != b.shape:
        raise CDATError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def covariance(a: Variable, b: Variable) -> float:
    """Weighted covariance of two same-shape variables over valid points."""
    _check_same_shape(a, b, "covariance")
    return ScalarStats(a, b, op="covariance").covariance()


def variance(a: Variable, axis: Optional[str] = None) -> Union[Variable, float]:
    """Variance: scalar (weighted, all data) or along one named axis."""
    if axis is None:
        return ScalarStats(a, op="variance").variance_a()
    dim = a.axis_index(axis)
    out_id = f"var({a.id})"
    axes = tuple(ax for i, ax in enumerate(a.axes) if i != dim)
    if slab_axis(a) == dim:
        _counts, _mean, var_ma = fold_moments(a, dim, op="variance")
        if not axes:
            return float(var_ma)
        return Variable(var_ma, axes, id=out_id,
                        missing_value=a.missing_value, attributes=dict(a.attributes))
    return map_slabs(lambda s: _variance_eager(s, dim), a, id=out_id)


def _variance_eager(a: Variable, dim: int) -> Union[Variable, float]:
    data = np.ma.var(a.data, axis=dim)
    axes = tuple(ax for i, ax in enumerate(a.axes) if i != dim)
    if not axes:
        return float(data)
    return Variable(np.ma.asarray(data), axes, id=f"var({a.id})",
                    missing_value=a.missing_value, attributes=dict(a.attributes))


def correlation(a: Variable, b: Variable) -> float:
    """Weighted (pattern) correlation coefficient of two variables."""
    cov = covariance(a, b)
    va = ScalarStats(a, op="correlation.var").variance_a()
    vb = ScalarStats(b, op="correlation.var").variance_a()
    if va <= 0 or vb <= 0:
        raise CDATError("correlation undefined: zero variance")
    return float(cov / np.sqrt(va * vb))


def rms_difference(a: Variable, b: Variable) -> float:
    """Weighted root-mean-square difference of two variables."""
    _check_same_shape(a, b, "rms_difference")
    return ScalarStats(a, b, op="rms_difference").rms_difference()


def linear_trend(var: Variable, axis: str = "time") -> Tuple[Variable, Variable]:
    """Per-point least-squares ``(slope, intercept)`` along a named axis.

    Slopes are in data units per coordinate unit of the chosen axis
    (e.g. K per day for a "days since ..." time axis).  Points with
    fewer than two valid samples are masked.
    """
    dim = var.axis_index(axis)
    axes = tuple(ax for i, ax in enumerate(var.axes) if i != dim)
    if not axes:
        raise CDATError("linear_trend over the only axis yields scalars; keep ≥2 dims")
    t = var.get_axis(dim).values
    n, st, sy, stt, sty = fold_trend_sums(var, dim, t, op="linear_trend")
    denom = n * stt - st * st
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = (n * sty - st * sy) / denom
        intercept = (sy - slope * st) / n
    bad = (n < 2) | (np.abs(denom) < 1e-30)
    slope_ma = np.ma.MaskedArray(np.where(bad, 0.0, slope), mask=bad)
    inter_ma = np.ma.MaskedArray(np.where(bad, 0.0, intercept), mask=bad)
    mk = lambda arr, name: Variable(  # noqa: E731
        arr, axes, id=f"{name}({var.id})",
        missing_value=var.missing_value, attributes=dict(var.attributes),
    )
    return mk(slope_ma, "trend"), mk(inter_ma, "intercept")


def standardize(var: Variable, axis: str = "time") -> Variable:
    """Remove the mean and divide by the standard deviation along *axis*.

    Points whose standard deviation is zero are masked.  Along the slab
    axis this is two accumulator passes (mean, then squared deviations)
    plus a per-slab transform pass — three bounded-memory sweeps.  The
    two accumulator passes share one read of each chunk when the
    variable fits its streaming budget (:func:`fold_moments`); the
    transform pass reads the chunks again.
    """
    dim = var.axis_index(axis)
    out_id = f"std({var.id})"
    if slab_axis(var) == dim:
        _counts, mean, var_ma = fold_moments(var, dim, op="standardize")
        std = np.ma.sqrt(var_ma)
        keep_shape = tuple(
            1 if i == dim else n for i, n in enumerate(var.shape)
        )
        mean_k = mean.reshape(keep_shape)
        std_k = std.reshape(keep_shape)

        def transform(slab: Variable) -> Variable:
            with np.errstate(invalid="ignore", divide="ignore"):
                z = (slab.data - mean_k) / std_k
            z = np.ma.masked_invalid(z)
            return Variable(z, slab.axes, id=out_id,
                            missing_value=var.missing_value,
                            attributes=dict(var.attributes))

        return map_slabs(transform, var, id=out_id)
    return map_slabs(lambda s: _standardize_eager(s, dim), var, id=out_id)


def _standardize_eager(var: Variable, dim: int) -> Variable:
    mean = np.ma.mean(var.data, axis=dim, keepdims=True)
    std = np.ma.std(var.data, axis=dim, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (var.data - mean) / std
    z = np.ma.masked_invalid(z)
    return Variable(z, var.axes, id=f"std({var.id})",
                    missing_value=var.missing_value, attributes=dict(var.attributes))


def percentile(var: Variable, q: float = 50.0, axis: str = "time") -> Variable:
    """The *q*-th percentile along a named axis (masked points excluded).

    A percentile along the slab axis needs every point's full series at
    once, so a streamed input is gathered first — the documented
    (observable) exception to bounded-memory reduction.
    """
    if not 0.0 <= q <= 100.0:
        raise CDATError(f"percentile: q={q} out of [0, 100]")
    dim = var.axis_index(axis)
    if is_streamed(var) and slab_axis(var) == dim:
        var = materialize(var, op="percentile")
    return map_slabs(lambda s: _percentile_eager(s, q, dim), var, id=f"p{q:g}({var.id})")


def _percentile_eager(var: Variable, q: float, dim: int) -> Variable:
    filled = np.where(np.ma.getmaskarray(var.data), np.nan, np.asarray(var.data.filled(np.nan)))
    with np.errstate(all="ignore"):
        result = np.nanpercentile(filled, q, axis=dim)
    result = np.ma.masked_invalid(np.atleast_1d(result))
    axes = tuple(ax for i, ax in enumerate(var.axes) if i != dim)
    if not axes:
        from repro.cdms.axis import Axis
        axes = (Axis("scalar", [0.0]),)
        result = result.reshape(1)
    return Variable(result, axes, id=f"p{q:g}({var.id})",
                    missing_value=var.missing_value, attributes=dict(var.attributes))
