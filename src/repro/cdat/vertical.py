"""Vertical (level-axis) operations.

DV3D's 3-D plots put pressure level (or height) on the vertical axis;
the companion analysis operations reduce or resample that axis:
mass-weighted vertical means, interpolation to a single level (the 2-D
map a slicer shows), and vertical integrals.
"""

from __future__ import annotations

import numpy as np

from repro.cdms.slabs import is_streamed, map_slabs, materialize, slab_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def _level_dim(var: Variable) -> int:
    for i, axis in enumerate(var.axes):
        if axis.designation() == "level":
            return i
    raise CDATError(f"variable {var.id!r} has no level axis")


def _per_slab(var: Variable, dim: int, fn, op: str):
    """Run a level-axis reduction per slab (level reductions are
    independent per time step, so mapping over slabs is byte-identical)."""
    if is_streamed(var) and slab_axis(var) == dim:
        var = materialize(var, op=op)
    return map_slabs(fn, var)


def pressure_weighted_mean(var: Variable) -> Variable:
    """Mass-weighted mean over the level axis (weights ∝ layer thickness).

    For a pressure axis the layer-thickness weights are proportional to
    |Δp|, i.e. to the mass of each layer.
    """
    dim = _level_dim(var)
    return _per_slab(var, dim, _pressure_weighted_mean_eager, "pressure_weighted_mean")


def _pressure_weighted_mean_eager(var: Variable) -> Variable:
    dim = _level_dim(var)
    weights = var.get_axis(dim).cell_widths()
    weights = weights / weights.sum()
    data = np.moveaxis(var.data, dim, 0)
    valid = (~np.ma.getmaskarray(data)).astype(np.float64)
    w = weights.reshape((-1,) + (1,) * (data.ndim - 1))
    wsum = (valid * w).sum(axis=0)
    num = (np.asarray(data.filled(0.0)) * valid * w).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = num / wsum
    result = np.ma.MaskedArray(np.where(wsum > 0, mean, 0.0), mask=(wsum <= 0))
    axes = tuple(a for i, a in enumerate(var.axes) if i != dim)
    if not axes:
        raise CDATError("pressure_weighted_mean over the only axis; need ≥2 dims")
    return Variable(result, axes, id=f"pwm({var.id})",
                    missing_value=var.missing_value, attributes=dict(var.attributes))


def interpolate_to_level(var: Variable, level: float = 500.0) -> Variable:
    """Linearly interpolate to one vertical coordinate value.

    The level axis is consumed; the result has one fewer dimension.
    Requesting a level outside the axis range raises.
    """
    dim = _level_dim(var)
    return _per_slab(
        var, dim, lambda s: _interpolate_to_level_eager(s, level), "interpolate_to_level"
    )


def _interpolate_to_level_eager(var: Variable, level: float) -> Variable:
    dim = _level_dim(var)
    axis = var.get_axis(dim)
    values = axis.values
    lo, hi = float(values.min()), float(values.max())
    if not lo <= level <= hi:
        raise CDATError(f"level {level} outside axis range [{lo}, {hi}]")
    data = np.moveaxis(var.filled(np.nan), dim, 0)
    # locate bracketing indices in (possibly decreasing) coordinates
    order = np.argsort(values)
    sorted_vals = values[order]
    j = int(np.searchsorted(sorted_vals, level, side="left"))
    j = min(max(j, 1), len(sorted_vals) - 1)
    i0, i1 = int(order[j - 1]), int(order[j])
    v0, v1 = float(values[i0]), float(values[i1])
    frac = 0.0 if v1 == v0 else (level - v0) / (v1 - v0)
    plane = data[i0] * (1.0 - frac) + data[i1] * frac
    result = np.ma.masked_invalid(plane)
    axes = tuple(a for i, a in enumerate(var.axes) if i != dim)
    if not axes:
        raise CDATError("interpolate_to_level over the only axis; need ≥2 dims")
    return Variable(result, axes, id=f"{var.id}@{level:g}",
                    missing_value=var.missing_value, attributes=dict(var.attributes))


def vertical_integral(var: Variable) -> Variable:
    """Trapezoid-free integral Σ value·|Δlevel| over the level axis.

    Units become ``<data units> * <level units>`` conceptually; the
    attribute is annotated rather than parsed.
    """
    dim = _level_dim(var)
    return _per_slab(var, dim, _vertical_integral_eager, "vertical_integral")


def _vertical_integral_eager(var: Variable) -> Variable:
    dim = _level_dim(var)
    thickness = var.get_axis(dim).cell_widths()
    data = np.moveaxis(var.data, dim, 0)
    w = thickness.reshape((-1,) + (1,) * (data.ndim - 1))
    valid = ~np.ma.getmaskarray(data)
    total = (np.asarray(data.filled(0.0)) * valid * w).sum(axis=0)
    any_valid = valid.any(axis=0)
    result = np.ma.MaskedArray(total, mask=~any_valid)
    axes = tuple(a for i, a in enumerate(var.axes) if i != dim)
    if not axes:
        raise CDATError("vertical_integral over the only axis; need ≥2 dims")
    attrs = dict(var.attributes)
    attrs["integrated_over"] = var.get_axis(dim).id
    return Variable(result, axes, id=f"vint({var.id})",
                    missing_value=var.missing_value, attributes=attrs)
