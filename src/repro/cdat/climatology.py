"""Climatologies and anomalies.

The standard first steps of exploratory climate analysis: collapse a
time series to its mean annual cycle (monthly or seasonal climatology)
and subtract that cycle to obtain anomalies.  Month membership is
derived from the time axis's calendar-aware component times, so noleap
and 360-day model output group correctly.

All grouping runs through the group-by accumulator kernel
(:func:`repro.cdat.slabkernels.fold_group_stats`): month membership
needs only time-axis metadata, the payload streams through slab by
slab, and the per-group sum/count state is sized by the output (e.g.
12 maps for a monthly climatology) — so a climatology over a streamed
``.cdz`` container holds one chunk at a time while remaining
byte-identical to the eager computation.  Month membership is derived
once per call: :func:`anomalies` hands it to the climatology it
subtracts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cdat import slabkernels
from repro.cdms.axis import Axis
from repro.cdms.slabs import materialize
from repro.cdms.variable import Variable
from repro.util.errors import CDATError

SEASONS: Dict[str, Tuple[int, ...]] = {
    "DJF": (12, 1, 2),
    "MAM": (3, 4, 5),
    "JJA": (6, 7, 8),
    "SON": (9, 10, 11),
}


def _time_months_years(var: Variable) -> Tuple[int, np.ndarray, np.ndarray]:
    time_axis = var.get_time()
    if time_axis is None:
        raise CDATError(f"variable {var.id!r} has no time axis")
    comps = time_axis.as_component_time()
    months = np.array([c.month for c in comps], dtype=np.int64)
    years = np.array([c.year for c in comps], dtype=np.int64)
    return var.axis_index("time"), months, years


def _group_mean(
    var: Variable, dim: int, groups: List[np.ndarray], coords: List[float],
    axis_id: str, units: str,
) -> Variable:
    """Mean of *var* over each index group along *dim*; groups become a new axis."""
    group_of = slabkernels.group_membership(groups, var.shape[dim])
    stats = slabkernels.fold_group_stats(
        var, dim, group_of, len(groups), op=axis_id
    )
    stacked = slabkernels.group_means(stats["sums"], stats["counts"])
    stacked = np.moveaxis(stacked, 0, dim)
    group_axis = Axis(axis_id, coords, units=units)
    axes = list(var.axes)
    axes[dim] = group_axis
    return Variable(
        stacked, axes, id=f"{axis_id}({var.id})",
        missing_value=var.missing_value, attributes=dict(var.attributes),
    )


def monthly_climatology(var: Variable) -> Variable:
    """12-point mean annual cycle; output axis ``month`` has values 1..12."""
    dim, months, _years = _time_months_years(var)
    return _monthly_mean(var, dim, months)


def _monthly_mean(var: Variable, dim: int, months: np.ndarray) -> Variable:
    groups = [np.nonzero(months == m)[0] for m in range(1, 13)]
    return _group_mean(var, dim, groups, list(range(1, 13)), "month", "month of year")


def seasonal_climatology(var: Variable) -> Variable:
    """DJF/MAM/JJA/SON means; output axis ``season`` has values 1..4.

    The season order follows :data:`SEASONS` (DJF first).  December is
    grouped with the *following* January/February in the same calendar
    year bucket — adequate for climatological (multi-year mean) use.
    """
    dim, months, _years = _time_months_years(var)
    groups = [np.nonzero(np.isin(months, season))[0] for season in SEASONS.values()]
    out = _group_mean(var, dim, groups, [1.0, 2.0, 3.0, 4.0], "season", "season index")
    out.attributes["season_order"] = list(SEASONS)
    return out


def anomalies(var: Variable) -> Variable:
    """Departures from the monthly climatology, same shape as the input.

    The climatology accumulates in one streaming pass; the second pass
    subtracts each slab's months from it into one preallocated output.
    Its bits are those of subtracting per slab and joining the slabs
    with ``np.ma.concatenate``: a mask with no masked point is
    ``nomask`` and the fill value is numpy's default.  A one-slab input
    returns its one difference as it is.
    """
    dim, months, _years = _time_months_years(var)
    if var.slab_count() > 1 and var.slab_axis() != dim:
        var = materialize(var, op="anomalies")
    clim_data = np.moveaxis(_monthly_mean(var, dim, months).data, dim, 0)  # (12, ...)
    out = mask = None
    where = [slice(None)] * var.ndim
    pos = 0
    for slab in var.iter_slabs():
        block = np.moveaxis(slab, dim, 0)
        k = block.shape[0]
        anom = np.moveaxis(block - clim_data[months[pos : pos + k] - 1], 0, dim)
        if k == var.shape[dim]:
            data = anom
            break
        if out is None:
            out = np.empty(var.shape, dtype=anom.dtype)
            mask = np.zeros(var.shape, dtype=bool)
        where[dim] = slice(pos, pos + k)
        out[tuple(where)] = np.ma.getdata(anom)
        mask[tuple(where)] = np.ma.getmaskarray(anom)
        pos += k
    else:
        data = np.ma.MaskedArray(out, mask=mask if mask.any() else np.ma.nomask)
    return Variable(
        data, var.axes, id=f"anom({var.id})",
        missing_value=var.missing_value, attributes=dict(var.attributes),
    )


def annual_mean(var: Variable) -> Variable:
    """Per-calendar-year time means; output axis ``year`` holds the years."""
    dim, _months, years = _time_months_years(var)
    unique_years = np.unique(years)
    groups = [np.nonzero(years == y)[0] for y in unique_years]
    return _group_mean(var, dim, groups, [float(y) for y in unique_years], "year", "year")
