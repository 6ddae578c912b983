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
byte-identical to the eager computation.  :func:`anomalies` reads each
chunk once: the climatology pass also copies the series into the
output, which already has to hold all of it, and the climatology is
subtracted there in place.
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

    One read of the input.  A streamed input's climatology pass writes
    each slab into the preallocated output as it folds it; the
    climatology is then subtracted in place, one row at a time, so no
    series-sized temporary appears and nothing else is kept.  The bits
    are those of subtracting per slab with ``np.ma`` and joining the
    slabs with ``np.ma.concatenate``: a masked point keeps the input's
    data, a mask with no masked point is ``nomask`` and the fill value
    is numpy's default.  A one-slab input returns its one ``np.ma``
    difference as it is.
    """
    dim, months, _years = _time_months_years(var)
    if var.slab_count() > 1 and var.slab_axis() != dim:
        var = materialize(var, op="anomalies")
    copy_to = None
    if var.slab_count() > 1:
        out = np.empty(var.shape, dtype=np.result_type(var.dtype, np.float64))
        mask = np.zeros(var.shape, dtype=bool)
        copy_to = (np.moveaxis(out, dim, 0), np.moveaxis(mask, dim, 0))
    stats = slabkernels.fold_group_stats(
        var, dim, months - 1, 12, op="month", copy_to=copy_to
    )
    sums, counts = stats["sums"], stats["counts"]  # (12, ...)
    if copy_to is None:
        clim = slabkernels.group_means(sums, counts)
        (slab,) = var.iter_slabs()
        anom = np.moveaxis(slab, dim, 0) - clim[months - 1]
        data = np.moveaxis(anom, 0, dim)
    else:
        rows, row_masks = copy_to
        for month in range(12):
            # one month's mean at a time: no 12-map temporaries beside the output
            clim = slabkernels.group_means(sums[month : month + 1], counts[month : month + 1])
            clim_data, clim_mask = np.ma.getdata(clim)[0], np.ma.getmaskarray(clim)[0]
            for t in np.nonzero(months == month + 1)[0]:
                row, row_mask = rows[t : t + 1], row_masks[t : t + 1]  # views, also in 1-D
                row_mask |= clim_mask
                np.subtract(row, clim_data, out=row, where=~row_mask)
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
