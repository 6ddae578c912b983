"""Composite analysis: condition a field on the phases of an index.

The standard exploratory question — "what does the field look like when
the index is high vs low?" — implemented as conditional time means with
a Welch t-statistic marking where the difference is distinguishable
from noise.  This pairs naturally with the DV3D comparison plots (view
the composite difference with a slicer, mask it by significance with a
conditioned comparison).

The field never has to fit in memory: phase membership is decided from
the (tiny, 1-D) index series, the per-phase means accumulate through
the group-by kernel, and the Welch statistic is computed from streamed
sufficient statistics (per-point n, mean and variance of each phase)
rather than from gathered samples.  The variance pass replays the
blocks the mean pass read when the field fits its streaming budget
(:class:`~repro.cdat.slabkernels.BlockPasses`), so a chunk is read
once; a field over budget is read twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.cdat.slabkernels import (
    BlockPasses,
    fold_group_squared_deviations,
    fold_group_stats,
    group_means,
)
from repro.cdms.slabs import materialize
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


@dataclass
class CompositeResult:
    """High/low composites, their difference, and significance."""

    high: Variable
    low: Variable
    difference: Variable
    t_statistic: Variable
    p_value: Variable
    n_high: int
    n_low: int

    def significant_difference(self, alpha: float = 0.05) -> Variable:
        """The difference masked where p ≥ alpha."""
        from repro.cdat.conditioned import mask_where

        insignificant = Variable(
            (np.asarray(self.p_value.data.filled(1.0)) >= alpha).astype(np.float64),
            self.p_value.axes, id="insig",
        )
        return mask_where(self.difference, insignificant)


def _welch_from_moments(
    m0: np.ma.MaskedArray, m1: np.ma.MaskedArray,
    v0: np.ndarray, v1: np.ndarray,
    n0: np.ndarray, n1: np.ndarray,
):
    """Welch t and two-sided p from per-phase sufficient statistics.

    ``2·stdtr(df, −|t|)`` is the two-sided Student-t p-value: ``stdtr``
    is the t CDF, so ``stdtr(df, −|t|)`` is the upper tail ``P(T > |t|)``
    — the very call ``scipy.stats.t.sf`` makes, without importing
    ``scipy.stats``.  Points with too few samples or a non-finite
    statistic (``bad``) come back masked.
    """
    with np.errstate(all="ignore"):
        se0 = v0 / n0
        se1 = v1 / n1
        se2 = se0 + se1
        t_stat = (np.ma.filled(m0, np.nan) - np.ma.filled(m1, np.nan)) / np.sqrt(se2)
        df = se2 * se2 / (se0 * se0 / (n0 - 1.0) + se1 * se1 / (n1 - 1.0))
        bad = (n0 < 2) | (n1 < 2) | ~np.isfinite(t_stat) | ~np.isfinite(df)
        t_stat = np.where(bad, np.nan, t_stat)
        df = np.where(bad, 1.0, df)
        p_val = 2.0 * special.stdtr(df, -np.abs(t_stat))
        p_val = np.where(bad, np.nan, p_val)
    return np.ma.masked_invalid(t_stat), np.ma.masked_invalid(p_val)


def composite_analysis(
    field: Variable,
    index: Variable,
    high_quantile: float = 0.75,
    low_quantile: float = 0.25,
) -> CompositeResult:
    """Composite *field* over high/low phases of a 1-D time *index*.

    Parameters
    ----------
    field:
        Any variable with a time axis.
    index:
        A 1-D time series on the same time axis (e.g. a principal
        component from :func:`repro.cdat.eof.eof_analysis`).
    high_quantile, low_quantile:
        Phase thresholds on the index distribution.
    """
    field_time = field.get_time()
    index_time = index.get_time()
    if field_time is None or index_time is None:
        raise CDATError("composite_analysis: both inputs need time axes")
    index = materialize(index, op="composite_index")  # 1-D: always tiny
    if index.ndim != 1:
        index = index.squeeze()
        if index.ndim != 1:
            raise CDATError("index must be (or squeeze to) a 1-D time series")
    if len(index_time) != len(field_time):
        raise CDATError(
            f"time length mismatch: field {len(field_time)} vs index {len(index_time)}"
        )
    if not 0.0 < low_quantile < high_quantile < 1.0:
        raise CDATError("need 0 < low_quantile < high_quantile < 1")

    series = np.asarray(index.data.filled(np.nan))
    finite = np.isfinite(series)
    if finite.sum() < 4:
        raise CDATError("index has too few valid time steps")
    hi_threshold = np.nanquantile(series, high_quantile)
    lo_threshold = np.nanquantile(series, low_quantile)
    high_steps = np.nonzero(finite & (series >= hi_threshold))[0]
    low_steps = np.nonzero(finite & (series <= lo_threshold))[0]
    if high_steps.size < 2 or low_steps.size < 2:
        raise CDATError("too few events in a composite phase (need >= 2 each)")

    t_dim = field.axis_index("time")
    spatial_axes = tuple(a for i, a in enumerate(field.axes) if i != t_dim)

    # phase membership along time → two accumulator passes over one read
    group_of = np.full(field.shape[t_dim], -1, dtype=np.int64)
    group_of[high_steps] = 0
    group_of[low_steps] = 1
    # two phases' sums, counts and squared deviations
    passes = BlockPasses(field, t_dim, accumulators=6)
    phase_stats = fold_group_stats(
        field, t_dim, group_of, 2, op="composite", passes=passes
    )
    means = group_means(phase_stats["sums"], phase_stats["counts"])
    high_mean = means[0]
    low_mean = means[1]
    difference = high_mean - low_mean

    ssq = fold_group_squared_deviations(
        field, t_dim, group_of, means, op="composite.ssq", passes=passes
    )
    del passes  # the kept blocks go before the Welch statistics
    counts = phase_stats["counts"]
    with np.errstate(all="ignore"):
        v0 = ssq[0] / (counts[0] - 1.0)  # ddof=1 per-phase variance
        v1 = ssq[1] / (counts[1] - 1.0)
    t_ma, p_ma = _welch_from_moments(
        high_mean, low_mean, v0, v1, counts[0], counts[1]
    )

    def wrap(arr, name, units=field.units) -> Variable:
        return Variable(
            np.ma.asarray(arr), spatial_axes, id=f"{name}({field.id})",
            missing_value=field.missing_value, attributes={"units": units},
        )

    return CompositeResult(
        high=wrap(high_mean, "composite_high"),
        low=wrap(low_mean, "composite_low"),
        difference=wrap(difference, "composite_diff"),
        t_statistic=wrap(t_ma, "t", units="1"),
        p_value=wrap(p_ma, "p", units="1"),
        n_high=int(high_steps.size),
        n_low=int(low_steps.size),
    )
