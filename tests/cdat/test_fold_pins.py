"""The fold kernels pinned to the formulation they replaced, bit for bit.

Eager == streamed digests run both sides through the same kernels, so
they cannot see a bit change both sides share.  These tests compare the
kernels with the old formulation instead, computed here:

* :func:`extend_sum` against one ``np.add.reduce`` over the accumulator
  stacked on the rows;
* :func:`fold_running_mean` against the whole-axis ``np.cumsum``;
* a production reduction's digest against one built from those
  references, so the pin holds on any CPU and numpy version;
* the grouped folds (:func:`fold_group_stats`,
  :func:`fold_group_squared_deviations`) and :func:`anomalies` against
  the gather-then-reduce formulation: each slab's rows of a group taken
  by fancy indexing and reduced onto the accumulator in one call, and
  the anomalies subtracted per slab, then joined by ``map_slabs`` and
  ``np.ma.concatenate``.  These compare data bytes, whether the mask is
  ``nomask``, mask bytes, ``fill_value`` and dtype.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cache.keys import digest
from repro.cdat import statistics
from repro.cdat.averages import running_mean
from repro.cdat.climatology import anomalies
from repro.cdat.slabkernels import (
    extend_sum,
    fold_group_squared_deviations,
    fold_group_stats,
    fold_running_mean,
)
from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.dataset import open_dataset
from repro.cdms.slabs import map_slabs
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable

NTIME, NLEV, NLAT, NLON = 12, 3, 5, 7


def old_extend_sum(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.concatenate([acc[np.newaxis], rows], axis=0), axis=0)


def random_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Masked normals, filled with 0, over magnitudes wide enough to round."""
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    masked = np.ma.MaskedArray(data, mask=rng.random(shape) < 0.2)
    return np.asarray(masked.filled(0.0), dtype=np.float64)


@pytest.mark.parametrize("spatial", [(), (1,), (1, 1), (2,), (4, 5, 7), (2, 1, 3)])
@pytest.mark.parametrize("nrows", [1, 2, 5, 9, 17])
def test_extend_sum_matches_one_reduce(spatial, nrows):
    rng = np.random.default_rng(nrows * 100 + len(spatial))
    acc = random_rows(rng, spatial)
    rows = random_rows(rng, (nrows,) + spatial)
    assert extend_sum(acc, rows).tobytes() == old_extend_sum(acc, rows).tobytes()
    # chained over slabs, as the folds call it
    chained = acc
    for start in range(0, nrows, 2):
        chained = extend_sum(chained, rows[start : start + 2])
    expected = acc
    for start in range(0, nrows, 2):
        expected = old_extend_sum(expected, rows[start : start + 2])
    assert chained.tobytes() == expected.tobytes()


def test_extend_sum_with_no_rows_returns_the_accumulator():
    acc = np.arange(6.0)
    assert extend_sum(acc, np.empty((0, 6))) is acc


def make_variable(time_dim: int = 0, seed: int = 5) -> Variable:
    rng = np.random.default_rng(seed)
    shape = [NLEV, NLAT, NLON]
    shape.insert(time_dim, NTIME)
    data = np.ma.MaskedArray(rng.normal(280.0, 15.0, size=shape), mask=rng.random(shape) < 0.15)
    # one point masked at every step: its windows have no valid value
    point: list = [0, 0, 0]
    point.insert(time_dim, slice(None))
    data[tuple(point)] = np.ma.masked
    axes = [
        level_axis(np.linspace(1000.0, 200.0, NLEV).tolist()),
        uniform_latitude(NLAT),
        uniform_longitude(NLON),
    ]
    axes.insert(time_dim, time_axis(np.arange(NTIME) * 30.0, calendar="noleap"))
    return Variable(data, axes, id="ta", units="K")


def reference_running_mean(var: Variable, dim: int, window: int) -> np.ma.MaskedArray:
    """The whole-axis cumsum formulation; *dim* at axis 0, edges masked."""
    data = np.moveaxis(var.data, dim, 0)
    valid = (~np.ma.getmaskarray(data)).astype(np.float64)
    filled = np.asarray(data.filled(0.0), dtype=np.float64)
    zero = np.zeros((1,) + filled.shape[1:])
    csum = np.cumsum(np.concatenate([zero, filled]), axis=0)
    cvalid = np.cumsum(np.concatenate([zero, valid]), axis=0)
    n, half = filled.shape[0], window // 2
    out = np.zeros(filled.shape)
    mask = np.ones(filled.shape, dtype=bool)
    for lo in range(n - window + 1):
        core_valid = cvalid[lo + window] - cvalid[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            core = (csum[lo + window] - csum[lo]) / core_valid
        out[half + lo] = np.where(core_valid > 0, core, 0.0)
        mask[half + lo] = core_valid <= 0
    return np.ma.MaskedArray(out, mask=mask)


def reference_variance(var: Variable, dim: int) -> np.ma.MaskedArray:
    """Two-pass variance, each pass one ``np.add.reduce`` over the whole axis."""
    data = np.moveaxis(var.data, dim, 0)
    valid = ~np.ma.getmaskarray(data)
    filled = np.asarray(data.filled(0.0), dtype=np.float64)
    zero = np.zeros(filled.shape[1:])
    sums = old_extend_sum(zero, filled)
    counts = old_extend_sum(zero, valid.astype(np.float64))
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = np.where(counts > 0, (sums * 1.0) / counts, 0.0)
        d = np.where(valid, filled - mean, 0.0)
        values = old_extend_sum(zero, d * d) / counts
    return np.ma.MaskedArray(np.where(counts > 0, values, 0.0), mask=counts <= 0)


def sha(array: np.ma.MaskedArray) -> str:
    h = hashlib.sha256(np.ma.getdata(array).tobytes())
    h.update(np.ma.getmaskarray(array).tobytes())
    return h.hexdigest()


@pytest.fixture()
def streamed(tmp_path):
    """``streamed(time_dim, chunk_timesteps)`` → (eager variable, streamed twin)."""
    opened = []

    def open_twin(time_dim: int, chunk_timesteps: int):
        var = make_variable(time_dim)
        path = tmp_path / f"pins-{time_dim}-{chunk_timesteps}.cdz"
        write_cdz(path, [var], chunk_timesteps=chunk_timesteps)
        dataset = open_dataset(path, streaming="on")
        opened.append(dataset)
        return var, dataset.get_variable("ta")

    yield open_twin
    for dataset in opened:
        dataset.close()


@pytest.mark.parametrize("time_dim", [0, 1])
@pytest.mark.parametrize("chunk_timesteps", [1, 2, 5])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_fold_running_mean_matches_whole_axis_cumsum(streamed, time_dim, chunk_timesteps, window):
    eager, lazy = streamed(time_dim, chunk_timesteps)
    assert lazy.slab_count() == -(-NTIME // chunk_timesteps)
    expected = reference_running_mean(eager, time_dim, window)
    for var in (eager, lazy):
        got = fold_running_mean(var, time_dim, window)
        assert got.data.tobytes() == expected.data.tobytes()
        assert np.ma.getmaskarray(got).tobytes() == expected.mask.tobytes()


def test_fold_running_mean_of_a_series():
    """A 1-D input: each cumulative row is a scalar."""
    rng = np.random.default_rng(9)
    series = np.ma.MaskedArray(rng.normal(size=NTIME), mask=rng.random(NTIME) < 0.2)
    var = Variable(series, [time_axis(np.arange(NTIME) * 30.0)], id="s")
    got = fold_running_mean(var, 0, 5)
    expected = reference_running_mean(var, 0, 5)
    assert got.data.tobytes() == expected.data.tobytes()
    assert np.ma.getmaskarray(got).tobytes() == expected.mask.tobytes()


@pytest.mark.parametrize("chunk_timesteps", [1, 2, 5])
def test_production_reductions_digest_as_the_old_formulation(streamed, chunk_timesteps):
    eager, lazy = streamed(0, chunk_timesteps)
    ran = running_mean(lazy, "time", window=5)
    assert sha(ran.data) == sha(reference_running_mean(eager, 0, 5))
    spread = statistics.variance(lazy, "time")
    assert sha(spread.data) == sha(reference_variance(eager, 0))


# -- grouped folds and anomalies ----------------------------------------------

#: two years of mid-month steps: every month twice
NMONTHS = 24


def make_monthly(dtype: str, holes: bool, time_dim: int = 0) -> Variable:
    """Two years of a field; *holes* masks a whole step and a few points.

    Step 3 is fully masked, step 7 partly; one point is masked in both
    Junes, so its June mean has no valid value.  The other steps carry
    no mask, so a streamed chunk of them has ``nomask``.
    """
    rng = np.random.default_rng(21)
    shape = [NLEV, NLAT, NLON]
    shape.insert(time_dim, NMONTHS)
    data = np.ma.MaskedArray(rng.normal(280.0, 15.0, size=shape).astype(dtype))

    def at(step, *rest):
        index = list(rest)
        index.insert(time_dim, step)
        return tuple(index)

    if holes:
        data[at(3, slice(None), slice(None), slice(None))] = np.ma.masked
        data[at(7, 0, slice(0, 2), slice(None))] = np.ma.masked
        data[at(5, 0, 0, 0)] = np.ma.masked
        data[at(17, 0, 0, 0)] = np.ma.masked
    axes = [
        level_axis(np.linspace(1000.0, 200.0, NLEV).tolist()),
        uniform_latitude(NLAT),
        uniform_longitude(NLON),
    ]
    axes.insert(
        time_dim, time_axis(np.arange(NMONTHS) * (365.0 / 12) + 15.0, calendar="noleap")
    )
    return Variable(data, axes, id="ta", units="K")


def month_groups(var: Variable) -> np.ndarray:
    return np.array([c.month - 1 for c in var.get_time().as_component_time()])


def reference_group_fold(var, dim, group_of, n_groups, means=None):
    """Per-group sums and counts, or with *means* squared deviations.

    Each slab's rows of a group are gathered by fancy indexing and
    reduced onto the accumulator in one ``np.add.reduce``.
    """
    sums = counts = None
    if means is not None:
        mean0 = np.asarray(np.ma.filled(means, 0.0), dtype=np.float64)
    pos = 0
    for slab in var.iter_slabs():
        block = np.moveaxis(slab, dim, 0)
        if sums is None:
            sums = np.zeros((n_groups,) + block.shape[1:])
            counts = np.zeros((n_groups,) + block.shape[1:])
        valid = ~np.ma.getmaskarray(block)
        filled = np.asarray(block.filled(0.0), dtype=np.float64)
        local = group_of[pos : pos + block.shape[0]]
        for g in np.unique(local):
            if g < 0:
                continue
            rows = np.nonzero(local == g)[0]
            if means is None:
                sums[g] = old_extend_sum(sums[g], filled[rows])
                counts[g] = old_extend_sum(counts[g], valid[rows].astype(np.float64))
            else:
                d = np.where(valid[rows], filled[rows] - mean0[g], 0.0)
                sums[g] = old_extend_sum(sums[g], d * d)
        pos += block.shape[0]
    return sums, counts


def reference_means(sums, counts) -> np.ma.MaskedArray:
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = (sums * 1.0) / counts
    return np.ma.MaskedArray(np.where(counts > 0, mean, 0.0), mask=(counts <= 0))


def reference_anomalies(var: Variable) -> Variable:
    """Subtract per slab, then join with ``map_slabs``."""
    dim = var.axis_index("time")
    months = month_groups(var) + 1
    clim = reference_means(*reference_group_fold(var, dim, months - 1, 12))
    pos = 0

    def subtract(slab: Variable) -> Variable:
        nonlocal pos
        data = np.moveaxis(slab.data, dim, 0)
        k = data.shape[0]
        anom = data - clim[months[pos : pos + k] - 1]
        pos += k
        return Variable(
            np.moveaxis(anom, 0, dim), slab.axes, id=f"anom({var.id})",
            missing_value=var.missing_value, attributes=dict(var.attributes),
        )

    return map_slabs(subtract, var, id=f"anom({var.id})")


def bits(array) -> tuple:
    """Everything that identifies a result bit for bit."""
    array = np.ma.asarray(array)
    return (
        np.ma.getdata(array).tobytes(),
        np.ma.getmask(array) is np.ma.nomask,
        np.ma.getmaskarray(array).tobytes(),
        repr(array.fill_value),
        array.dtype.str,
        array.shape,
    )


@pytest.fixture()
def monthly(tmp_path):
    """``monthly(dtype, holes, time_dim, chunk_timesteps)`` → (eager, streamed)."""
    opened = []

    def open_twin(dtype: str, holes: bool, time_dim: int, chunk_timesteps: int):
        var = make_monthly(dtype, holes, time_dim)
        path = tmp_path / f"monthly-{dtype}-{holes}-{time_dim}-{chunk_timesteps}.cdz"
        write_cdz(path, [var], chunk_timesteps=chunk_timesteps)
        dataset = open_dataset(path, streaming="on")
        opened.append(dataset)
        return var, dataset.get_variable("ta")

    yield open_twin
    for dataset in opened:
        dataset.close()


GROUPED = pytest.mark.parametrize(
    "dtype,holes,time_dim",
    [("float64", True, 0), ("float32", True, 0), ("float64", False, 0), ("float64", True, 1)],
)


@GROUPED
@pytest.mark.parametrize("chunk_timesteps", [1, 2, 5])
def test_group_folds_match_the_gathered_reduce(monthly, dtype, holes, time_dim, chunk_timesteps):
    eager, lazy = monthly(dtype, holes, time_dim, chunk_timesteps)
    months = month_groups(eager)
    phases = np.where(months % 3 == 0, -1, months % 2)  # ungrouped rows, as composites
    for var in (eager, lazy):
        stats = fold_group_stats(var, time_dim, months, 12)
        sums, counts = reference_group_fold(var, time_dim, months, 12)
        assert set(stats) == {"sums", "counts"}
        assert bits(stats["sums"]) == bits(sums)
        assert bits(stats["counts"]) == bits(counts)

        sums, counts = reference_group_fold(var, time_dim, phases, 2)
        means = reference_means(sums, counts)
        ssq, _ = reference_group_fold(var, time_dim, phases, 2, means=means)
        got = fold_group_squared_deviations(var, time_dim, phases, means)
        assert bits(got) == bits(ssq)


@GROUPED
@pytest.mark.parametrize("chunk_timesteps", [1, 2, 5])
def test_anomalies_match_the_per_slab_concatenation(monthly, dtype, holes, time_dim, chunk_timesteps):
    eager, lazy = monthly(dtype, holes, time_dim, chunk_timesteps)
    for var in (eager, lazy):
        got, expected = anomalies(var), reference_anomalies(var)
        assert bits(got.data) == bits(expected.data)
        assert digest(got) == digest(expected)  # axes, id and attributes too
    # a streamed result with no masked value has nomask; the eager one a mask array
    assert (np.ma.getmask(anomalies(lazy).data) is np.ma.nomask) == (not holes)


@pytest.mark.parametrize("chunk_timesteps", [1, 5, NMONTHS])
def test_group_folds_of_a_series(tmp_path, chunk_timesteps):
    """A 1-D input: each accumulator is one element, reduced pairwise."""
    rng = np.random.default_rng(4)
    series = np.ma.MaskedArray(rng.normal(size=NMONTHS), mask=rng.random(NMONTHS) < 0.2)
    axis = time_axis(np.arange(NMONTHS) * (365.0 / 12) + 15.0, calendar="noleap")
    var = Variable(series, [axis], id="s")
    path = tmp_path / "series.cdz"
    write_cdz(path, [var], chunk_timesteps=chunk_timesteps)
    with open_dataset(path, streaming="on") as dataset:
        for each in (var, dataset.get_variable("s")):
            months = month_groups(each)
            stats = fold_group_stats(each, 0, months, 12)
            sums, counts = reference_group_fold(each, 0, months, 12)
            assert bits(stats["sums"]) == bits(sums)
            assert bits(stats["counts"]) == bits(counts)
            got, expected = anomalies(each), reference_anomalies(each)
            assert bits(got.data) == bits(expected.data)
