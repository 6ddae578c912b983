"""The fold kernels pinned to the formulation they replaced, bit for bit.

Eager == streamed digests run both sides through the same kernels, so
they cannot see a bit change both sides share.  These tests compare the
kernels with the old formulation instead, computed here:

* :func:`extend_sum` against one ``np.add.reduce`` over the accumulator
  stacked on the rows;
* :func:`fold_running_mean` against the whole-axis ``np.cumsum``;
* a production reduction's digest against one built from those
  references, so the pin holds on any CPU and numpy version.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cdat import statistics
from repro.cdat.averages import running_mean
from repro.cdat.slabkernels import extend_sum, fold_running_mean
from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.dataset import open_dataset
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
