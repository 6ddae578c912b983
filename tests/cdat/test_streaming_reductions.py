"""Differential byte-identity suite for out-of-core reductions.

Every registered (non-arithmetic) operation runs twice over the same
saved v2 container — once on the eagerly loaded variable, once on the
lazy streaming twin — and the results must digest identically
(:func:`repro.cache.keys.digest` hashes filled payload bytes, mask
bytes, axes and metadata, so equal digests mean byte-identical
results).  A coverage guard fails the suite when a newly registered
operation has no differential case.

Edge cases ride alongside: a masked region, a fully masked time step,
a single-timestep container, an all-masked variable, and running means
whose windows straddle slab seams.  The capstone pins the memory side:
a monthly climatology over a container ~4x the streaming budget
completes under budget without ever materializing the input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cache.keys import digest
from repro.cdat.registry import default_registry
from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.streaming.config import StreamingConfig
from repro.util.errors import CDATError

NTIME, NLEV, NLAT, NLON = 24, 4, 6, 8

#: registry entries that are elementwise arithmetic, not reductions —
#: exempt from the differential sweep
ARITHMETIC = {
    "add", "subtract", "multiply", "divide", "power", "sqrt", "log",
    "exp", "abs", "scale", "offset",
}


def make_fields(ntime=NTIME, nlev=NLEV, nlat=NLAT, nlon=NLON, seed=3, mask="region"):
    """Two same-shape (time, lev, lat, lon) fields with controlled masking."""
    rng = np.random.default_rng(seed)
    axes = (
        time_axis(np.arange(ntime) * (365.0 / 12) + 15.0, calendar="noleap"),
        level_axis(np.linspace(1000.0, 250.0, nlev).tolist()),
        uniform_latitude(nlat),
        uniform_longitude(nlon),
    )

    def field(var_id, offset):
        data = np.ma.MaskedArray(
            rng.normal(280.0 + offset, 10.0, size=(ntime, nlev, nlat, nlon))
        )
        if mask == "region":
            data[1, 0, :2, :3] = np.ma.masked
            data[ntime - 2, nlev - 1, nlat - 1, :] = np.ma.masked
        elif mask == "step":
            data[2] = np.ma.masked  # one fully masked time step
        elif mask == "all":
            data[:] = np.ma.masked
        return Variable(data, axes, id=var_id, units="K")

    return field("ta", 0.0), field("tb", 5.0)


@pytest.fixture()
def open_planes(tmp_path):
    """``open_planes(variables, chunk_timesteps)``: save once, open twice.

    Returns (eager dataset, lazy streaming dataset); both are closed
    when the test ends.
    """
    opened = []

    def open_both(variables, chunk_timesteps=None):
        path = tmp_path / f"redux-{len(opened)}.cdz"
        write_cdz(
            path, list(variables), dataset_id="redux", version=2,
            chunk_timesteps=chunk_timesteps,
        )
        both = open_dataset(path, streaming="off"), open_dataset(path, streaming="on")
        opened.extend(both)
        return both

    yield open_both
    for dataset in opened:
        dataset.close()


#: operation name -> (extra kwargs, condition needed as trailing arg)
CASES = {
    "area_average": ({}, False),
    "zonal_mean": ({}, False),
    "meridional_mean": ({}, False),
    "axis_average": ({"axis": "time"}, False),
    "running_mean": ({"axis": "time", "window": 5}, False),
    "monthly_climatology": ({}, False),
    "seasonal_climatology": ({}, False),
    "anomalies": ({}, False),
    "annual_mean": ({}, False),
    "correlation": ({}, False),
    "covariance": ({}, False),
    "rms_difference": ({}, False),
    "linear_trend": ({"axis": "time"}, False),
    "standardize": ({"axis": "time"}, False),
    "variance": ({"axis": "time"}, False),
    "percentile": ({"q": 75.0, "axis": "time"}, False),
    "mask_where": ({}, False),
    "compare_where": ({}, True),
    "pressure_weighted_mean": ({}, False),
    "interpolate_to_level": ({"level": 500.0}, False),
    "vertical_integral": ({}, False),
    "spatial_smooth": ({"sigma_points": 1.0}, False),
    "detrend": ({"axis": "time"}, False),
    "bandpass": ({"short_window": 3, "long_window": 7}, False),
}


def test_every_registered_reduction_has_a_case():
    names = set(default_registry().names()) - ARITHMETIC
    missing = names - set(CASES)
    assert not missing, f"reductions without a differential case: {sorted(missing)}"


def run_case(name, dataset):
    reg = default_registry()
    op = reg.get(name)
    ta = dataset.get_variable("ta")
    args = [ta]
    if op.n_variables >= 2:
        if name in ("mask_where",):
            # the condition is a (tiny to build) eager truth variable
            args.append(_condition(dataset))
        else:
            args.append(dataset.get_variable("tb"))
    kwargs, wants_condition = CASES[name]
    if wants_condition:
        args.append(_condition(dataset))
    return reg.apply(name, *args, **kwargs)


def _condition(dataset):
    # an eager condition shared by both planes: warm in the first field
    eager = dataset.get_variable("ta")
    truth = (np.arange(NTIME * NLEV * NLAT * NLON) % 3 == 0).astype(np.float64)
    return Variable(
        truth.reshape(NTIME, NLEV, NLAT, NLON), eager.axes, id="cond"
    )


@pytest.fixture()
def planes(open_planes):
    return open_planes(make_fields(), chunk_timesteps=5)


@pytest.mark.parametrize("name", sorted(CASES))
def test_reduction_byte_identical_eager_vs_streamed(name, planes):
    eager_ds, lazy_ds = planes
    obs.set_recorder(obs.Recorder())
    obs.enable()
    try:
        expected = run_case(name, eager_ds)
        streamed = run_case(name, lazy_ds)
        recorder = obs.get_recorder()
        full = recorder.counter_total("streaming.materialize.full")
        gathered = recorder.counter_total("cdat.materialize")
    finally:
        obs.disable()
        obs.set_recorder(obs.Recorder())
    assert digest(expected) == digest(streamed)
    # no reduction may fall through the whole-array escape hatch; the
    # explicit gathers (percentile) go through the counted materialize()
    assert full == 0, f"{name} materialized a streamed input via ._data"
    # an operation registered as streaming never gathers its input
    if default_registry().get(name).streaming:
        assert gathered == 0, f"{name} is registered streaming but gathered"


#: operation name -> kwargs reducing or mapping along a dimension that
#: is not the slab (time) axis, so the streamed input maps slab by slab
NON_SLAB_AXIS_CASES = {
    "variance": {"axis": "longitude"},
    "standardize": {"axis": "latitude"},
    "percentile": {"q": 75.0, "axis": "latitude"},
    "axis_average": {"axis": "longitude"},
    "running_mean": {"axis": "longitude", "window": 3},
}


@pytest.mark.parametrize("name", sorted(NON_SLAB_AXIS_CASES))
def test_non_slab_axis_map_byte_identical_eager_vs_streamed(name, planes):
    eager_ds, lazy_ds = planes
    reg = default_registry()
    kwargs = NON_SLAB_AXIS_CASES[name]
    lazy_ta = lazy_ds.get_variable("ta")
    assert lazy_ta.slab_count() > 1
    expected = reg.apply(name, eager_ds.get_variable("ta"), **kwargs)
    streamed = reg.apply(name, lazy_ta, **kwargs)
    assert digest(expected) == digest(streamed)


def test_kernel_reductions_account_slabs_and_peak_resident(planes):
    _eager_ds, lazy_ds = planes
    obs.set_recorder(obs.Recorder())
    obs.enable()
    try:
        run_case("monthly_climatology", lazy_ds)
        run_case("variance", lazy_ds)
        recorder = obs.get_recorder()
        slabs = recorder.counter_total("cdat.slabs")
        peaks = [
            v for k, v in recorder.gauges.items()
            if k.name == "cdat.peak_resident.bytes"
        ]
    finally:
        obs.disable()
        obs.set_recorder(obs.Recorder())
    assert slabs >= lazy_ds.get_variable("ta").slab_count()
    assert peaks and all(v > 0 for v in peaks)


# -- edge cases --------------------------------------------------------------


EDGE_OPS = (
    "monthly_climatology", "annual_mean", "running_mean", "zonal_mean",
    "variance", "linear_trend", "standardize",
)


@pytest.mark.parametrize("name", EDGE_OPS)
def test_fully_masked_time_step_matches(open_planes, name):
    eager_ds, lazy_ds = open_planes(
        make_fields(mask="step"), chunk_timesteps=5
    )
    assert digest(run_case(name, eager_ds)) == digest(run_case(name, lazy_ds))


def test_all_masked_variable_matches_or_raises_identically(open_planes):
    eager_ds, lazy_ds = open_planes(
        make_fields(mask="all"), chunk_timesteps=5
    )
    # per-point reductions produce identically all-masked outputs
    assert digest(run_case("zonal_mean", eager_ds)) == digest(
        run_case("zonal_mean", lazy_ds)
    )
    # scalar statistics refuse on both planes with the same error
    for ds in (eager_ds, lazy_ds):
        with pytest.raises(CDATError):
            run_case("covariance", ds)


def test_single_timestep_container_matches(open_planes):
    eager_ds, lazy_ds = open_planes(
        make_fields(ntime=1, mask="none"), chunk_timesteps=1
    )
    for name in ("monthly_climatology", "annual_mean", "zonal_mean",
                 "vertical_integral"):
        assert digest(run_case(name, eager_ds)) == digest(run_case(name, lazy_ds))
    # a 1-step running mean is the identity and must survive streaming
    reg = default_registry()
    e = reg.apply("running_mean", eager_ds.get_variable("ta"), window=1)
    s = reg.apply("running_mean", lazy_ds.get_variable("ta"), window=1)
    assert digest(e) == digest(s)


@pytest.mark.parametrize("chunk_timesteps,window", [(2, 5), (3, 7), (5, 11)])
def test_running_mean_windows_straddle_slab_seams(open_planes, chunk_timesteps, window):
    """The carry across slab boundaries reproduces the eager cumsum exactly."""
    eager_ds, lazy_ds = open_planes(
        make_fields(), chunk_timesteps=chunk_timesteps
    )
    reg = default_registry()
    lazy_ta = lazy_ds.get_variable("ta")
    assert lazy_ta.slab_count() > window // chunk_timesteps  # seams exist
    e = reg.apply("running_mean", eager_ds.get_variable("ta"), window=window)
    s = reg.apply("running_mean", lazy_ta, window=window)
    assert digest(e) == digest(s)


# -- the memory capstone -----------------------------------------------------


def test_monthly_climatology_under_budget_on_4x_dataset(tmp_path):
    """The whole fold — one chunk plus the 12 months' sums and counts —
    stays within a budget of a quarter of the dataset.

    Ten years of steps, so that the accumulators (24 steps' worth) fit a
    budget of a quarter of the steps with a chunk to spare.
    """
    path = tmp_path / "big.cdz"
    ta, _tb = make_fields(ntime=120, nlev=4, nlat=10, nlon=16)
    write_cdz(path, [ta], dataset_id="big", version=2, chunk_timesteps=2)

    probe = open_dataset(path, streaming="on")
    layout = probe.streaming_source.layout("ta")
    dataset_bytes = layout.total_nbytes()
    budget = max(layout.max_chunk_nbytes(), dataset_bytes // 4)
    probe.close()
    assert dataset_bytes >= 4 * layout.max_chunk_nbytes()

    eager = open_dataset(path, streaming="off").get_variable("ta")
    expected = default_registry().apply("monthly_climatology", eager)

    config = StreamingConfig(memory_budget_bytes=budget)
    obs.set_recorder(obs.Recorder())
    obs.enable()
    try:
        with open_dataset(path, streaming="on", streaming_config=config) as ds:
            streamed = default_registry().apply(
                "monthly_climatology", ds.get_variable("ta")
            )
        recorder = obs.get_recorder()
        peaks = [
            v for k, v in recorder.gauges.items()
            if k.name == "cdat.peak_resident.bytes"
        ]
        full = recorder.counter_total("streaming.materialize.full")
    finally:
        obs.disable()
        obs.set_recorder(obs.Recorder())
    assert peaks and 0 < max(peaks) <= budget
    assert full == 0
    assert digest(expected) == digest(streamed)


@pytest.mark.parametrize("name", ["variance", "standardize"])
def test_two_pass_folds_under_budget_on_4x_dataset(tmp_path, name):
    """A two-pass fold over a container four times its budget keeps no
    blocks for its second pass: it stays within the budget, reads each
    chunk again and never materializes the input."""
    path = tmp_path / "big.cdz"
    ta, _tb = make_fields(ntime=120, nlev=4, nlat=10, nlon=16)
    write_cdz(path, [ta], dataset_id="big", version=2, chunk_timesteps=2)

    with open_dataset(path, streaming="on") as probe:
        layout = probe.streaming_source.layout("ta")
    budget = max(layout.max_chunk_nbytes(), layout.total_nbytes() // 4)
    assert layout.total_nbytes() >= 4 * layout.max_chunk_nbytes()

    eager = open_dataset(path, streaming="off").get_variable("ta")
    expected = default_registry().apply(name, eager, axis="time")

    config = StreamingConfig(memory_budget_bytes=budget)
    obs.set_recorder(obs.Recorder())
    obs.enable()
    try:
        with open_dataset(path, streaming="on", streaming_config=config) as ds:
            streamed = default_registry().apply(name, ds.get_variable("ta"), axis="time")
        recorder = obs.get_recorder()
        peaks = [
            v for k, v in recorder.gauges.items()
            if k.name == "cdat.peak_resident.bytes"
        ]
        full = recorder.counter_total("streaming.materialize.full")
    finally:
        obs.disable()
        obs.set_recorder(obs.Recorder())
    assert peaks and 0 < max(peaks) <= budget
    assert full == 0
    assert digest(expected) == digest(streamed)
