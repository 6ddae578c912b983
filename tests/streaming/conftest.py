"""Fixtures for the out-of-core streaming suite.

Every test gets a pristine fault registry and a disabled recorder.
``v2_path`` is :func:`make_variable` written by today's writer;
``v1_path`` is the same variable as the parent of PR 19 — the last
commit with a v1 writer — wrote it once (``tests/cdms/data``), so
differential assertions always have a legacy twin to compare against.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cdms.axis import level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.resilience import faults


#: ``make_variable()`` (defaults, seed 11) in the read-only v1 format
LEGACY_V1 = Path(__file__).resolve().parents[1] / "cdms" / "data" / "legacy_v1.cdz"


@pytest.fixture(autouse=True)
def clean_faults_and_obs():
    faults.disarm()
    obs.set_recorder(obs.Recorder())
    yield
    faults.disarm()
    if obs.enabled():
        obs.disable()
    obs.set_recorder(obs.Recorder())


def make_variable(
    ntime: int = 8,
    nlev: int = 4,
    nlat: int = 10,
    nlon: int = 14,
    var_id: str = "ta",
    seed: int = 11,
    masked: bool = True,
) -> Variable:
    rng = np.random.default_rng(seed)
    data = np.ma.MaskedArray(rng.normal(280.0, 12.0, size=(ntime, nlev, nlat, nlon)))
    if masked:
        data[0, 0, 0, :3] = np.ma.masked
        data[-1, -1, -1, -1] = np.ma.masked
    latitude = uniform_latitude(nlat)
    latitude.gen_bounds()
    axes = (
        time_axis(np.arange(ntime) * 30.0, calendar="noleap"),
        level_axis(np.linspace(1000.0, 100.0, nlev).tolist()),
        latitude,
        uniform_longitude(nlon),
    )
    return Variable(
        data, axes, id=var_id, units="K", attributes={"cell_methods": "time: mean"}
    )


@pytest.fixture()
def variable():
    return make_variable()


@pytest.fixture()
def v2_path(tmp_path, variable):
    path = tmp_path / "data_v2.cdz"
    write_cdz(path, [variable], dataset_id="streaming-test")
    return path


@pytest.fixture()
def v1_path():
    return LEGACY_V1
