"""The plan-keeping translation against the per-step derivation it
replaced (``tests/dv3d/reference_translation.py``).

Every case translates with a fresh plan, with one plan kept across all
of the variable's time steps, and with the reference; the arrays must
be equal bit for bit, with the same dtype, dimensions, origin and
spacing, or all three must raise the same error type.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro.cdms.axis import (
    Axis,
    latitude_axis,
    level_axis,
    longitude_axis,
    time_axis,
)
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.dv3d.translation import (
    TranslationPlan,
    add_variable_to_volume,
    translate_variable,
    translate_vector_field,
)
from repro.rendering.image_data import ImageData
from repro.util.errors import CDMSError, DV3DError
from tests.dv3d import reference_translation as reference

LON = np.arange(12) * 30.0
LAT = np.linspace(-75.0, 75.0, 6)
GAUSSIAN_LAT = np.degrees(np.arcsin(np.polynomial.legendre.leggauss(6)[0]))
LEVELS = [1000.0, 850.0, 500.0, 250.0]


def _variable(*axes: Axis, seed: int = 3, masked: bool = True,
              dtype: Any = np.float64, id: str = "v") -> Variable:
    rng = np.random.default_rng(seed)
    shape = tuple(len(axis) for axis in axes)
    mask = np.zeros(shape, dtype=bool)
    if masked and mask.size > 3:
        mask.flat[[0, mask.size // 2, mask.size - 1]] = True
    data = np.ma.MaskedArray(rng.normal(250.0, 20.0, size=shape).astype(dtype), mask=mask)
    return Variable(data, axes, id=id, units="K")


def _times(n: int = 3) -> Axis:
    return time_axis(np.arange(n) * 30.0)


def _assert_same_volume(new: ImageData, old: ImageData) -> None:
    assert new.dimensions == old.dimensions
    assert new.origin == old.origin
    assert new.spacing == old.spacing
    assert sorted(new._arrays) == sorted(old._arrays)
    for name, array in old._arrays.items():
        got = new.get_array(name)
        assert got.dtype == array.dtype and got.shape == array.shape, name
        assert got.tobytes() == array.tobytes(), name
    assert new._active_scalars == old._active_scalars


def _outcome(call: Callable[[], ImageData]) -> Any:
    try:
        return call()
    except (DV3DError, CDMSError) as exc:
        return type(exc)


def _assert_same(new: Any, old: Any) -> None:
    if isinstance(old, type):
        assert new is old
    else:
        assert not isinstance(new, type), new
        _assert_same_volume(new, old)


CASES = {
    "tzyx": lambda: _variable(_times(), level_axis(LEVELS), latitude_axis(LAT),
                              longitude_axis(LON)),
    "decreasing lon and lat": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis(LAT[::-1]), longitude_axis(LON[::-1])),
    "gaussian lat": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis(GAUSSIAN_LAT), longitude_axis(LON)),
    "decreasing gaussian lat": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis(GAUSSIAN_LAT[::-1]),
        longitude_axis(LON)),
    "increasing hPa": lambda: _variable(
        _times(), level_axis(LEVELS[::-1]), latitude_axis(LAT), longitude_axis(LON)),
    "Pa": lambda: _variable(
        _times(), level_axis([100000.0, 70000.0, 30000.0], units="Pa"),
        latitude_axis(LAT), longitude_axis(LON)),
    "km": lambda: _variable(
        _times(), level_axis([0.0, 1.5, 4.0, 10.0], units="km"), latitude_axis(LAT),
        longitude_axis(LON)),
    "uniform km": lambda: _variable(
        _times(), level_axis([0.0, 2.0, 4.0, 6.0], units="km"), latitude_axis(LAT),
        longitude_axis(LON)),
    "m": lambda: _variable(
        _times(), level_axis([0.0, 500.0, 2000.0], units="m"), latitude_axis(LAT),
        longitude_axis(LON)),
    "unknown level units": lambda: _variable(
        _times(), level_axis([1.0, 0.7, 0.2], units="sigma"), latitude_axis(LAT),
        longitude_axis(LON)),
    "xyzt order": lambda: _variable(
        longitude_axis(LON), latitude_axis(LAT), level_axis(LEVELS), _times()),
    "lat, time, lon": lambda: _variable(latitude_axis(LAT), _times(), longitude_axis(LON)),
    "one level, squeezed": lambda: _variable(
        _times(), level_axis([500.0]), latitude_axis(LAT), longitude_axis(LON)),
    "one level, no time": lambda: _variable(
        level_axis([500.0]), latitude_axis(LAT), longitude_axis(LON)),
    "one latitude, squeezed": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis([10.0]), longitude_axis(LON)),
    "one latitude, no time": lambda: _variable(
        level_axis(LEVELS), latitude_axis([10.0]), longitude_axis(LON)),
    "one time step": lambda: _variable(
        _times(1), level_axis(LEVELS), latitude_axis(LAT), longitude_axis(LON)),
    "every dimension one": lambda: _variable(
        _times(1), level_axis([500.0]), latitude_axis([0.0]), longitude_axis([0.0])),
    "no level": lambda: _variable(_times(), latitude_axis(LAT), longitude_axis(LON)),
    "no time": lambda: _variable(level_axis(LEVELS), latitude_axis(LAT),
                                 longitude_axis(LON)),
    "no time, no level": lambda: _variable(latitude_axis(LAT), longitude_axis(LON)),
    "unmasked float32": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis(LAT), longitude_axis(LON),
        masked=False, dtype=np.float32),
    "masked float32": lambda: _variable(
        _times(), level_axis(LEVELS), latitude_axis(LAT), longitude_axis(LON),
        dtype=np.float32),
    "integers": lambda: _variable(
        _times(), latitude_axis(LAT), longitude_axis(LON), masked=False, dtype=np.int32),
    "extra axis": lambda: _variable(
        _times(), Axis("member", [0.0, 1.0]), latitude_axis(LAT), longitude_axis(LON)),
    "extra axis of one, squeezed": lambda: _variable(
        _times(), Axis("member", [0.0]), latitude_axis(LAT), longitude_axis(LON)),
    "no latitude": lambda: _variable(_times(), level_axis(LEVELS), longitude_axis(LON)),
    "two longitudes": lambda: _variable(
        _times(), Axis("lon2", [0.0, 1.0], units="degrees_east"), latitude_axis(LAT),
        longitude_axis(LON)),
    # both levels clamp to 1e-3 hPa: equal heights, not strictly monotonic
    "levels clamped together": lambda: _variable(
        _times(), level_axis([1e-4, 5e-4]), latitude_axis(LAT), longitude_axis(LON)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("exaggeration", [None, 2.5])
def test_translate_variable_matches_the_reference(case, exaggeration):
    variable = CASES[case]()
    steps = len(variable.get_time()) if variable.get_time() is not None else 1
    kept = _outcome(lambda: TranslationPlan(variable))
    for t in list(range(steps)) + [None]:
        old = _outcome(lambda: reference.translate_variable(variable, t, exaggeration))
        _assert_same(_outcome(lambda: translate_variable(variable, t, exaggeration)), old)
        if not isinstance(kept, type):
            _assert_same(translate_variable(variable, t, exaggeration, plan=kept), old)
        else:
            assert isinstance(old, type)


def test_masked_values_become_nan():
    volume = translate_variable(CASES["gaussian lat"](), 0)
    assert np.isnan(volume.scalars).any()


@pytest.mark.parametrize("case", ["tzyx", "gaussian lat", "no level", "no time", "xyzt order"])
def test_add_variable_to_volume_matches_the_reference(case):
    first, second = CASES[case](), CASES[case]()
    second = Variable(second.data * 2.0 + 1.0, first.axes, id="w")
    plan = TranslationPlan(second)
    for t in (0, None):
        old = reference.translate_variable(first, t)
        reference.add_variable_to_volume(old, second, t)
        new = translate_variable(first, t)
        add_variable_to_volume(new, second, t, plan=plan)
        _assert_same_volume(new, old)


def test_a_second_variable_of_another_shape_is_refused():
    volume = translate_variable(CASES["tzyx"](), 0)
    other = _variable(_times(), level_axis(LEVELS), latitude_axis(LAT[:4]), longitude_axis(LON))
    with pytest.raises(DV3DError):
        reference.add_variable_to_volume(volume, other, 0)
    with pytest.raises(DV3DError):
        add_variable_to_volume(volume, other, 0)


@pytest.mark.parametrize("index", [3, 99, -1, -4])
def test_an_out_of_range_time_index_is_still_refused(index):
    variable = CASES["tzyx"]()
    plan = TranslationPlan(variable)
    with pytest.raises(DV3DError):
        reference.translate_variable(variable, index)
    with pytest.raises(DV3DError, match="out of range"):
        translate_variable(variable, index)
    with pytest.raises(DV3DError, match="out of range"):
        translate_variable(variable, index, plan=plan)
    with pytest.raises(DV3DError, match="out of range"):
        add_variable_to_volume(translate_variable(variable, 0), variable, index, plan=plan)


def test_the_explore_grid_matches_the_reference(reanalysis):
    for name in ("ta", "zg", "ua"):
        variable = reanalysis(name)
        plan = TranslationPlan(variable)
        for t in range(len(variable.get_time())):
            _assert_same_volume(translate_variable(variable, t, plan=plan),
                                reference.translate_variable(variable, t))


def test_a_vector_field_matches_the_reference(reanalysis):
    u, v = reanalysis("ua"), reanalysis("va")
    w = Variable(u.data * 0.01, u.axes, id="wa")
    plans = tuple(TranslationPlan(c) for c in (u, v, w))
    for t in range(len(u.get_time())):
        for exaggeration in (None, 3.0):
            _assert_same_volume(
                translate_vector_field(u, v, w, t, exaggeration, plans=plans),
                reference.translate_vector_field(u, v, w, t, exaggeration))
            _assert_same_volume(
                translate_vector_field(u, v, None, t, exaggeration),
                reference.translate_vector_field(u, v, None, t, exaggeration))


@pytest.mark.parametrize("chunk_timesteps", [1, 2])
def test_a_streamed_variable_matches_its_eager_twin(tmp_path, chunk_timesteps):
    eager = _variable(_times(4), level_axis(LEVELS), latitude_axis(GAUSSIAN_LAT[::-1]),
                      longitude_axis(LON), id="ta")
    path = tmp_path / "twin.cdz"
    write_cdz(path, [eager], version=2, chunk_timesteps=chunk_timesteps)
    with open_dataset(path, streaming="on") as dataset:
        lazy = dataset("ta")
        plan = TranslationPlan(lazy)
        for t in range(4):
            old = reference.translate_variable(eager, t)
            _assert_same_volume(translate_variable(lazy, t, plan=plan), old)
            _assert_same_volume(translate_variable(lazy, t), old)
            _assert_same_volume(reference.translate_variable(lazy, t), old)


def test_a_plan_refuses_a_variable_of_other_axes():
    variable = CASES["tzyx"]()
    plan = TranslationPlan(variable)
    twin = CASES["tzyx"]()  # equal axes, but not the ones the plan was derived from
    assert plan.fits(variable) and plan.fits(Variable(variable.data, variable.axes))
    assert not plan.fits(twin)
    for other in (twin, CASES["no level"](), variable[0]):
        with pytest.raises(DV3DError, match="axes differ"):
            translate_variable(other, 0, plan=plan)
        with pytest.raises(DV3DError, match="axes differ"):
            add_variable_to_volume(translate_variable(variable, 0), other, 0, plan=plan)


def test_a_time_step_reads_one_slab_and_builds_one_variable(monkeypatch):
    variable = CASES["gaussian lat"]()
    plan = TranslationPlan(variable)
    built = []
    init = Variable.__init__

    def counted(self, *args: Any, **kwargs: Any) -> None:
        built.append(kwargs.get("id"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Variable, "__init__", counted)
    translate_variable(variable, 1, plan=plan)
    assert built == ["v"]
