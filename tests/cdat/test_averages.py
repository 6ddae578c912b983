"""Weighted averages: correctness against closed forms, mask handling."""

import numpy as np
import pytest

from repro.cdat.averages import (
    area_average,
    axis_average,
    meridional_mean,
    running_mean,
    zonal_mean,
)
from repro.cdms.axis import time_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def constant_field(value=3.5, nlat=8, nlon=12):
    from repro.cdms.grid import uniform_grid

    grid = uniform_grid(nlat, nlon)
    return Variable(np.full((nlat, nlon), value), (grid.latitude, grid.longitude), id="c")


class TestAreaAverage:
    def test_constant_field(self):
        assert area_average(constant_field(3.5)) == pytest.approx(3.5)

    def test_pure_zonal_structure(self):
        # f = sin(lat): area average over the sphere is 0 by symmetry
        from repro.cdms.grid import uniform_grid

        grid = uniform_grid(32, 8)
        lat = np.radians(grid.latitude.values)
        data = np.sin(lat)[:, None] * np.ones((32, 8))
        var = Variable(data, (grid.latitude, grid.longitude), id="s")
        assert area_average(var) == pytest.approx(0.0, abs=1e-10)

    def test_mask_excluded(self):
        var = constant_field(1.0)
        data = np.ma.MaskedArray(var.filled(0))
        data[0:4] = np.ma.masked  # southern half
        data[4:] = 2.0
        masked = Variable(data, var.axes, id="m")
        assert area_average(masked) == pytest.approx(2.0)

    def test_reduces_extra_dims(self, ta):
        out = area_average(ta)
        assert out.shape == (4, 5)  # (time, level)
        assert out.get_latitude() is None

    def test_requires_grid(self):
        var = Variable(np.zeros(3), (time_axis([0.0, 1.0, 2.0]),))
        with pytest.raises(CDATError):
            area_average(var)

    def test_joint_vs_sequential_masked(self):
        # one masked cell in a row: joint weighting must differ from
        # naive equal-latitude averaging of row means
        from repro.cdms.grid import uniform_grid

        grid = uniform_grid(4, 4)
        data = np.ma.MaskedArray(np.ones((4, 4)))
        data[0, :3] = np.ma.masked
        data[0, 3] = 100.0
        var = Variable(data, (grid.latitude, grid.longitude), id="j")
        joint = area_average(var)
        # the surviving hot cell is downweighted by its single-cell area,
        # not by a whole latitude row
        assert 1.0 < joint < 100.0
        hot_weight = grid.area_weights()[0, 3]
        valid_weight = grid.area_weights().sum() - 3 * hot_weight
        expected = (100.0 * hot_weight + 1.0 * (valid_weight - hot_weight)) / valid_weight
        assert joint == pytest.approx(expected)


class TestAxisAverages:
    def test_zonal_mean_drops_longitude(self, ta):
        out = zonal_mean(ta)
        assert out.get_longitude() is None
        assert out.shape == (4, 5, 16)

    def test_meridional_weighted(self):
        from repro.cdms.grid import uniform_grid

        grid = uniform_grid(16, 4)
        lat = np.radians(grid.latitude.values)
        data = np.sin(lat)[:, None] * np.ones((16, 4))
        var = Variable(data, (grid.latitude, grid.longitude), id="s")
        out = meridional_mean(var)
        np.testing.assert_allclose(np.asarray(out.data), 0.0, atol=1e-10)

    def test_axis_average_time(self, ta):
        out = axis_average(ta, "time")
        assert out.get_time() is None

    def test_all_masked_scalar_raises(self):
        var = Variable(
            np.ma.masked_all((3,)), (time_axis([0.0, 1.0, 2.0]),), id="m"
        )
        with pytest.raises(CDATError):
            axis_average(var, "time")


class TestRunningMean:
    def test_window_must_be_odd(self, ta):
        with pytest.raises(CDATError):
            running_mean(ta, window=4)

    def test_window_longer_than_axis(self, ta):
        with pytest.raises(CDATError):
            running_mean(ta, window=99)

    def test_edges_masked(self, ta):
        out = running_mean(ta, window=3)
        mask = np.ma.getmaskarray(out.data)
        assert mask[0].all() and mask[-1].all()
        assert not mask[1].any()

    def test_constant_series_unchanged_in_core(self):
        t = time_axis(np.arange(10.0))
        var = Variable(np.full(10, 7.0), (t,), id="c")
        out = running_mean(var, window=5)
        np.testing.assert_allclose(np.asarray(out.data[2:8]), 7.0)

    def test_matches_manual_window(self):
        t = time_axis(np.arange(7.0))
        values = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        var = Variable(values, (t,), id="x")
        out = running_mean(var, window=3)
        assert float(out.data[1]) == pytest.approx((1 + 2 + 4) / 3)
        assert float(out.data[5]) == pytest.approx((16 + 32 + 64) / 3)

    def test_masked_point_excluded_from_window(self):
        t = time_axis(np.arange(5.0))
        data = np.ma.MaskedArray([1.0, 2.0, 3.0, 4.0, 5.0])
        data[2] = np.ma.masked
        var = Variable(data, (t,), id="m")
        out = running_mean(var, window=3)
        assert float(out.data[1]) == pytest.approx((1 + 2) / 2)

    def test_shape_preserved(self, ta):
        assert running_mean(ta, window=3).shape == ta.shape


class TestCellMethods:
    """A mean describes its output: CF ``cell_methods`` gains the mean it
    took, after the input's own methods — eager and streamed alike."""

    @staticmethod
    def _fields(tmp_path, cell_methods):
        from repro.cdms.axis import level_axis, uniform_latitude, uniform_longitude
        from repro.cdms.dataset import open_dataset
        from repro.cdms.storage import write_cdz

        axes = (
            time_axis(np.arange(6) * 30.0, calendar="noleap"),
            level_axis([1000.0, 500.0]),
            uniform_latitude(4),
            uniform_longitude(6),
        )
        data = np.random.default_rng(2).normal(280.0, 5.0, (6, 2, 4, 6))
        attributes = {} if cell_methods is None else {"cell_methods": cell_methods}
        var = Variable(data, axes, id="ta", units="K", attributes=attributes)
        path = tmp_path / "methods.cdz"
        write_cdz(path, [var], dataset_id="methods", version=2, chunk_timesteps=2)
        return [open_dataset(path, streaming=mode) for mode in ("off", "on")]

    @pytest.mark.parametrize("cell_methods, prefix", [
        (None, ""), ("", ""), ("time: mean", "time: mean "),
    ])
    @pytest.mark.parametrize("reduce, method", [
        (lambda v: axis_average(v, "time"), "time: mean"),
        (lambda v: axis_average(v, "level"), "level: mean"),
        (zonal_mean, "longitude: mean"),
        (meridional_mean, "latitude: mean"),
        (area_average, "area: mean"),
    ], ids=["time", "level", "zonal", "meridional", "area"])
    def test_a_mean_appends_its_method(self, tmp_path, cell_methods, prefix, reduce, method):
        eager, streamed = self._fields(tmp_path, cell_methods)
        with eager, streamed:
            results = [reduce(d.get_variable("ta")) for d in (eager, streamed)]
        for result in results:
            assert result.attributes["cell_methods"] == prefix + method
            assert result.units == "K"
        assert results[0].attributes == results[1].attributes

    def test_the_input_keeps_its_methods(self, ta):
        before = dict(ta.attributes)
        assert axis_average(ta, "time").attributes["cell_methods"].endswith("time: mean")
        assert ta.attributes == before

    def test_means_compose_in_order(self, ta):
        out = zonal_mean(axis_average(ta, "time"))
        assert out.attributes["cell_methods"].endswith("time: mean longitude: mean")
