"""Statistics: correlation/covariance identities, trends, standardization."""

import numpy as np
import pytest

from repro.cdat.statistics import (
    correlation,
    covariance,
    linear_trend,
    percentile,
    rms_difference,
    standardize,
    variance,
)
from repro.cdms.axis import latitude_axis, time_axis
from repro.cdms.dataset import open_dataset
from repro.cdms.grid import uniform_grid
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def gridded(data, nlat=8, nlon=12, extra_axes=()):
    grid = uniform_grid(nlat, nlon)
    return Variable(data, tuple(extra_axes) + (grid.latitude, grid.longitude), id="g")


@pytest.fixture()
def field_pair():
    rng = np.random.default_rng(11)
    a = gridded(rng.normal(0, 1, (8, 12)))
    b = gridded(rng.normal(0, 1, (8, 12)))
    return a, b


class TestCorrelation:
    def test_self_correlation_is_one(self, field_pair):
        a, _ = field_pair
        assert correlation(a, a) == pytest.approx(1.0)

    def test_anticorrelation(self, field_pair):
        a, _ = field_pair
        assert correlation(a, -a) == pytest.approx(-1.0)

    def test_bounded(self, field_pair):
        a, b = field_pair
        assert -1.0 <= correlation(a, b) <= 1.0

    def test_invariant_to_affine_transform(self, field_pair):
        a, b = field_pair
        assert correlation(a, b * 3.0 + 7.0) == pytest.approx(correlation(a, b))

    def test_zero_variance_rejected(self):
        const = gridded(np.full((8, 12), 2.0))
        with pytest.raises(CDATError):
            correlation(const, const)

    def test_shape_mismatch(self, field_pair, ta):
        a, _ = field_pair
        with pytest.raises(CDATError):
            correlation(a, ta)


class TestCovarianceVariance:
    def test_covariance_symmetry(self, field_pair):
        a, b = field_pair
        assert covariance(a, b) == pytest.approx(covariance(b, a))

    def test_variance_is_self_covariance(self, field_pair):
        a, _ = field_pair
        assert variance(a) == pytest.approx(covariance(a, a))

    def test_variance_along_axis(self, ta):
        out = variance(ta, axis="time")
        assert out.get_time() is None
        assert float(out.min()) >= 0.0

    def test_masked_points_excluded(self):
        data = np.ma.MaskedArray(np.ones((8, 12)))
        data[0, 0] = 1000.0
        data[0, 0] = np.ma.masked
        var = gridded(data)
        other = gridded(np.random.default_rng(0).normal(size=(8, 12)))
        # the masked extreme value must not blow up the covariance
        assert abs(covariance(var, other)) < 10.0


class TestRMS:
    def test_identical_fields_zero(self, field_pair):
        a, _ = field_pair
        assert rms_difference(a, a) == pytest.approx(0.0)

    def test_constant_offset(self, field_pair):
        a, _ = field_pair
        assert rms_difference(a, a + 2.0) == pytest.approx(2.0)

    def test_nonnegative(self, field_pair):
        a, b = field_pair
        assert rms_difference(a, b) >= 0.0


class TestLinearTrend:
    def test_recovers_synthetic_trend(self):
        t = time_axis(np.arange(20.0))
        lat = latitude_axis([0.0, 10.0])
        slope_true = np.array([0.5, -1.25])
        data = slope_true[None, :] * np.arange(20.0)[:, None] + 3.0
        var = Variable(data, (t, lat), id="x")
        slope, intercept = linear_trend(var)
        np.testing.assert_allclose(np.asarray(slope.data), slope_true, rtol=1e-10)
        np.testing.assert_allclose(np.asarray(intercept.data), 3.0, atol=1e-10)

    def test_slope_units_per_axis_coordinate(self):
        # doubling the time spacing halves the slope per coordinate unit
        data = np.arange(10.0)
        v1 = Variable(data.reshape(10, 1), (time_axis(np.arange(10.0)), latitude_axis([0.0])), id="a")
        v2 = Variable(data.reshape(10, 1), (time_axis(np.arange(10.0) * 2), latitude_axis([0.0])), id="b")
        s1, _ = linear_trend(v1)
        s2, _ = linear_trend(v2)
        assert float(s1.data[0]) == pytest.approx(2 * float(s2.data[0]))

    def test_insufficient_points_masked(self):
        t = time_axis([0.0, 1.0, 2.0])
        lat = latitude_axis([0.0])
        data = np.ma.MaskedArray(np.ones((3, 1)))
        data[1:, 0] = np.ma.masked  # only one valid sample
        var = Variable(data, (t, lat), id="x")
        slope, _ = linear_trend(var)
        assert np.ma.getmaskarray(slope.data).all()


class TestStandardize:
    def test_zero_mean_unit_std(self, ta):
        z = standardize(ta, axis="time")
        mean = np.ma.mean(z.data, axis=0)
        std = np.ma.std(z.data, axis=0)
        np.testing.assert_allclose(np.asarray(mean), 0.0, atol=1e-6)
        np.testing.assert_allclose(np.asarray(std[~np.ma.getmaskarray(std)]), 1.0, atol=1e-5)

    def test_constant_series_masked(self):
        t = time_axis(np.arange(5.0))
        var = Variable(np.full((5, 1), 3.0), (t, latitude_axis([0.0])), id="c")
        z = standardize(var)
        assert np.ma.getmaskarray(z.data).all()


class TestUnits:
    """A statistic describes its output: a variance is in the input's units
    squared, a z-score is dimensionless — eager and streamed alike."""

    @pytest.mark.parametrize("units,squared", [
        ("K", "K2"), ("m s-1", "(m s-1)2"), ("W/m^2", "(W/m^2)2"), ("", ""),
    ])
    def test_variance_squares_and_standardize_drops_the_units(self, tmp_path, units, squared):
        t = time_axis(np.arange(6.0))
        data = np.random.default_rng(5).normal(280.0, 4.0, (6, 8, 12))
        var = gridded(data, extra_axes=(t,))
        var.units = units
        path = tmp_path / "units.cdz"
        write_cdz(path, [var], dataset_id="units", version=2, chunk_timesteps=2)
        for streaming in ("off", "on"):
            with open_dataset(path, streaming=streaming) as dataset:
                source = dataset.get_variable("g")
                assert variance(source, axis="time").units == squared
                assert variance(source, axis="latitude").units == squared
                assert standardize(source, axis="time").units == "1"


class TestPercentile:
    def test_median_of_known_values(self):
        t = time_axis(np.arange(5.0))
        var = Variable(
            np.array([5.0, 1.0, 3.0, 2.0, 4.0]).reshape(5, 1),
            (t, latitude_axis([0.0])), id="p",
        )
        out = percentile(var, 50.0, axis="time")
        assert float(out.data[0]) == pytest.approx(3.0)

    def test_extremes(self, ta):
        p0 = percentile(ta, 0.0)
        p100 = percentile(ta, 100.0)
        assert float(p0.min()) == pytest.approx(float(ta.min()))
        assert float(p100.max()) == pytest.approx(float(ta.max()))

    def test_out_of_range_rejected(self, ta):
        with pytest.raises(CDATError):
            percentile(ta, 150.0)
