"""Climatologies and anomalies: grouping by calendar month, identities."""

import numpy as np
import pytest

from repro.cdat.climatology import (
    annual_mean,
    anomalies,
    monthly_climatology,
    seasonal_climatology,
)
from repro.cdms.axis import latitude_axis, longitude_axis, time_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


def monthly_series(n_years=3, base=10.0, cycle_amp=5.0):
    """A variable whose value is base + amp*cos(month phase), exactly periodic."""
    n = 12 * n_years
    # 365-day calendar with mid-month sampling keeps months aligned
    t = time_axis(np.arange(n) * (365.0 / 12) + 15.0, calendar="noleap")
    months = np.arange(n) % 12
    data = base + cycle_amp * np.cos(2 * np.pi * months / 12)
    lat = latitude_axis([0.0])
    lon = longitude_axis([0.0])
    return Variable(
        data.reshape(n, 1, 1), (t, lat, lon), id="cyc", units="K"
    ), months


class TestMonthlyClimatology:
    def test_shape_and_axis(self, ta):
        clim = monthly_climatology(ta)
        assert clim.shape[0] == 12
        assert clim.axes[0].id == "month"

    def test_periodic_series_recovered(self):
        var, months = monthly_series()
        clim = monthly_climatology(var)
        # the climatology of an exactly periodic series is the cycle itself
        expected = 10.0 + 5.0 * np.cos(2 * np.pi * np.arange(12) / 12)
        got = np.asarray(clim.data).reshape(12)
        # month grouping is calendar-based; verify each value appears
        np.testing.assert_allclose(sorted(got), sorted(expected), atol=1e-6)

    def test_missing_months_masked(self):
        # 4 time steps spanning Jan-Apr only → Aug bucket empty
        t = time_axis(np.arange(4) * 30.0 + 15.0, calendar="noleap")
        var = Variable(
            np.ones((4, 1)), (t, latitude_axis([0.0])), id="x"
        )
        clim = monthly_climatology(var)
        mask = np.ma.getmaskarray(clim.data)
        assert mask.any() and not mask.all()

    def test_requires_time_axis(self):
        var = Variable(np.zeros(2), (latitude_axis([0.0, 1.0]),))
        with pytest.raises(CDATError):
            monthly_climatology(var)


class TestAnomalies:
    def test_shape_preserved(self, ta):
        assert anomalies(ta).shape == ta.shape

    def test_periodic_series_anomaly_zero(self):
        var, _ = monthly_series()
        anom = anomalies(var)
        np.testing.assert_allclose(np.asarray(anom.data), 0.0, atol=1e-6)

    def test_trend_survives_anomaly(self):
        var, _ = monthly_series()
        trended = var + Variable(
            np.linspace(0, 6, 36).reshape(36, 1, 1), var.axes, id="tr"
        )
        anom = anomalies(trended)
        data = np.asarray(anom.data).reshape(-1)
        # anomalies of a rising series rise within each month bucket
        assert data[-1] > data[0]

    def test_month_membership_is_derived_once(self, monkeypatch):
        var, _ = monthly_series()
        time = var.get_time()
        calls = []
        convert = time.as_component_time

        def counted():
            calls.append(1)
            return convert()

        monkeypatch.setattr(time, "as_component_time", counted)
        anomalies(var)
        assert len(calls) == 1

    def test_monthly_mean_of_anomalies_is_zero(self, ta):
        anom = anomalies(ta)
        clim_of_anom = monthly_climatology(anom)
        valid = ~np.ma.getmaskarray(clim_of_anom.data)
        np.testing.assert_allclose(
            np.asarray(clim_of_anom.data)[valid], 0.0, atol=1e-5
        )


class TestSeasonalAndAnnual:
    def test_seasonal_shape(self):
        var, _ = monthly_series()
        seas = seasonal_climatology(var)
        assert seas.shape[0] == 4
        assert seas.attributes["season_order"] == ["DJF", "MAM", "JJA", "SON"]

    def test_seasonal_values_average_member_months(self):
        var, months = monthly_series()
        seas = seasonal_climatology(var)
        jja = float(np.asarray(seas.data)[2, 0, 0])
        member = 10.0 + 5.0 * np.cos(2 * np.pi * np.array([5, 6, 7]) / 12)
        assert jja == pytest.approx(member.mean(), abs=1e-6)

    def test_annual_mean_axis_is_years(self):
        var, _ = monthly_series(n_years=3)
        annual = annual_mean(var)
        assert annual.shape[0] == 3
        assert annual.axes[0].id == "year"

    def test_annual_mean_of_periodic_series_constant(self):
        var, _ = monthly_series(n_years=3)
        annual = annual_mean(var)
        values = np.asarray(annual.data).reshape(-1)
        np.testing.assert_allclose(values, values[0], atol=1e-6)
