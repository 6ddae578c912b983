"""Synthetic data generators: determinism, physical structure, metadata."""

import hashlib
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.cdms.variable import Variable
from repro.data import fields
from repro.data.catalog import synthetic_reanalysis


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = fields.global_temperature(8, 12, 3, 2, seed="x")
        b = fields.global_temperature(8, 12, 3, 2, seed="x")
        np.testing.assert_array_equal(a.filled(), b.filled())

    def test_different_seed_different_data(self):
        a = fields.global_temperature(8, 12, 3, 2, seed="x")
        b = fields.global_temperature(8, 12, 3, 2, seed="y")
        assert not np.array_equal(a.filled(), b.filled())


class TestTemperature:
    def test_shape_and_order(self):
        ta = fields.global_temperature(10, 16, 4, 3)
        assert ta.shape == (3, 4, 10, 16)
        assert ta.order() == "tzyx"
        assert ta.units == "K"

    def test_equator_warmer_than_poles_at_surface(self):
        ta = fields.global_temperature(18, 24, 4, 2, seed="pole")
        surface = ta[0, 0].squeeze().filled(np.nan)
        equator = np.nanmean(surface[8:10])
        poles = np.nanmean(np.concatenate([surface[:2], surface[-2:]]))
        assert equator > poles + 10.0

    def test_troposphere_cools_with_height(self):
        ta = fields.global_temperature(10, 12, 8, 2, seed="lapse")
        profile = np.asarray(
            ta.data[0, :, 5, 0]
        )  # mid-latitude column, levels 1000 → 250
        assert profile[0] > profile[5]

    def test_seasonal_cycle_antiphased(self):
        ta = fields.global_temperature(18, 12, 3, 12, seed="season")
        north = float(np.ma.mean(ta.data[0, 0, -3:, :]) - np.ma.mean(ta.data[6, 0, -3:, :]))
        south = float(np.ma.mean(ta.data[0, 0, :3, :]) - np.ma.mean(ta.data[6, 0, :3, :]))
        assert north * south < 0  # opposite signs in the two hemispheres

    def test_polar_mask_option(self):
        ta = fields.global_temperature(20, 12, 3, 2, with_mask=True)
        assert 0.0 < 1.0 - ta.valid_fraction() < 0.5

    def test_physically_plausible_range(self):
        ta = fields.global_temperature(12, 16, 6, 3)
        assert 150.0 < float(ta.min()) and float(ta.max()) < 330.0


class TestWind:
    def test_geostrophic_pair_shapes(self):
        zg = fields.geopotential_height(10, 16, 4, 2, seed="zg")
        u, v = fields.geostrophic_wind(zg)
        assert u.shape == zg.shape == v.shape
        assert u.units == "m s-1"

    def test_westerlies_in_midlatitudes(self):
        zg = fields.geopotential_height(24, 32, 6, 2, seed="jet")
        u, _ = fields.geostrophic_wind(zg)
        # mid-latitude upper-level zonal-mean u should be westerly (positive)
        lat = u.get_latitude().values
        midlat = (np.abs(lat) > 30) & (np.abs(lat) < 60)
        upper = np.ma.mean(u.data[0, -2:, midlat, :])
        assert float(upper) > 0.0

    def test_speeds_bounded(self):
        zg = fields.geopotential_height(16, 24, 4, 2)
        u, v = fields.geostrophic_wind(zg)
        assert float(np.ma.max(np.ma.abs(u.data))) < 300.0

    @pytest.mark.parametrize("case", ["plain", "nlon1", "nlon2", "nlon3", "masked_inf", "lon_first"])
    def test_wind_bytes_equal_padded_gradient_reference(self, case):
        nlon = {"nlon1": 1, "nlon2": 2, "nlon3": 3}.get(case, 16)
        zg = fields.geopotential_height(10, nlon, 4, 3, seed=case)
        if case == "masked_inf":
            data = np.ma.array(zg.filled(), mask=False)
            data[0, 0, 0, 0] = np.ma.masked
            data[-1, -1, -1, -1] = np.inf
            zg = Variable(data, zg.axes, id="zg")
        if case == "lon_first":
            t, lev, lat, lon = zg.axes
            zg = Variable(np.swapaxes(zg.filled(), 2, 3).copy(), (t, lev, lon, lat), id="zg")
        with np.errstate(invalid="ignore"):
            winds = fields.geostrophic_wind(zg)
            reference = _padded_gradient_wind(zg)
        for wind, expected in zip(winds, reference):
            assert wind.data.dtype == expected.dtype
            assert _data_and_mask_sha256(wind.data) == _data_and_mask_sha256(expected)

    def test_wind_does_not_write_into_the_height(self):
        zg = fields.geopotential_height(8, 12, 3, 2, seed="ro")
        before = zg.filled().copy()
        fields.geostrophic_wind(zg)
        np.testing.assert_array_equal(zg.filled(), before)

    def test_wind_traced_peak_within_four_fields(self):
        zg = fields.geopotential_height(24, 32, 6, 8, seed="peak")
        tracemalloc.start()
        try:
            u, v = fields.geostrophic_wind(zg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        field_bytes = u.data.data.nbytes
        assert peak <= 4 * field_bytes, f"traced peak {peak / field_bytes:.2f} fields"

    def test_reanalysis_container_members_equal_padded_gradient_reference(
        self, tmp_path, monkeypatch
    ):
        def members(name):
            path = tmp_path / name
            synthetic_reanalysis(nlat=8, nlon=12, nlev=3, ntime=4).save(path, version=2)
            with zipfile.ZipFile(path) as archive:
                return {member: archive.read(member) for member in archive.namelist()}

        now = members("now.cdz")
        monkeypatch.setattr(fields, "geostrophic_wind", _padded_gradient_wind_variables)
        assert now == members("then.cdz")


def _padded_gradient_wind_variables(height):
    u, v = _padded_gradient_wind(height)
    return tuple(
        Variable(arr, height.axes, id=vid, units="m s-1", long_name=name)
        for arr, vid, name in ((u, "ua", "eastward wind"), (v, "va", "northward wind"))
    )


def _data_and_mask_sha256(masked) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(masked.data).tobytes())
    digest.update(np.ma.getmaskarray(masked).tobytes())
    return digest.hexdigest()


def _padded_gradient_wind(height, f_floor=2.0e-5):
    """The wind generator as first written: the byte reference.

    ``np.gradient`` of a copy padded by one wrapped column on each side
    of longitude, every intermediate a new full-size array.
    """
    g = 9.81
    zg = height.filled(np.nan)
    lat_dim = height.axis_index("latitude")
    lon_dim = height.axis_index("longitude")
    lat_rad = np.radians(height.get_latitude().values)
    lon_rad = np.radians(height.get_longitude().values)
    f = 2 * fields._EARTH_OMEGA * np.sin(lat_rad)
    f = np.where(np.abs(f) < f_floor, np.sign(f + 1e-30) * f_floor, f)
    dy = np.gradient(zg, lat_rad * fields._EARTH_RADIUS, axis=lat_dim)
    padded = np.concatenate(
        [zg.take([-1], axis=lon_dim), zg, zg.take([0], axis=lon_dim)], axis=lon_dim
    )
    dlon = float(lon_rad[1] - lon_rad[0]) if lon_rad.size > 1 else 1.0
    dx_raw = np.gradient(padded, axis=lon_dim) / dlon
    slicer = [slice(None)] * zg.ndim
    slicer[lon_dim] = slice(1, -1)
    shape = [1] * zg.ndim
    shape[lat_dim] = lat_rad.size
    coslat = np.maximum(np.cos(lat_rad), 0.05).reshape(shape)
    dx = dx_raw[tuple(slicer)] / (fields._EARTH_RADIUS * coslat)
    fshape = np.reshape(f, shape)
    return np.ma.masked_invalid(-g / fshape * dy), np.ma.masked_invalid(g / fshape * dx)


class TestWave:
    def test_attributes_record_construction(self):
        wave = fields.equatorial_wave(24, 8, 20, wavenumber=5, period_steps=10.0)
        assert wave.attributes["wavenumber"] == 5
        assert wave.attributes["eastward"] is True

    def test_equatorial_trapping(self):
        wave = fields.equatorial_wave(24, 16, 20, seed="trap")
        amplitude = np.abs(wave.filled(0)).mean(axis=(0, 2))
        assert amplitude[8] > 2 * amplitude[0]  # equator vs southern edge

    def test_propagation_moves_crest(self):
        wave = fields.equatorial_wave(
            72, 8, 10, wavenumber=2, period_steps=20.0, eastward=True, amplitude=5.0, seed="mv"
        )
        eq = wave.filled(0)[:, 4, :]
        c0 = int(np.argmax(eq[0]))
        c1 = int(np.argmax(eq[2]))
        shift = (c1 - c0) % 72
        assert 0 < shift < 36  # moved east, less than half the domain


class TestStorm:
    def test_track_moves_poleward(self):
        wspd = fields.storm_vortex(16, 16, 5, 8, seed="trk")
        track_lat = wspd.attributes["track_lat"]
        assert track_lat[-1] > track_lat[0] + 10

    def test_eyewall_max_not_at_center(self):
        wspd = fields.storm_vortex(48, 48, 5, 4, seed="eye")
        t = 2
        field2d = wspd.filled(0)[t, 0]
        peak = np.unravel_index(np.argmax(field2d), field2d.shape)
        lat = wspd.get_latitude().values
        lon = wspd.get_longitude().values
        # the wind max sits near (but not exactly on) the recorded center
        clat = wspd.attributes["track_lat"][t]
        clon = wspd.attributes["track_lon"][t]
        assert abs(lat[peak[0]] - clat) < 5.0
        assert abs(lon[peak[1]] - clon) < 6.0

    def test_wind_nonnegative(self):
        wspd = fields.storm_vortex(16, 16, 4, 3)
        assert float(wspd.min()) >= 0.0


class TestHumidity:
    def test_decays_with_height(self):
        hus = fields.specific_humidity(10, 12, 8, 2)
        column = np.asarray(hus.data[0, :, 5, 0])
        assert column[0] > 10 * column[-1]

    def test_nonnegative(self):
        hus = fields.specific_humidity(8, 8, 4, 2)
        assert float(hus.min()) >= 0.0


class TestCatalog:
    def test_reanalysis_contents(self, reanalysis):
        assert set(reanalysis.variable_ids) == {"ta", "zg", "ua", "va", "hus"}

    def test_variables_share_grid(self, reanalysis):
        assert reanalysis("ta").get_grid() == reanalysis("zg").get_grid()

    def test_storm_has_paired_variables(self, storm):
        assert set(storm.variable_ids) == {"wspd", "tcore"}
        assert storm("wspd").shape == storm("tcore").shape

    def test_wave_case_modes(self, waves):
        assert waves("olr_anom").attributes["eastward"] is True
        assert waves("olr_west").attributes["eastward"] is False

    def test_saveable(self, tmp_path, storm):
        storm.save(tmp_path / "storm.cdz")
        from repro.cdms.dataset import open_dataset

        loaded = open_dataset(tmp_path / "storm.cdz")
        assert set(loaded.variable_ids) == {"wspd", "tcore"}
