"""Physically-structured synthetic field generators.

Every generator returns a :class:`~repro.cdms.variable.Variable` on
CF-style axes in canonical ``tzyx`` (or a subset) order.  Fields are
smooth (band-limited random Fourier modes plus analytic structure) so
isosurfaces, slices and volume renders of them look like climate data
rather than white noise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cdms.axis import Axis, level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.variable import Variable
from repro.util.rng import deterministic_rng

DEFAULT_LEVELS = (1000.0, 925.0, 850.0, 700.0, 500.0, 400.0, 300.0, 250.0,
                  200.0, 150.0, 100.0, 70.0, 50.0, 30.0, 20.0, 10.0)

_EARTH_OMEGA = 7.2921e-5  # rad/s
_EARTH_RADIUS = 6.371e6  # m


def standard_axes(
    nlat: int = 46,
    nlon: int = 72,
    nlev: int = 17,
    ntime: int = 12,
    time_step_days: float = 30.0,
) -> Tuple[Axis, Axis, Axis, Axis]:
    """``(time, level, latitude, longitude)`` axes of the requested sizes."""
    lat = uniform_latitude(nlat)
    lon = uniform_longitude(nlon)
    if nlev <= len(DEFAULT_LEVELS):
        levels = DEFAULT_LEVELS[:nlev]
    else:
        levels = tuple(np.geomspace(1000.0, 10.0, nlev))
    lev = level_axis(list(levels))
    t = time_axis(np.arange(ntime) * time_step_days)
    return t, lev, lat, lon


def _smooth_noise(
    rng: np.random.Generator,
    lat_rad: np.ndarray,
    lon_rad: np.ndarray,
    n_modes: int = 8,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Band-limited random field on the sphere surface, shape (nlat, nlon).

    A sum of low-wavenumber sinusoidal modes — cheap, smooth, periodic
    in longitude, and fully vectorized.
    """
    field = np.zeros((lat_rad.size, lon_rad.size))
    klon = rng.integers(1, 5, size=n_modes)
    klat = rng.integers(1, 4, size=n_modes)
    phase = rng.uniform(0, 2 * np.pi, size=(n_modes, 2))
    amp = rng.normal(0, 1, size=n_modes) / np.sqrt(n_modes)
    for m in range(n_modes):
        field += amp[m] * np.outer(
            np.cos(klat[m] * lat_rad + phase[m, 0]),
            np.cos(klon[m] * lon_rad + phase[m, 1]),
        )
    return amplitude * field


def global_temperature(
    nlat: int = 46,
    nlon: int = 72,
    nlev: int = 17,
    ntime: int = 12,
    seed: int | str = "temperature",
    with_mask: bool = False,
) -> Variable:
    """Air temperature (K) shaped (time, level, lat, lon).

    Structure: surface pole-to-equator gradient, a moist-adiabatic-ish
    decrease with pressure topped by a stratospheric inversion, a
    seasonal cycle anti-phased between hemispheres, and smooth synoptic
    noise.  With ``with_mask`` a polar cap of missing data is added to
    exercise masked-data code paths.
    """
    rng = deterministic_rng(seed)
    t, lev, lat, lon = standard_axes(nlat, nlon, nlev, ntime)
    lat_rad = np.radians(lat.values)
    lon_rad = np.radians(lon.values)
    p = lev.values  # hPa

    surface = 288.0 - 45.0 * np.sin(lat_rad) ** 2  # (nlat,)
    # vertical: linear cooling to the tropopause (~200 hPa), warming above
    lapse = np.where(p >= 200.0, (1000.0 - p) * 0.065, (1000.0 - 200.0) * 0.065 - (200.0 - p) * 0.02)
    seasonal_phase = 2 * np.pi * np.arange(ntime) / max(ntime, 1)
    seasonal = 12.0 * np.sin(lat_rad)[None, :] * np.cos(seasonal_phase)[:, None]  # (ntime, nlat)

    data = (
        surface[None, None, :, None]
        - lapse[None, :, None, None]
        + seasonal[:, None, :, None]
    )
    noise = np.stack(
        [_smooth_noise(rng, lat_rad, lon_rad, amplitude=3.0) for _ in range(ntime)]
    )  # (ntime, nlat, nlon)
    decay = np.exp(-(1000.0 - p) / 600.0)  # noise strongest near the surface
    data = data + noise[:, None, :, :] * decay[None, :, None, None]

    arr: np.ndarray | np.ma.MaskedArray = data
    if with_mask:
        mask = np.zeros(data.shape, dtype=bool)
        mask[..., np.abs(lat.values) > 85.0, :] = True
        arr = np.ma.MaskedArray(data, mask=mask)
    return Variable(
        arr, (t, lev, lat, lon), id="ta", units="K",
        long_name="air temperature",
    )


def geopotential_height(
    nlat: int = 46,
    nlon: int = 72,
    nlev: int = 17,
    ntime: int = 12,
    seed: int | str = "geopotential",
) -> Variable:
    """Geopotential height (m) with a wavy mid-latitude jet structure."""
    rng = deterministic_rng(seed)
    t, lev, lat, lon = standard_axes(nlat, nlon, nlev, ntime)
    lat_rad = np.radians(lat.values)
    lon_rad = np.radians(lon.values)
    p = lev.values

    # hypsometric-ish base height per level, plus meridional slope
    base = 8000.0 * np.log(1000.0 / np.maximum(p, 1.0))  # (nlev,)
    slope = -400.0 * np.sin(lat_rad) ** 2  # lower heights toward poles
    data = base[None, :, None, None] + slope[None, None, :, None] * (base[None, :, None, None] / 5000.0 + 0.3)

    # planetary waves drifting eastward with time
    for wavenumber, amp, speed in ((3, 120.0, 0.15), (5, 60.0, 0.35)):
        phase = speed * np.arange(ntime)
        wave = amp * np.cos(
            wavenumber * lon_rad[None, None, :] - phase[:, None, None]
        ) * np.cos(lat_rad)[None, :, None] ** 2
        data = data + wave[:, None, :, :] * (base[None, :, None, None] / 8000.0 + 0.2)
    data += np.stack(
        [_smooth_noise(rng, lat_rad, lon_rad, amplitude=25.0) for _ in range(ntime)]
    )[:, None, :, :]
    return Variable(
        data, (t, lev, lat, lon), id="zg", units="m",
        long_name="geopotential height",
    )


def geostrophic_wind(
    height: Optional[Variable] = None,
    seed: int | str = "wind",
    f_floor: float = 2.0e-5,
) -> Tuple[Variable, Variable]:
    """(u, v) geostrophic wind (m/s) derived from a geopotential field.

    ``u = -(g/f) ∂Z/∂y``, ``v = (g/f) ∂Z/∂x`` with the Coriolis
    parameter clamped away from zero near the equator.  Gradients use
    centred differences, periodic in longitude.

    Both winds are computed in their own output buffers and scaled in
    place, so the traced peak is about three fields.
    """
    if height is None:
        height = geopotential_height(seed=seed)
    g = 9.81
    lat = height.get_latitude()
    lon = height.get_longitude()
    if lat is None or lon is None:
        raise ValueError("geostrophic_wind requires a gridded height field")
    # float64 like the winds; may alias the height's own buffer, so it is
    # only ever read
    zg = height.filled(np.nan).astype(np.float64, copy=False)
    lat_dim = height.axis_index("latitude")
    lon_dim = height.axis_index("longitude")
    lat_rad = np.radians(lat.values)
    lon_rad = np.radians(lon.values)

    f = 2 * _EARTH_OMEGA * np.sin(lat_rad)
    f = np.where(np.abs(f) < f_floor, np.sign(f + 1e-30) * f_floor, f)
    shape = [1] * zg.ndim
    shape[lat_dim] = lat_rad.size
    fshape = np.reshape(f, shape)

    u = np.gradient(zg, lat_rad * _EARTH_RADIUS, axis=lat_dim)
    np.multiply(-g / fshape, u, out=u)

    # periodic longitude: np.gradient's interior formula (z[i+1] - z[i-1]) / 2,
    # with column -1 before column 0 and column 0 after the last
    v = np.roll(zg, -1, axis=lon_dim)
    np.subtract(v, np.roll(zg, 1, axis=lon_dim), out=v)
    dlon = float(lon_rad[1] - lon_rad[0]) if lon_rad.size > 1 else 1.0
    np.divide(v, 2.0, out=v)
    np.divide(v, dlon, out=v)
    np.divide(v, _EARTH_RADIUS * np.maximum(np.cos(lat_rad), 0.05).reshape(shape), out=v)
    np.multiply(g / fshape, v, out=v)
    mk = lambda arr, vid, name: Variable(  # noqa: E731
        np.ma.masked_invalid(arr, copy=False), height.axes, id=vid, units="m s-1",
        long_name=name,
    )
    return mk(u, "ua", "eastward wind"), mk(v, "va", "northward wind")


def equatorial_wave(
    nlon: int = 144,
    nlat: int = 32,
    ntime: int = 120,
    wavenumber: int = 4,
    period_steps: float = 30.0,
    eastward: bool = True,
    amplitude: float = 2.0,
    seed: int | str = "wave",
    time_step_days: float = 0.25,
) -> Variable:
    """An equatorially-trapped propagating wave, shaped (time, lat, lon).

    The canonical Hovmöller test signal: amplitude peaks at the equator
    (Gaussian in latitude), propagates east (or west) with integer
    zonal *wavenumber* and the given *period* in time steps.  Phase
    speed is ``360 * wavenumber⁻¹ / period`` degrees per step.
    """
    rng = deterministic_rng(seed)
    lat = uniform_latitude(nlat)
    lon = uniform_longitude(nlon)
    t = time_axis(np.arange(ntime) * time_step_days)
    lat_rad = np.radians(lat.values)
    lon_rad = np.radians(lon.values)
    omega = 2 * np.pi / period_steps
    sign = -1.0 if eastward else 1.0
    steps = np.arange(ntime)
    phase = wavenumber * lon_rad[None, None, :] + sign * omega * steps[:, None, None]
    envelope = np.exp(-((lat_rad / np.radians(15.0)) ** 2))[None, :, None]
    data = amplitude * envelope * np.cos(phase)
    data += 0.1 * amplitude * rng.standard_normal(data.shape)
    return Variable(
        data, (t, lat, lon), id="olr_anom", units="W m-2",
        long_name="synthetic equatorial wave anomaly",
        attributes={"wavenumber": wavenumber, "period_steps": period_steps,
                    "eastward": bool(eastward)},
    )


def storm_vortex(
    nlat: int = 64,
    nlon: int = 64,
    nlev: int = 20,
    ntime: int = 16,
    seed: int | str = "storm",
) -> Variable:
    """Wind-speed magnitude (m/s) of a translating, tilted 3-D vortex.

    A compact object with genuinely 3-D structure (eyewall maximum that
    weakens and widens with height, westward-then-poleward track) — the
    workload for isosurface and volume-render demonstrations (Fig. 3).
    Shaped (time, level, lat, lon) over a regional domain.
    """
    rng = deterministic_rng(seed)
    lat = Axis("latitude", np.linspace(5.0, 45.0, nlat), units="degrees_north")
    lon = Axis("longitude", np.linspace(120.0, 180.0, nlon), units="degrees_east")
    lev = level_axis(list(np.linspace(1000.0, 100.0, nlev)))
    t = time_axis(np.arange(ntime) * 0.25)  # 6-hourly

    # storm track: westward drift then recurvature poleward
    frac = np.linspace(0.0, 1.0, ntime)
    track_lon = 165.0 - 25.0 * frac
    track_lat = 12.0 + 22.0 * frac**1.7

    lat_v = lat.values[None, None, :, None]
    lon_v = lon.values[None, None, None, :]
    p = lev.values[None, :, None, None]
    # vertical tilt: center shifts slightly west with height
    tilt = (1000.0 - p) / 900.0 * 1.5
    cy = track_lat[:, None, None, None]
    cx = track_lon[:, None, None, None] - tilt
    r = np.sqrt((lat_v - cy) ** 2 + ((lon_v - cx) * np.cos(np.radians(lat_v))) ** 2)

    # Rankine-like eyewall: maximum at r = rmax, calm eye, decay outside;
    # intensity peaks mid-track, core weakens with height
    rmax = 1.2 + (1000.0 - p) / 900.0 * 1.0
    intensity = 25.0 + 30.0 * np.sin(np.pi * frac)[:, None, None, None]
    strength_z = np.exp(-((1000.0 - p) / 650.0) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        profile = np.where(r <= rmax, r / rmax, (rmax / np.maximum(r, 1e-9)) ** 0.7)
    speed = intensity * strength_z * profile
    background = 4.0 + 2.0 * rng.standard_normal((ntime, 1, nlat, nlon)) * 0.5
    data = np.maximum(speed + background, 0.0)
    return Variable(
        data, (t, lev, lat, lon), id="wspd", units="m s-1",
        long_name="wind speed", attributes={"track_lat": list(track_lat), "track_lon": list(track_lon)},
    )


def specific_humidity(
    nlat: int = 46,
    nlon: int = 72,
    nlev: int = 17,
    ntime: int = 12,
    seed: int | str = "humidity",
) -> Variable:
    """Specific humidity (kg/kg): moist tropics, exponential decay aloft."""
    rng = deterministic_rng(seed)
    t, lev, lat, lon = standard_axes(nlat, nlon, nlev, ntime)
    lat_rad = np.radians(lat.values)
    lon_rad = np.radians(lon.values)
    p = lev.values
    surface_q = 0.016 * np.exp(-((lat_rad / np.radians(35.0)) ** 2))  # (nlat,)
    vertical = np.exp(-(1000.0 - p) / 250.0)  # (nlev,)
    data = surface_q[None, None, :, None] * vertical[None, :, None, None]
    data = data * (
        1.0
        + 0.25
        * np.stack([_smooth_noise(rng, lat_rad, lon_rad) for _ in range(ntime)])[:, None, :, :]
    )
    return Variable(
        np.clip(data, 0.0, None), (t, lev, lat, lon), id="hus", units="kg kg-1",
        long_name="specific humidity",
    )
