"""The per-step CDMS → volume translation before it kept a plan — the
reference :mod:`repro.dv3d.translation` is compared against.

``translate_variable``, ``add_variable_to_volume``,
``translate_vector_field`` and ``_resample_to_uniform`` as they shipped
while every call re-derived its grid: the time selection through
``Variable`` indexing, ``squeeze`` and ``reorder``, then one resample per
axis.  The translated arrays (bit for bit), their dtype and the volume's
dimensions, origin and spacing are the contract.  Never imported from
``src/``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.variable import Variable
from repro.rendering.image_data import ImageData
from repro.util.errors import DV3DError

#: scale height (km) for log-pressure altitude z = H ln(p0 / p)
_SCALE_HEIGHT_KM = 7.0
_REFERENCE_PRESSURE = 1000.0


def _level_to_height(levels: np.ndarray, units: str) -> np.ndarray:
    """Vertical coordinate → a height-like coordinate (increasing up)."""
    units = units.lower()
    if units in ("hpa", "mb", "millibar", "millibars"):
        return _SCALE_HEIGHT_KM * np.log(_REFERENCE_PRESSURE / np.maximum(levels, 1e-3))
    if units == "pa":
        return _SCALE_HEIGHT_KM * np.log(_REFERENCE_PRESSURE * 100.0 / np.maximum(levels, 1e-1))
    if units == "km":
        return levels.astype(np.float64)
    if units == "m":
        return levels / 1000.0
    # unknown units: use the raw coordinate
    return levels.astype(np.float64)


def _resample_to_uniform(
    data: np.ndarray, axis: int, coords: np.ndarray
) -> Tuple[np.ndarray, float, float]:
    """Resample *data* along *axis* onto uniform coordinates.

    Returns ``(resampled, origin, spacing)``.  Already-uniform axes
    pass through untouched (within 1e-6 relative tolerance).
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.size
    if n == 1:
        return data, float(coords[0]), 1.0
    increasing = coords[-1] > coords[0]
    work_coords = coords if increasing else coords[::-1]
    work = data if increasing else np.flip(data, axis=axis)
    diffs = np.diff(work_coords)
    if np.any(diffs <= 0):
        raise DV3DError("translation: axis coordinates not strictly monotonic")
    spacing = (work_coords[-1] - work_coords[0]) / (n - 1)
    if np.allclose(diffs, spacing, rtol=1e-6, atol=1e-12):
        return work, float(work_coords[0]), float(spacing)
    targets = work_coords[0] + spacing * np.arange(n)
    frac = np.interp(targets, work_coords, np.arange(n, dtype=np.float64))
    i0 = np.clip(np.floor(frac).astype(np.intp), 0, n - 2)
    t = frac - i0
    lo = np.take(work, i0, axis=axis)
    hi = np.take(work, i0 + 1, axis=axis)
    shape = [1] * data.ndim
    shape[axis] = n
    t = t.reshape(shape)
    return lo * (1.0 - t) + hi * t, float(work_coords[0]), float(spacing)


def _prepare_3d(
    variable: Variable, time_index: Optional[int]
) -> Tuple[np.ndarray, Axis, Axis, Optional[Axis]]:
    """Reduce to a (lon, lat, level?) float array plus its axes."""
    var = variable
    if var.get_time() is not None:
        t_dim = var.axis_index("time")
        n_time = var.shape[t_dim]
        idx = 0 if time_index is None else int(time_index)
        if not 0 <= idx < n_time:
            raise DV3DError(f"time index {idx} out of range [0, {n_time})")
        index = [slice(None)] * var.ndim
        index[t_dim] = idx
        var = var[tuple(index)].squeeze()
        if var.get_time() is not None:  # squeeze kept a length-1 time axis
            var = var[tuple(slice(None) for _ in var.axes)]
    lat = var.get_latitude()
    lon = var.get_longitude()
    if lat is None or lon is None:
        raise DV3DError(
            f"variable {variable.id!r} needs latitude and longitude axes for translation"
        )
    lev = var.get_level()
    order = ["longitude", "latitude"] + (["level"] if lev is not None else [])
    extra = [a.id for a in var.axes if a.designation() not in ("longitude", "latitude", "level")]
    if extra:
        raise DV3DError(
            f"variable {variable.id!r}: unexpected extra axes {extra} after time selection"
        )
    var = var.reorder(order)
    data = var.filled(np.nan).astype(np.float32)
    if lev is None:
        data = data[..., None]
    return data, lon, lat, lev


def translate_variable(
    variable: Variable,
    time_index: Optional[int] = None,
    vertical_exaggeration: Optional[float] = None,
) -> ImageData:
    """Translate a CDMS variable into an ImageData volume.

    World axes: x = longitude (degrees east), y = latitude (degrees
    north), z = height (scaled so the vertical span is ~35% of the
    longitude span unless *vertical_exaggeration* — world z units per
    height km — is given).  Masked values become NaN.  The variable's
    scalars are attached under its ``id``.
    """
    data, lon, lat, lev = _prepare_3d(variable, time_index)
    data, x0, dx = _resample_to_uniform(data, 0, lon.values)
    data, y0, dy = _resample_to_uniform(data, 1, lat.values)
    if lev is not None:
        heights = _level_to_height(lev.values, lev.units)
        data, z0_km, dz_km = _resample_to_uniform(data, 2, heights)
        span_km = dz_km * max(data.shape[2] - 1, 1)
        if vertical_exaggeration is None:
            lon_span = dx * max(data.shape[0] - 1, 1)
            vertical_exaggeration = 0.35 * lon_span / max(span_km, 1e-9)
        z0 = z0_km * vertical_exaggeration
        dz = dz_km * vertical_exaggeration
    else:
        z0, dz = 0.0, 1.0
    volume = ImageData(data.shape, origin=(x0, y0, z0), spacing=(dx, dy, dz))
    volume.add_array(variable.id, data)
    return volume


def add_variable_to_volume(
    volume: ImageData,
    variable: Variable,
    time_index: Optional[int] = None,
) -> None:
    """Attach a second variable's scalars to an existing volume.

    The second variable must produce the same grid shape (the
    Slicer-overlay and Isosurface-coloring plots require spatially
    correspondent volumes).
    """
    data, _lon, _lat, lev = _prepare_3d(variable, time_index)
    data, _, _ = _resample_to_uniform(data, 0, _lon.values)
    data, _, _ = _resample_to_uniform(data, 1, _lat.values)
    if lev is not None:
        heights = _level_to_height(lev.values, lev.units)
        data, _, _ = _resample_to_uniform(data, 2, heights)
    if tuple(data.shape) != volume.dimensions:
        raise DV3DError(
            f"variable {variable.id!r} shape {data.shape} does not match "
            f"volume dims {volume.dimensions}"
        )
    volume.add_array(variable.id, data, set_active=False)



def translate_vector_field(
    u: Variable,
    v: Variable,
    w: Optional[Variable] = None,
    time_index: Optional[int] = None,
    vertical_exaggeration: Optional[float] = None,
    name: str = "vectors",
) -> ImageData:
    """Translate wind components into a volume with a vector array.

    Components must share axes.  The vector array is stored under
    *name*; speed (magnitude) is attached as the active scalar array so
    slicer/volume plots can color by wind speed.
    """
    if u.shape != v.shape or (w is not None and w.shape != u.shape):
        raise DV3DError("vector components must share shape")
    volume = translate_variable(u, time_index, vertical_exaggeration)
    u_arr = volume.get_array(u.id)
    add_variable_to_volume(volume, v, time_index)
    v_arr = volume.get_array(v.id)
    if w is not None:
        add_variable_to_volume(volume, w, time_index)
        w_arr = volume.get_array(w.id)
    else:
        w_arr = np.zeros_like(u_arr)
    vectors = np.stack([u_arr, v_arr, w_arr], axis=-1)
    vectors = np.where(np.isfinite(vectors), vectors, 0.0)
    volume.add_array(name, vectors, set_active=False)
    speed = np.sqrt((vectors**2).sum(axis=-1)).astype(np.float32)
    volume.add_array("speed", speed, set_active=True)
    return volume
