"""CDMS → rendering translation.

"A DV3D translation module converts the processed CDMS data volumes
into VTK image data instances to initialize the visualization branch of
a DV3D workflow."  This module is that stage:

* :func:`translate_variable` — a (time, level, lat, lon) variable at
  one time step becomes an :class:`~repro.rendering.image_data.ImageData`
  whose world coordinates are (longitude°, latitude°, scaled height);
  pressure levels map to log-pressure height so the stratosphere does
  not dominate the box;
* :func:`translate_hovmoller` — a (time, lat, lon) variable becomes a
  volume with **time on the z axis** ("a data volume structured with
  time (instead of height or pressure level) as the vertical
  dimension");
* :func:`translate_vector_field` — u/v(/w) variables become one vector
  array for the Vector slicer.

ImageData requires uniform spacing; non-uniform source axes (pressure
levels, gaussian latitudes) are linearly resampled onto uniform
coordinates with the same point count.

An animation step brings a new time slab on the same grid, so the grid
is derived once: a :class:`TranslationPlan` holds the time dimension,
the dimensions the step squeezes away, the permutation to (lon, lat,
level), each axis's origin and spacing and, for a decreasing or
non-uniform axis, its flip and resample indices and weights.  A plot
keeps one plan per variable it translates and hands it to
:func:`translate_variable` / :func:`add_variable_to_volume`; a step
then costs one ``variable[index]`` (a streamed variable's chunk read),
the time-index check, a transpose, a cast and the kept resample
arithmetic.  Called without a plan, the functions derive one.  Either
way the arrays are those a per-step derivation gives, bit for bit.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cdms.variable import Variable
from repro.rendering.image_data import ImageData
from repro.util.errors import CDMSError, DV3DError

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


def _uniform_axis(
    coords: np.ndarray,
) -> Tuple[bool, float, float, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """How an axis's coordinates become uniform ones with the same count.

    Returns ``(flip, origin, spacing, weights)``: *flip* when the
    coordinates decrease (the data is read reversed), and *weights* the
    ``(i0, t)`` of a linear resample — uniform point *k* lies ``t[k]``
    of the way from source point ``i0[k]`` to ``i0[k] + 1`` — or
    ``None`` for an axis already uniform (within 1e-6 relative
    tolerance), which passes through untouched.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.size
    if n == 1:
        return False, float(coords[0]), 1.0, None
    increasing = coords[-1] > coords[0]
    work_coords = coords if increasing else coords[::-1]
    diffs = np.diff(work_coords)
    if np.any(diffs <= 0):
        raise DV3DError("translation: axis coordinates not strictly monotonic")
    spacing = (work_coords[-1] - work_coords[0]) / (n - 1)
    if np.allclose(diffs, spacing, rtol=1e-6, atol=1e-12):
        return not increasing, float(work_coords[0]), float(spacing), None
    targets = work_coords[0] + spacing * np.arange(n)
    frac = np.interp(targets, work_coords, np.arange(n, dtype=np.float64))
    i0 = np.clip(np.floor(frac).astype(np.intp), 0, n - 2)
    return not increasing, float(work_coords[0]), float(spacing), (i0, frac - i0)


def _resample_to_uniform(
    data: np.ndarray, axis: int, coords: np.ndarray
) -> Tuple[np.ndarray, float, float]:
    """Resample *data* along *axis* onto uniform coordinates.

    Returns ``(resampled, origin, spacing)``.  Already-uniform axes
    pass through untouched (within 1e-6 relative tolerance).
    """
    flip, origin, spacing, weights = _uniform_axis(coords)
    if flip:
        data = np.flip(data, axis=axis)
    if weights is not None:
        data = _resample(data, *_resample_terms(axis, data.ndim, *weights))
    return data, origin, spacing


def _resample_terms(
    axis: int, ndim: int, i0: np.ndarray, t: np.ndarray
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(axis, i0, i0 + 1, 1 - t, t)`` with the weights shaped to
    broadcast along *axis* of an *ndim*-D array: :func:`_resample`'s
    arguments, which a plan keeps."""
    shape = [1] * ndim
    shape[axis] = t.size
    t = t.reshape(shape)
    return axis, i0, i0 + 1, 1.0 - t, t


def _resample(data: np.ndarray, axis: int, i0: np.ndarray, i1: np.ndarray,
              w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Linear resample of *data* along *axis*: ``lo * (1 - t) + hi * t``."""
    return np.take(data, i0, axis=axis) * w0 + np.take(data, i1, axis=axis) * w1


def _first(designations: Sequence[str], name: str) -> Optional[int]:
    """The first axis designated *name*, as ``Variable.get_latitude`` finds it."""
    return next((i for i, d in enumerate(designations) if d == name), None)


class TranslationPlan:
    """What translating a variable's grid costs, paid once.

    Derived from a variable's axes: the time dimension, which other
    dimensions the selected step squeezes away, the permutation to
    (lon, lat, level), and each axis's origin, spacing and — for a
    decreasing or non-uniform one — its flip and resample indices and
    weights.  Every axis, shape and monotonicity check is made here.
    :meth:`slab` then turns one time step into the volume's array with
    one ``variable[index]``, a transpose, a cast and the kept resample
    arithmetic, and :meth:`placement` gives the volume's origin and
    spacing.  A plan refuses a variable whose axes are not the very ones
    it was derived from.
    """

    def __init__(self, variable: Variable) -> None:
        axes = variable.axes
        self.axes = axes
        self.time_dim: Optional[int] = None
        self.n_time = 1
        kept = list(range(len(axes)))
        self._squeeze: Any = ...  # the step's index that drops squeezed dimensions
        if variable.get_time() is not None:
            self.time_dim = t_dim = variable.axis_index("time")
            self.n_time = variable.shape[t_dim]
            # the step is squeezed: its own dimension and every other of length 1
            kept = [d for d, n in enumerate(variable.shape) if d != t_dim and n > 1] or [0]
            self._squeeze = tuple(slice(None) if d in kept else 0 for d in range(len(axes)))
        kept_axes = [axes[d] for d in kept]
        designations = [axis.designation() for axis in kept_axes]
        lon, lat, lev = (_first(designations, name)
                         for name in ("longitude", "latitude", "level"))
        if lat is None or lon is None:
            raise DV3DError(
                f"variable {variable.id!r} needs latitude and longitude axes for translation"
            )
        order = ["longitude", "latitude"] + (["level"] if lev is not None else [])
        extra = [axis.id for axis, d in zip(kept_axes, designations)
                 if d not in ("longitude", "latitude", "level")]
        if extra:
            raise DV3DError(
                f"variable {variable.id!r}: unexpected extra axes {extra} after time selection"
            )
        # Variable.reorder's own checks and its axis lookup by designation or id
        if len(order) != len(kept_axes):
            raise CDMSError(
                f"variable {variable.id!r}: order {order!r} names {len(order)} axes, "
                f"variable has {len(kept_axes)}"
            )
        perm = [next(i for i, (axis, d) in enumerate(zip(kept_axes, designations))
                     if name in (d, axis.id)) for name in order]
        if sorted(perm) != list(range(len(kept_axes))):
            raise CDMSError(f"variable {variable.id!r}: order {order!r} is not a permutation")
        self._perm = tuple(perm)
        self._flat = lev is None  # a unit z dimension is appended
        coords = [kept_axes[lon].values, kept_axes[lat].values]
        if lev is not None:
            coords.append(_level_to_height(kept_axes[lev].values, kept_axes[lev].units))
        placed = [_uniform_axis(c) for c in coords]
        self.dimensions = tuple(c.size for c in coords) + ((1,) if self._flat else ())
        flips = [flip for flip, *_ in placed] + [False] * self._flat
        self._flip = (tuple(slice(None, None, -1) if f else slice(None) for f in flips)
                      if any(flips) else None)
        self._resamples = [_resample_terms(axis, 3, *weights)
                           for axis, (_, _, _, weights) in enumerate(placed)
                           if weights is not None]
        self._placed = [(origin, spacing) for _, origin, spacing, _ in placed]

    def fits(self, variable: Variable) -> bool:
        """Whether *variable*'s axes are the ones this plan was derived from."""
        axes = variable.axes
        return axes is self.axes or (
            len(axes) == len(self.axes) and all(a is b for a, b in zip(axes, self.axes))
        )

    def _arranged(self, array: np.ndarray) -> np.ndarray:
        """A view of the squeezed step's *array* in (lon, lat, level)
        order, each decreasing axis reversed."""
        array = array.transpose(self._perm)
        if self._flat:
            array = array[..., None]
        return array if self._flip is None else array[self._flip]

    def slab(self, variable: Variable, time_index: Optional[int] = None) -> np.ndarray:
        """*variable* at *time_index* on the plan's uniform grid.

        Masked values become NaN.  A time step is one ``variable[index]``
        (for a streamed variable, the chunk read); without a time axis
        the whole variable is the step.  The result is float32, or
        float64 after a resample, shaped :attr:`dimensions`.
        """
        if not self.fits(variable):
            raise DV3DError(
                f"variable {variable.id!r}: axes differ from those its translation "
                f"plan was derived from"
            )
        if self.time_dim is None:
            step = variable.data
        else:
            idx = 0 if time_index is None else int(time_index)
            if not 0 <= idx < self.n_time:
                raise DV3DError(f"time index {idx} out of range [0, {self.n_time})")
            index: List[Any] = [slice(None)] * len(self.axes)
            index[self.time_dim] = idx
            step = variable[tuple(index)].data
        data = self._arranged(np.ma.getdata(step)[self._squeeze]).astype(np.float32, order="C")
        mask = np.ma.getmask(step)
        if mask is not np.ma.nomask:
            np.copyto(data, np.nan, where=self._arranged(mask[self._squeeze]))
        for terms in self._resamples:
            data = _resample(data, *terms)
        return data

    def placement(
        self, vertical_exaggeration: Optional[float] = None
    ) -> Tuple[Tuple[float, float, float], Tuple[float, float, float]]:
        """The volume's ``(origin, spacing)``: longitude and latitude in
        degrees, height scaled so the vertical span is ~35% of the
        longitude span unless *vertical_exaggeration* (world z units per
        height km) is given; a variable without levels gets z 0, 1."""
        (x0, dx), (y0, dy) = self._placed[:2]
        if self._flat:
            return (x0, y0, 0.0), (dx, dy, 1.0)
        z0_km, dz_km = self._placed[2]
        span_km = dz_km * max(self.dimensions[2] - 1, 1)
        if vertical_exaggeration is None:
            lon_span = dx * max(self.dimensions[0] - 1, 1)
            vertical_exaggeration = 0.35 * lon_span / max(span_km, 1e-9)
        return (x0, y0, z0_km * vertical_exaggeration), (dx, dy, dz_km * vertical_exaggeration)


def translate_variable(
    variable: Variable,
    time_index: Optional[int] = None,
    vertical_exaggeration: Optional[float] = None,
    plan: Optional[TranslationPlan] = None,
) -> ImageData:
    """Translate a CDMS variable into an ImageData volume.

    World axes: x = longitude (degrees east), y = latitude (degrees
    north), z = height (scaled so the vertical span is ~35% of the
    longitude span unless *vertical_exaggeration* — world z units per
    height km — is given).  Masked values become NaN.  The variable's
    scalars are attached under its ``id``.  *plan* is the variable's
    kept :class:`TranslationPlan`; without one, one is derived.
    """
    with obs.span("translation.translate", variable=variable.id):
        if plan is None:
            plan = TranslationPlan(variable)
        data = plan.slab(variable, time_index)
        volume = ImageData(plan.dimensions, *plan.placement(vertical_exaggeration))
        volume.add_array(variable.id, data)
    return volume


def add_variable_to_volume(
    volume: ImageData,
    variable: Variable,
    time_index: Optional[int] = None,
    plan: Optional[TranslationPlan] = None,
) -> None:
    """Attach a second variable's scalars to an existing volume.

    The second variable must produce the same grid shape (the
    Slicer-overlay and Isosurface-coloring plots require spatially
    correspondent volumes).  *plan* is as for :func:`translate_variable`.
    """
    with obs.span("translation.translate", variable=variable.id):
        if plan is None:
            plan = TranslationPlan(variable)
        data = plan.slab(variable, time_index)
        if plan.dimensions != volume.dimensions:
            raise DV3DError(
                f"variable {variable.id!r} shape {plan.dimensions} does not match "
                f"volume dims {volume.dimensions}"
            )
        volume.add_array(variable.id, data, set_active=False)


def translate_hovmoller(
    variable: Variable,
    level_index: Optional[int] = None,
    vertical_fraction: float = 0.5,
) -> ImageData:
    """Translate a time series into a volume with time as the z axis.

    Input must have (time, lat, lon) axes (a level axis is reduced with
    *level_index*, default 0).  World z spans ``vertical_fraction`` of
    the longitude span, so long series stay in frame.
    """
    var = variable
    if var.get_time() is None:
        raise DV3DError(f"variable {var.id!r} has no time axis for a Hovmöller volume")
    if var.get_level() is not None:
        l_dim = var.axis_index("level")
        index = [slice(None)] * var.ndim
        index[l_dim] = 0 if level_index is None else int(level_index)
        var = var[tuple(index)].squeeze()
    lat, lon = var.get_latitude(), var.get_longitude()
    if lat is None or lon is None:
        raise DV3DError(f"variable {var.id!r} needs lat/lon axes")
    var = var.reorder(["longitude", "latitude", "time"])
    data = var.filled(np.nan).astype(np.float32)
    data, x0, dx = _resample_to_uniform(data, 0, lon.values)
    data, y0, dy = _resample_to_uniform(data, 1, lat.values)
    time_axis = var.get_time()
    assert time_axis is not None
    data, t0, dt = _resample_to_uniform(data, 2, time_axis.values)
    n_time = data.shape[2]
    lon_span = dx * max(data.shape[0] - 1, 1)
    z_span = vertical_fraction * lon_span
    dz = z_span / max(n_time - 1, 1)
    volume = ImageData(data.shape, origin=(x0, y0, 0.0), spacing=(dx, dy, dz))
    volume.add_array(variable.id, data)
    return volume


def translate_vector_field(
    u: Variable,
    v: Variable,
    w: Optional[Variable] = None,
    time_index: Optional[int] = None,
    vertical_exaggeration: Optional[float] = None,
    name: str = "vectors",
    plans: Sequence[Optional[TranslationPlan]] = (None, None, None),
) -> ImageData:
    """Translate wind components into a volume with a vector array.

    Components must share axes.  The vector array is stored under
    *name*; speed (magnitude) is attached as the active scalar array so
    slicer/volume plots can color by wind speed.  *plans* are the kept
    plans of u, v and w, as for :func:`translate_variable`.
    """
    if u.shape != v.shape or (w is not None and w.shape != u.shape):
        raise DV3DError("vector components must share shape")
    plan_u, plan_v, plan_w = plans
    volume = translate_variable(u, time_index, vertical_exaggeration, plan_u)
    u_arr = volume.get_array(u.id)
    add_variable_to_volume(volume, v, time_index, plan_v)
    v_arr = volume.get_array(v.id)
    if w is not None:
        add_variable_to_volume(volume, w, time_index, plan_w)
        w_arr = volume.get_array(w.id)
    else:
        w_arr = np.zeros_like(u_arr)
    vectors = np.stack([u_arr, v_arr, w_arr], axis=-1)
    vectors = np.where(np.isfinite(vectors), vectors, 0.0)
    volume.add_array(name, vectors, set_active=False)
    speed = np.sqrt((vectors**2).sum(axis=-1)).astype(np.float32)
    volume.add_array("speed", speed, set_active=True)
    return volume
