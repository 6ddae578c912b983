"""Coordinate axes (the CDMS ``Axis`` analog).

An axis is a named, monotonic 1-D coordinate with CF-style metadata:
units, optional cell bounds, and — for time axes — a calendar.  Axes
know how to recognise themselves as latitude / longitude / level / time
(CDMS's ``isLatitude()`` family), map coordinate intervals onto index
ranges (``mapInterval``), and subset consistently with their bounds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cdms.calendar import Calendar, ComponentTime, RelativeTime
from repro.util.errors import CDMSError

_LATITUDE_UNITS = {"degrees_north", "degree_north", "degrees_n", "degreen", "degrees north"}
_LONGITUDE_UNITS = {"degrees_east", "degree_east", "degrees_e", "degreee", "degrees east"}
_LEVEL_UNITS = {"hpa", "pa", "mb", "millibar", "millibars", "m", "km", "level", "sigma"}

AxisValue = Union[float, str, ComponentTime]


class Axis:
    """A monotonic 1-D coordinate axis with CF metadata.

    Parameters
    ----------
    id:
        Axis name, e.g. ``"latitude"`` or ``"time"``.
    values:
        1-D array of coordinate values; must be strictly monotonic
        (increasing or decreasing) when it has more than one point.
    units:
        CF units string.  For time axes use ``"<unit> since <epoch>"``.
    bounds:
        Optional ``(n, 2)`` cell-bounds array.  When omitted,
        :meth:`gen_bounds` can synthesise contiguous midpoint bounds.
    calendar:
        Calendar name for time axes (default ``"standard"``).
    attributes:
        Free-form CF attribute dictionary (``standard_name`` etc.).
    """

    def __init__(
        self,
        id: str,
        values: Sequence[float],
        units: str = "",
        bounds: Optional[np.ndarray] = None,
        calendar: str = "standard",
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 1:
            raise CDMSError(f"axis {id!r}: values must be 1-D, got shape {data.shape}")
        if data.size == 0:
            raise CDMSError(f"axis {id!r}: empty axis not allowed")
        if data.size > 1:
            diffs = np.diff(data)
            if not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise CDMSError(f"axis {id!r}: values must be strictly monotonic")
        self.id = id
        self._values = data
        self._values.flags.writeable = False
        self.units = units
        self.calendar = Calendar(calendar)
        self.attributes: Dict[str, object] = dict(attributes or {})
        self._bounds: Optional[np.ndarray] = None
        if bounds is not None:
            self.set_bounds(np.asarray(bounds, dtype=np.float64))

    # -- basic protocol -------------------------------------------------

    def __len__(self) -> int:
        return int(self._values.size)

    def __repr__(self) -> str:
        return (
            f"Axis(id={self.id!r}, n={len(self)}, units={self.units!r}, "
            f"range=({self._values[0]:g}, {self._values[-1]:g}))"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Axis):
            return NotImplemented
        return (
            self.id == other.id
            and self.units == other.units
            and self.calendar == other.calendar
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((self.id, self.units, self._values.tobytes()))

    @property
    def values(self) -> np.ndarray:
        """The (read-only) coordinate array."""
        return self._values

    def __getitem__(self, index: Union[int, slice]) -> Union[float, "Axis"]:
        if isinstance(index, slice):
            return self.subaxis_slice(index)
        return float(self._values[index])

    @property
    def increasing(self) -> bool:
        return len(self) < 2 or bool(self._values[1] > self._values[0])

    # -- designation ----------------------------------------------------

    def is_latitude(self) -> bool:
        if str(self.attributes.get("axis", "")).upper() == "Y":
            return True
        if self.units.lower() in _LATITUDE_UNITS:
            return True
        return self.id.lower() in ("latitude", "lat", "lats")

    def is_longitude(self) -> bool:
        if str(self.attributes.get("axis", "")).upper() == "X":
            return True
        if self.units.lower() in _LONGITUDE_UNITS:
            return True
        return self.id.lower() in ("longitude", "lon", "lons")

    def is_level(self) -> bool:
        if str(self.attributes.get("axis", "")).upper() == "Z":
            return True
        if self.units.lower() in _LEVEL_UNITS and not (self.is_latitude() or self.is_longitude()):
            return True
        return self.id.lower() in ("level", "lev", "levels", "plev", "height", "depth", "altitude")

    def is_time(self) -> bool:
        if str(self.attributes.get("axis", "")).upper() == "T":
            return True
        if " since " in self.units.lower():
            return True
        return self.id.lower() in ("time", "t")

    def designation(self) -> str:
        """One of ``"latitude" | "longitude" | "level" | "time" | "other"``."""
        if self.is_time():
            return "time"
        if self.is_latitude():
            return "latitude"
        if self.is_longitude():
            return "longitude"
        if self.is_level():
            return "level"
        return "other"

    # -- bounds ----------------------------------------------------------

    def set_bounds(self, bounds: np.ndarray) -> None:
        if bounds.shape != (len(self), 2):
            raise CDMSError(
                f"axis {self.id!r}: bounds shape {bounds.shape} != ({len(self)}, 2)"
            )
        self._bounds = np.array(bounds, dtype=np.float64)
        self._bounds.flags.writeable = False

    def get_bounds(self) -> Optional[np.ndarray]:
        return self._bounds

    def gen_bounds(self) -> np.ndarray:
        """Return (caching) contiguous midpoint cell bounds.

        Latitude bounds are clipped to [-90, 90] as CDMS does.
        """
        if self._bounds is not None:
            return self._bounds
        v = self._values
        if len(v) == 1:
            half = 0.5 if not self.is_latitude() else 0.5
            edges = np.array([v[0] - half, v[0] + half])
        else:
            mids = 0.5 * (v[:-1] + v[1:])
            first = v[0] - (mids[0] - v[0])
            last = v[-1] + (v[-1] - mids[-1])
            edges = np.concatenate([[first], mids, [last]])
        bounds = np.stack([edges[:-1], edges[1:]], axis=1)
        if self.is_latitude():
            bounds = np.clip(bounds, -90.0, 90.0)
        self._bounds = bounds
        self._bounds.flags.writeable = False
        return self._bounds

    def cell_widths(self) -> np.ndarray:
        bounds = self.gen_bounds()
        return np.abs(bounds[:, 1] - bounds[:, 0])

    # -- time handling ----------------------------------------------------

    def as_component_time(self) -> list:
        """For a time axis, return the values as :class:`ComponentTime`."""
        if not self.is_time():
            raise CDMSError(f"axis {self.id!r} is not a time axis")
        return [RelativeTime(float(v), self.units).to_component(self.calendar) for v in self._values]

    def _coerce(self, value: AxisValue) -> float:
        """Convert a user-facing coordinate (number, time string, or
        ComponentTime) to the axis's native numeric coordinate."""
        if isinstance(value, (int, float, np.floating, np.integer)):
            return float(value)
        if self.is_time():
            ct = ComponentTime.parse(value) if isinstance(value, str) else value
            if not isinstance(ct, ComponentTime):
                raise CDMSError(f"cannot interpret {value!r} as a time coordinate")
            return RelativeTime.from_component(ct, self.units, self.calendar).value
        raise CDMSError(f"cannot interpret {value!r} as a coordinate on axis {self.id!r}")

    # -- interval mapping -------------------------------------------------

    def map_interval(self, low: AxisValue, high: AxisValue) -> Tuple[int, int]:
        """Map a closed coordinate interval to a half-open index range.

        Returns ``(i0, i1)`` such that ``values[i0:i1]`` are exactly the
        points inside ``[min(low,high), max(low,high)]``.  Raises
        :class:`CDMSError` when no points fall inside (CDMS returns
        None; an exception is harder to ignore accidentally).
        """
        lo = self._coerce(low)
        hi = self._coerce(high)
        if lo > hi:
            lo, hi = hi, lo
        inside = (self._values >= lo - 1e-12) & (self._values <= hi + 1e-12)
        idx = np.nonzero(inside)[0]
        if idx.size == 0:
            raise CDMSError(
                f"axis {self.id!r}: interval ({low}, {high}) contains no points "
                f"(axis range {self._values.min():g}..{self._values.max():g})"
            )
        return int(idx[0]), int(idx[-1]) + 1

    def nearest_index(self, value: AxisValue) -> int:
        """Index of the coordinate nearest to *value*."""
        target = self._coerce(value)
        return int(np.argmin(np.abs(self._values - target)))

    # -- subsetting ---------------------------------------------------------

    def subaxis_slice(self, index: slice) -> "Axis":
        """Return a new axis for ``values[index]``, bounded by the same
        rows of this axis's bounds, explicit or generated, so a slice's
        bounds never depend on what was called on this axis before."""
        values = self._values[index]
        if values.size == 0:
            raise CDMSError(f"axis {self.id!r}: slice {index} selects no points")
        return Axis(
            self.id,
            values,
            units=self.units,
            bounds=self.gen_bounds()[index],
            calendar=self.calendar.name,
            attributes=dict(self.attributes),
        )

    def clone(self) -> "Axis":
        return Axis(
            self.id,
            self._values.copy(),
            units=self.units,
            bounds=None if self._bounds is None else self._bounds.copy(),
            calendar=self.calendar.name,
            attributes=dict(self.attributes),
        )

    # -- weights -------------------------------------------------------------

    def area_weights(self) -> np.ndarray:
        """Per-point quadrature weights.

        Latitude axes weight by the difference of sines of the bound
        latitudes (exact sphere-area weighting); all other axes weight
        by cell width.  Weights are normalised to sum to 1.
        """
        if self.is_latitude():
            bounds = np.radians(self.gen_bounds())
            weights = np.abs(np.sin(bounds[:, 1]) - np.sin(bounds[:, 0]))
        else:
            weights = self.cell_widths()
        total = weights.sum()
        if total <= 0:
            raise CDMSError(f"axis {self.id!r}: degenerate weights")
        return weights / total


# -- convenience constructors ----------------------------------------------


def create_axis(
    id: str,
    values: Sequence[float],
    units: str = "",
    **kwargs: object,
) -> Axis:
    """Create a generic axis (thin alias of the constructor)."""
    return Axis(id, values, units=units, **kwargs)  # type: ignore[arg-type]


def latitude_axis(values: Sequence[float]) -> Axis:
    return Axis("latitude", values, units="degrees_north", attributes={"axis": "Y"})


def longitude_axis(values: Sequence[float]) -> Axis:
    return Axis("longitude", values, units="degrees_east", attributes={"axis": "X"})


def level_axis(values: Sequence[float], units: str = "hPa") -> Axis:
    return Axis("level", values, units=units, attributes={"axis": "Z"})


def time_axis(
    values: Sequence[float],
    units: str = "days since 1979-01-01",
    calendar: str = "standard",
) -> Axis:
    return Axis("time", values, units=units, calendar=calendar, attributes={"axis": "T"})


def uniform_latitude(n: int) -> Axis:
    """*n* equally spaced latitudes with endpoints at the poles inset by half a cell."""
    step = 180.0 / n
    values = np.linspace(-90.0 + step / 2, 90.0 - step / 2, n)
    return latitude_axis(values)


def uniform_longitude(n: int) -> Axis:
    """*n* equally spaced longitudes in [0, 360)."""
    values = np.arange(n) * (360.0 / n)
    return longitude_axis(values)
