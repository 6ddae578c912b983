"""Structured volumes — the ``vtkImageData`` analog.

An :class:`ImageData` is a regular 3-D grid defined by ``dimensions``
(nx, ny, nz), ``origin`` and ``spacing``, carrying named point-data
arrays (scalars shaped ``(nx, ny, nz)`` or vectors shaped
``(nx, ny, nz, 3)``).  The DV3D translation module converts CDMS
variables into these; every visualization algorithm in this package
consumes them.

Index convention: array index ``[i, j, k]`` ↔ world position
``origin + (i, j, k) * spacing`` — i.e. x varies along axis 0.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy import ndimage

from repro.util.errors import RenderingError

Vec3 = Tuple[float, float, float]


class ImageData:
    """A regular structured grid with named point-data arrays."""

    def __init__(
        self,
        dimensions: Tuple[int, int, int],
        origin: Vec3 = (0.0, 0.0, 0.0),
        spacing: Vec3 = (1.0, 1.0, 1.0),
    ) -> None:
        dims = tuple(int(d) for d in dimensions)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise RenderingError(f"bad dimensions {dimensions!r}")
        if any(s <= 0 for s in spacing):
            raise RenderingError(f"spacing must be positive, got {spacing!r}")
        self.dimensions = dims
        self.origin = tuple(float(v) for v in origin)
        self.spacing = tuple(float(v) for v in spacing)
        self._arrays: Dict[str, np.ndarray] = {}
        self._active_scalars: Optional[str] = None
        #: per-array derived products (gradients, per-cell min/max) —
        #: invalidated whenever the array is (re)attached
        self._derived: Dict[tuple, object] = {}

    # -- structure -------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"ImageData(dims={self.dimensions}, origin={self.origin}, "
            f"spacing={self.spacing}, arrays={sorted(self._arrays)})"
        )

    @property
    def n_points(self) -> int:
        nx, ny, nz = self.dimensions
        return nx * ny * nz

    def bounds(self) -> Tuple[float, float, float, float, float, float]:
        """(xmin, xmax, ymin, ymax, zmin, zmax) of the grid extent."""
        out = []
        for axis in range(3):
            lo = self.origin[axis]
            hi = lo + (self.dimensions[axis] - 1) * self.spacing[axis]
            out.extend((lo, hi))
        return tuple(out)  # type: ignore[return-value]

    def center(self) -> np.ndarray:
        b = self.bounds()
        return np.array([(b[0] + b[1]) / 2, (b[2] + b[3]) / 2, (b[4] + b[5]) / 2])

    def diagonal(self) -> float:
        b = self.bounds()
        return float(np.sqrt((b[1] - b[0]) ** 2 + (b[3] - b[2]) ** 2 + (b[5] - b[4]) ** 2))

    # -- point data ---------------------------------------------------------

    def add_array(self, name: str, values: np.ndarray, set_active: bool = True) -> None:
        """Attach a point-data array (scalar ``dims`` or vector ``dims+(3,)``)."""
        arr = np.ascontiguousarray(values, dtype=np.float32)
        if arr.shape != self.dimensions and arr.shape != self.dimensions + (3,):
            raise RenderingError(
                f"array {name!r} shape {arr.shape} incompatible with dims {self.dimensions}"
            )
        self._arrays[name] = arr
        for key in [k for k in self._derived if k[0] == name]:
            del self._derived[key]
        if set_active and arr.ndim == 3:
            self._active_scalars = name

    def get_array(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise RenderingError(
                f"no array {name!r}; available: {sorted(self._arrays)}"
            ) from None

    def has_array(self, name: str) -> bool:
        return name in self._arrays

    @property
    def active_scalars_name(self) -> str:
        if self._active_scalars is None:
            raise RenderingError("no active scalar array")
        return self._active_scalars

    def set_active_scalars(self, name: str) -> None:
        arr = self.get_array(name)
        if arr.ndim != 3:
            raise RenderingError(f"array {name!r} is not a scalar array")
        self._active_scalars = name

    @property
    def scalars(self) -> np.ndarray:
        return self.get_array(self.active_scalars_name)

    def scalar_range(self, name: Optional[str] = None) -> Tuple[float, float]:
        arr = self.get_array(name or self.active_scalars_name)
        valid = arr[np.isfinite(arr)]
        if valid.size == 0:
            raise RenderingError("scalar array holds no finite values")
        return float(valid.min()), float(valid.max())

    # -- coordinates ------------------------------------------------------------

    def index_to_world(self, ijk: np.ndarray) -> np.ndarray:
        """Continuous index coordinates → world coordinates (vectorized)."""
        ijk = np.asarray(ijk, dtype=np.float64)
        return np.asarray(self.origin) + ijk * np.asarray(self.spacing)

    def world_to_index(self, xyz: np.ndarray) -> np.ndarray:
        """World coordinates → continuous index coordinates (vectorized)."""
        xyz = np.asarray(xyz, dtype=np.float64)
        return (xyz - np.asarray(self.origin)) / np.asarray(self.spacing)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """World coordinates of grid points along one axis (0=x, 1=y, 2=z)."""
        return self.origin[axis] + np.arange(self.dimensions[axis]) * self.spacing[axis]

    # -- sampling -----------------------------------------------------------------

    def sample(
        self,
        points_world: np.ndarray,
        name: Optional[str] = None,
        fill: float = np.nan,
    ) -> np.ndarray:
        """Trilinear sampling of a scalar array at world-space points.

        *points_world* is ``(n, 3)``; points outside the grid yield
        *fill*.  Uses :func:`scipy.ndimage.map_coordinates` (order 1).
        """
        idx = self.world_to_index(np.atleast_2d(points_world)).T  # (3, n)
        return self.sample_index(idx, name, fill)

    def sample_index(
        self,
        idx: np.ndarray,
        name: Optional[str] = None,
        fill: float = np.nan,
    ) -> np.ndarray:
        """:meth:`sample` at continuous index coordinates shaped ``(3, n)``."""
        arr = self.get_array(name or self.active_scalars_name)
        if arr.ndim != 3:
            raise RenderingError("sample() requires a scalar array")
        # output dtype pinned to the array's own (float32) — relying on
        # the implicit default would let a library change silently
        # promote samples and shift the goldens
        values = ndimage.map_coordinates(
            arr, idx, order=1, mode="constant", cval=fill, prefilter=False,
            output=arr.dtype,
        )
        return values

    def sample_vector(self, points_world: np.ndarray, name: str, fill: float = 0.0) -> np.ndarray:
        """Trilinear sampling of a vector array → ``(n, 3)``."""
        arr = self.get_array(name)
        if arr.ndim != 4:
            raise RenderingError(f"array {name!r} is not a vector array")
        idx = self.world_to_index(np.atleast_2d(points_world)).T
        out = np.empty((idx.shape[1], 3), dtype=np.float64)
        for c in range(3):
            # interpolate at the array's own precision (float32), then
            # widen — pinned so numpy/scipy promotion-rule changes
            # cannot shift the interpolated values
            out[:, c] = ndimage.map_coordinates(
                arr[..., c], idx, order=1, mode="constant", cval=fill,
                prefilter=False, output=arr.dtype,
            )
        return out

    # -- slicing ----------------------------------------------------------------

    def extract_slice(
        self, axis: int, world_coord: float, name: Optional[str] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated planar slice at ``world_coord`` along *axis*.

        Returns ``(values, u_coords, v_coords)`` where ``values`` is the
        2-D slice (shaped by the two remaining axes, in axis order) and
        ``u/v`` are world coordinates along those axes.
        """
        values = self.slice_values(axis, world_coord, name)
        other = [a for a in range(3) if a != axis]
        return values, self.axis_coordinates(other[0]), self.axis_coordinates(other[1])

    def slice_values(
        self, axis: int, world_coord: float, name: Optional[str] = None
    ) -> np.ndarray:
        """The values of :meth:`extract_slice`, without the coordinates."""
        if axis not in (0, 1, 2):
            raise RenderingError(f"axis must be 0, 1 or 2, got {axis}")
        arr = self.get_array(name or self.active_scalars_name)
        if arr.ndim != 3:
            raise RenderingError("extract_slice() requires a scalar array")
        frac_index = (world_coord - self.origin[axis]) / self.spacing[axis]
        n = self.dimensions[axis]
        frac_index = float(np.clip(frac_index, 0.0, n - 1))
        i0 = int(np.floor(frac_index))
        i1 = min(i0 + 1, n - 1)
        t = frac_index - i0
        lo = np.take(arr, i0, axis=axis)
        hi = np.take(arr, i1, axis=axis)
        # blend at the array's own precision: the weights are cast to
        # float32 up front (exactly what scalar promotion does today)
        # so the result cannot drift if promotion rules change
        w1 = arr.dtype.type(1.0 - t)
        w0 = arr.dtype.type(t)
        return w1 * lo + w0 * hi

    def gradient(self, name: Optional[str] = None) -> np.ndarray:
        """Central-difference gradient of a scalar array, ``dims + (3,)``.

        Used for volume-render shading normals and isosurface normals.
        The values are ``np.gradient``'s for uniform spacing with
        ``edge_order=1`` (computed in float64), except along a one-point
        axis, where the field has no derivative and the component is 0.
        Each component is one contiguous plane (``gradient[..., c]``) of
        a ``(3,) + dims`` buffer.  Cached per array (a volume invariant
        re-used by every render of the same data) and read-only.
        """
        name = name or self.active_scalars_name
        key = (name, "gradient")
        cached = self._derived.get(key)
        if cached is None:
            arr = self.get_array(name)
            planes = np.zeros((3,) + arr.shape, dtype=np.float64)
            for axis, h in enumerate(self.spacing):
                if arr.shape[axis] > 1:
                    _central_difference(arr, axis, h, planes[axis])
            planes.flags.writeable = False
            cached = np.moveaxis(planes, 0, -1)
            self._derived[key] = cached
        return cached  # type: ignore[return-value]

    def gradient_has_inf(self, name: Optional[str] = None) -> bool:
        """Whether :meth:`gradient` holds any ±inf (cached per array).

        Only then can a gradient-shaded sample be NaN: the ray caster
        asks before it shades only the samples that carry opacity.
        """
        name = name or self.active_scalars_name
        key = (name, "gradient_has_inf")
        cached = self._derived.get(key)
        if cached is None:
            cached = bool(np.isinf(self.gradient(name)).any())
            self._derived[key] = cached
        return cached  # type: ignore[return-value]

    def min_max_pyramid(self, name: Optional[str] = None):
        """The cached :class:`repro.rendering.accel.MinMaxPyramid` of an array.

        Built lazily on first use and re-used by every subsequent
        render of the same volume (empty-space skipping, isosurface
        cell culling).
        """
        from repro.rendering.accel import MinMaxPyramid

        name = name or self.active_scalars_name
        key = (name, "minmax")
        cached = self._derived.get(key)
        if cached is None:
            arr = self.get_array(name)
            if arr.ndim != 3:
                raise RenderingError("min_max_pyramid() requires a scalar array")
            cached = MinMaxPyramid.build(arr)
            self._derived[key] = cached
        return cached


def _central_difference(arr: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    """``np.gradient(arr.astype(np.float64), h, axis=axis)`` into *out*.

    The same expressions — ``(f[i+1] − f[i−1]) / (2·h)`` inside and
    ``(f[1] − f[0]) / h``, ``(f[−1] − f[−2]) / h`` at the two edges —
    with the difference taken in float64 straight from *arr*, so neither
    a widened copy nor per-axis temporaries are made.  Needs at least
    two points along *axis*.
    """
    a = np.moveaxis(arr, axis, 0)
    o = np.moveaxis(out, axis, 0)
    np.subtract(a[2:], a[:-2], out=o[1:-1], dtype=np.float64)
    np.divide(o[1:-1], 2.0 * h, out=o[1:-1])
    np.subtract(a[1], a[0], out=o[0], dtype=np.float64)
    np.subtract(a[-1], a[-2], out=o[-1], dtype=np.float64)
    np.divide(o[0], h, out=o[0])
    np.divide(o[-1], h, out=o[-1])
