"""Metadata-carrying variables (the CDMS ``TransientVariable`` analog).

A :class:`Variable` binds an N-D masked numpy array to a tuple of
:class:`~repro.cdms.axis.Axis` objects (one per dimension) plus CF
attributes.  The central contract — the one every DV3D pipeline stage
relies on — is that **axes follow the data**: slicing, coordinate
subsetting, arithmetic, reordering and reductions all produce variables
whose axes still describe their dimensions correctly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.grid import RectilinearGrid
from repro.cdms.selectors import Selector
from repro.util.errors import CDMSError

DEFAULT_MISSING = 1.0e20

#: canonical CDMS dimension-order characters
_ORDER_CHARS = {"time": "t", "level": "z", "latitude": "y", "longitude": "x"}


class Variable:
    """An N-D climate variable: masked data + axes + attributes.

    Parameters
    ----------
    data:
        Array-like (plain or masked).  Stored as a
        :class:`numpy.ma.MaskedArray` of ``float32`` or ``float64``.
    axes:
        One :class:`Axis` per dimension; lengths must match ``data.shape``.
    id:
        Variable name (e.g. ``"tas"``).
    units, long_name:
        Common CF attributes, also accessible via ``attributes``.
    missing_value:
        Fill value recorded for storage; masked elements are encoded
        with this value in the ``.cdz`` container.
    """

    def __init__(
        self,
        data: Any,
        axes: Sequence[Axis],
        id: str = "variable",
        units: str = "",
        long_name: str = "",
        missing_value: float = DEFAULT_MISSING,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        arr = np.ma.asarray(data)
        if arr.dtype.kind not in "fiu":
            raise CDMSError(f"variable {id!r}: unsupported dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float64)
        axes = tuple(axes)
        if len(axes) != arr.ndim:
            raise CDMSError(
                f"variable {id!r}: {len(axes)} axes for {arr.ndim}-D data"
            )
        for dim, axis in enumerate(axes):
            if len(axis) != arr.shape[dim]:
                raise CDMSError(
                    f"variable {id!r}: axis {axis.id!r} has {len(axis)} points "
                    f"but dimension {dim} has extent {arr.shape[dim]}"
                )
        self.id = id
        self._data: np.ma.MaskedArray = arr
        self._axes: Tuple[Axis, ...] = axes
        self.missing_value = float(missing_value)
        self.attributes: Dict[str, object] = dict(attributes or {})
        if units:
            self.attributes["units"] = units
        if long_name:
            self.attributes["long_name"] = long_name

    # -- basic protocol --------------------------------------------------

    def __repr__(self) -> str:
        dims = ", ".join(f"{a.id}={len(a)}" for a in self._axes)
        return f"Variable(id={self.id!r}, shape=({dims}), units={self.units!r})"

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self._data.shape)

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def size(self) -> int:
        return int(self._data.size)

    @property
    def units(self) -> str:
        return str(self.attributes.get("units", ""))

    @units.setter
    def units(self, value: str) -> None:
        self.attributes["units"] = value

    @property
    def long_name(self) -> str:
        return str(self.attributes.get("long_name", ""))

    @property
    def data(self) -> np.ma.MaskedArray:
        """The underlying masked array (shared, not a copy)."""
        return self._data

    @property
    def mask(self) -> np.ndarray:
        """Boolean mask broadcast to full shape (False where valid)."""
        return np.ma.getmaskarray(self._data)

    def filled(self, fill: Optional[float] = None) -> np.ndarray:
        """Plain ndarray with masked elements replaced by *fill*."""
        return self._data.filled(self.missing_value if fill is None else fill)

    def compressed(self) -> np.ndarray:
        """1-D array of the valid (unmasked) values."""
        return self._data.compressed()

    def valid_fraction(self) -> float:
        return 1.0 - float(self.mask.sum()) / max(self.size, 1)

    def finite_range(self) -> Optional[Tuple[float, float]]:
        """(min, max) over valid finite values, or None when there are none.

        The scalar-range primitive the DV3D plot types consume.  Lazy
        (streaming) variables override this with manifest statistics so
        asking for a range never materializes payload data.
        """
        values = self.compressed()
        values = values[np.isfinite(values)]
        if values.size == 0:
            return None
        return float(values.min()), float(values.max())

    # -- slab iteration (the out-of-core protocol; see repro.cdms.slabs) ---

    def slab_count(self) -> int:
        """How many slabs :meth:`iter_slabs` yields (1 for in-memory)."""
        return 1

    def slab_axis(self) -> int:
        """Dimension along which :meth:`iter_slabs` partitions.

        The time dimension when there is one (the axis the chunked
        container writer partitions along), else dimension 0.  Lazy
        variables override this with their container's chunk axis.
        """
        for dim, axis in enumerate(self._axes):
            if axis.designation() == "time":
                return dim
        return 0

    def iter_slabs(self) -> Iterator[np.ma.MaskedArray]:
        """Yield the payload as storage-order masked arrays along ``slab_axis``.

        In-memory variables are one slab, their own data.  Lazy
        variables yield one read-only view per chunk, so reductions
        written as folds over slabs (the ``repro.cdat`` accumulator
        kernels) stay within the streaming memory budget.
        """
        yield self._data

    # -- axes -----------------------------------------------------------

    @property
    def axes(self) -> Tuple[Axis, ...]:
        return self._axes

    def get_axis(self, index: int) -> Axis:
        return self._axes[index]

    def axis_index(self, designation_or_id: str) -> int:
        """Dimension index of the axis matching a designation or id."""
        for i, axis in enumerate(self._axes):
            if axis.designation() == designation_or_id or axis.id == designation_or_id:
                return i
        raise CDMSError(f"variable {self.id!r}: no axis {designation_or_id!r}")

    def _axis_by_designation(self, designation: str) -> Optional[Axis]:
        for axis in self._axes:
            if axis.designation() == designation:
                return axis
        return None

    def get_latitude(self) -> Optional[Axis]:
        return self._axis_by_designation("latitude")

    def get_longitude(self) -> Optional[Axis]:
        return self._axis_by_designation("longitude")

    def get_level(self) -> Optional[Axis]:
        return self._axis_by_designation("level")

    def get_time(self) -> Optional[Axis]:
        return self._axis_by_designation("time")

    def get_grid(self) -> Optional[RectilinearGrid]:
        lat, lon = self.get_latitude(), self.get_longitude()
        if lat is None or lon is None:
            return None
        return RectilinearGrid(lat, lon)

    def order(self) -> str:
        """CDMS order string, e.g. ``"tzyx"`` (``-`` for other axes)."""
        return "".join(_ORDER_CHARS.get(a.designation(), "-") for a in self._axes)

    # -- copying / dtype ---------------------------------------------------

    def clone(self, deep: bool = True) -> "Variable":
        data = self._data.copy() if deep else self._data
        return Variable(
            data,
            tuple(a.clone() for a in self._axes) if deep else self._axes,
            id=self.id,
            missing_value=self.missing_value,
            attributes=dict(self.attributes),
        )

    def astype(self, dtype: Any) -> "Variable":
        return self._rewrap(self._data.astype(dtype), self._axes)

    def _rewrap(
        self,
        data: np.ma.MaskedArray,
        axes: Sequence[Axis],
        id: Optional[str] = None,
        **attr_updates: object,
    ) -> "Variable":
        attrs = dict(self.attributes)
        attrs.update(attr_updates)
        return Variable(
            data,
            axes,
            id=id or self.id,
            missing_value=self.missing_value,
            attributes=attrs,
        )

    # -- indexing -----------------------------------------------------------

    def _index(self, key: Any) -> Tuple[slice, ...]:
        """*key* as one slice per dimension (an int keeps its dimension)."""
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > self.ndim:
            raise CDMSError(f"variable {self.id!r}: too many indices {key!r}")
        key = key + (slice(None),) * (self.ndim - len(key))
        norm: list = []
        for k in key:
            if isinstance(k, (int, np.integer)):
                # keep the dimension (length-1) so axes stay aligned;
                # use squeeze() to drop it
                k = slice(int(k), int(k) + 1 or None)
            if not isinstance(k, slice):
                raise CDMSError(
                    f"variable {self.id!r}: only int/slice indexing supported, got {k!r}"
                )
            norm.append(k)
        return tuple(norm)

    def _sub_axes(self, index: Tuple[slice, ...]) -> Tuple[Axis, ...]:
        """The axes of ``self[index]``: a dimension taken whole keeps its axis."""
        return tuple(
            axis
            if k.indices(len(axis)) == (0, len(axis), 1)
            else axis.subaxis_slice(k)
            for axis, k in zip(self.axes, index)
        )

    def __getitem__(self, key: Any) -> "Variable":
        index = self._index(key)
        return self._rewrap(self._data[index], self._sub_axes(index))

    def squeeze(self) -> "Variable":
        """Drop all length-1 dimensions (and their axes)."""
        keep = [i for i, n in enumerate(self.shape) if n > 1]
        if len(keep) == self.ndim:
            return self
        if not keep:  # fully scalar: keep one dimension to stay a Variable
            keep = [0]
        index = tuple(
            slice(None) if i in keep else 0 for i in range(self.ndim)
        )
        data = self._data[index]
        axes = tuple(self._axes[i] for i in keep)
        return self._rewrap(data, axes)

    # -- coordinate subsetting ------------------------------------------------

    def __call__(self, selector: Optional[Selector] = None, **criteria: Any) -> "Variable":
        """Coordinate-space subsetting: ``var(latitude=(-30, 30), level=500)``."""
        sel = selector if selector is not None else Selector()
        if criteria:
            sel = sel & Selector(**criteria)
        unmatched = sel.unmatched(self._axes)
        if unmatched:
            raise CDMSError(
                f"variable {self.id!r}: selector criteria {unmatched} match no axis"
            )
        index = tuple(sel.index_for_axis(axis) for axis in self._axes)
        return self[index]

    def sub_region(self, **criteria: Any) -> "Variable":
        """Alias of ``__call__`` matching the CDMS ``subRegion`` name."""
        return self(**criteria)

    # -- arithmetic ------------------------------------------------------------

    def _binary(self, other: Any, op, symbol: str) -> "Variable":
        if isinstance(other, Variable):
            if other.shape != self.shape:
                raise CDMSError(
                    f"shape mismatch in {self.id!r} {symbol} {other.id!r}: "
                    f"{self.shape} vs {other.shape}"
                )
            result = op(self._data, other._data)
            new_id = f"({self.id}{symbol}{other.id})"
        else:
            result = op(self._data, other)
            new_id = self.id
        return self._rewrap(np.ma.asarray(result), self._axes, id=new_id)

    def __add__(self, other: Any) -> "Variable":
        return self._binary(other, np.ma.add, "+")

    def __radd__(self, other: Any) -> "Variable":
        return self._binary(other, lambda a, b: np.ma.add(b, a), "+")

    def __sub__(self, other: Any) -> "Variable":
        return self._binary(other, np.ma.subtract, "-")

    def __rsub__(self, other: Any) -> "Variable":
        return self._binary(other, lambda a, b: np.ma.subtract(b, a), "-")

    def __mul__(self, other: Any) -> "Variable":
        return self._binary(other, np.ma.multiply, "*")

    def __rmul__(self, other: Any) -> "Variable":
        return self._binary(other, lambda a, b: np.ma.multiply(b, a), "*")

    def __truediv__(self, other: Any) -> "Variable":
        return self._binary(other, _masked_divide, "/")

    def __rtruediv__(self, other: Any) -> "Variable":
        return self._binary(other, lambda a, b: _masked_divide(b, a), "/")

    def __pow__(self, other: Any) -> "Variable":
        return self._binary(other, np.ma.power, "**")

    def __neg__(self) -> "Variable":
        return self._rewrap(-self._data, self._axes, id=f"(-{self.id})")

    def __abs__(self) -> "Variable":
        return self._rewrap(np.ma.abs(self._data), self._axes, id=f"abs({self.id})")

    # -- comparisons produce boolean masks (as float variables) ---------------

    def _compare(self, other: Any, op, symbol: str) -> "Variable":
        data = other._data if isinstance(other, Variable) else other
        result = np.ma.asarray(op(self._data, data).astype(np.float64))
        result.mask = np.ma.getmaskarray(self._data).copy()
        return self._rewrap(result, self._axes, id=f"({self.id}{symbol})", units="1")

    def __gt__(self, other: Any) -> "Variable":
        return self._compare(other, np.ma.greater, ">")

    def __ge__(self, other: Any) -> "Variable":
        return self._compare(other, np.ma.greater_equal, ">=")

    def __lt__(self, other: Any) -> "Variable":
        return self._compare(other, np.ma.less, "<")

    def __le__(self, other: Any) -> "Variable":
        return self._compare(other, np.ma.less_equal, "<=")

    # -- reordering ------------------------------------------------------------

    def reorder(self, order: Union[str, Sequence[str]]) -> "Variable":
        """Transpose dimensions to the requested order.

        *order* is either a CDMS order string using ``t z y x`` (e.g.
        ``"tzyx"``) or a sequence of axis ids/designations.  All of the
        variable's dimensions must be covered.
        """
        if isinstance(order, str):
            reverse = {v: k for k, v in _ORDER_CHARS.items()}
            try:
                names = [reverse[ch] for ch in order]
            except KeyError as exc:
                raise CDMSError(f"bad order string {order!r}") from exc
        else:
            names = list(order)
        if len(names) != self.ndim:
            raise CDMSError(
                f"variable {self.id!r}: order {order!r} names {len(names)} axes, "
                f"variable has {self.ndim}"
            )
        perm = [self.axis_index(name) for name in names]
        if sorted(perm) != list(range(self.ndim)):
            raise CDMSError(f"variable {self.id!r}: order {order!r} is not a permutation")
        data = self._data.transpose(perm)
        axes = tuple(self._axes[i] for i in perm)
        return self._rewrap(data, axes)

    # -- simple reductions (axis-aware; heavier stats live in repro.cdat) ------

    def _reduce(self, func, axis_name: Optional[str], id_prefix: str) -> Union["Variable", float]:
        if axis_name is None:
            return float(func(self._data))
        dim = self.axis_index(axis_name)
        data = func(self._data, axis=dim)
        axes = tuple(a for i, a in enumerate(self._axes) if i != dim)
        if not axes:
            return float(data)
        return self._rewrap(np.ma.asarray(data), axes, id=f"{id_prefix}({self.id})")

    def mean(self, axis: Optional[str] = None) -> Union["Variable", float]:
        """Unweighted mean over one named axis (or all data)."""
        return self._reduce(np.ma.mean, axis, "mean")

    def sum(self, axis: Optional[str] = None) -> Union["Variable", float]:
        return self._reduce(np.ma.sum, axis, "sum")

    def min(self, axis: Optional[str] = None) -> Union["Variable", float]:
        return self._reduce(np.ma.min, axis, "min")

    def max(self, axis: Optional[str] = None) -> Union["Variable", float]:
        return self._reduce(np.ma.max, axis, "max")

    def std(self, axis: Optional[str] = None) -> Union["Variable", float]:
        return self._reduce(np.ma.std, axis, "std")

    # -- regrid convenience ------------------------------------------------------

    def regrid(self, target: RectilinearGrid, method: str = "bilinear") -> "Variable":
        from repro.cdms.regrid import regrid_bilinear, regrid_conservative

        if method == "bilinear":
            return regrid_bilinear(self, target)
        if method == "conservative":
            return regrid_conservative(self, target)
        raise CDMSError(f"unknown regrid method {method!r}")


def _masked_divide(a: Any, b: Any) -> np.ma.MaskedArray:
    """Division that masks (rather than warns on) division by zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.ma.divide(a, b)
    return np.ma.masked_invalid(result)


def as_variable(obj: Any, template: Variable, id: Optional[str] = None) -> Variable:
    """Wrap a raw array in the metadata of *template* (shape must match)."""
    arr = np.ma.asarray(obj)
    if arr.shape != template.shape:
        raise CDMSError(
            f"as_variable: shape {arr.shape} does not match template {template.shape}"
        )
    return Variable(
        arr,
        template.axes,
        id=id or template.id,
        missing_value=template.missing_value,
        attributes=dict(template.attributes),
    )
