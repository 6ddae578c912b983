"""The slab-oriented source protocol shared by eager and lazy variables.

Every analysis- or render-facing consumer in this codebase talks to a
*slab source* rather than to a raw array.  A slab source is anything
that exposes:

``shape`` / ``ndim`` / ``dtype`` / ``axes`` / ``attributes`` / ``missing_value``
    structural metadata, available without touching payload bytes;
``finite_range()``
    the (min, max) over valid finite values, or ``None`` — answered
    from manifest statistics by streaming variables;
``slab_count()`` and ``iter_slabs()``
    partition of the payload into storage-order masked arrays along
    ``slab_axis()``; an in-memory :class:`~repro.cdms.variable.Variable`
    is one slab, its own data, a :class:`~repro.cdms.lazy.LazyVariable`
    yields one read-only view per container chunk;
``slab_axis()``
    the dimension index along which ``iter_slabs`` partitions.

Both :class:`~repro.cdms.variable.Variable` and
:class:`~repro.cdms.lazy.LazyVariable` implement the protocol, which is
what lets the ``repro.cdat`` accumulator kernels produce byte-identical
results on either: a kernel that folds slabs in storage order performs
the *same sequence of float operations* whether the data arrives as one
slab or twenty.

This module holds the helpers shared by protocol consumers: aligned
multi-variable slab iteration, scalar-range policy (the logic the DV3D
plot types previously each carried a copy of), and finite-max folding
for derived fields such as vector speed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.cdms.lazy import LazyVariable
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError


def slab_axis(var: Variable) -> int:
    """The dimension index along which ``iter_slabs`` partitions *var*.

    Streaming variables report their container's chunk axis; in-memory
    variables report their time dimension (the axis the chunked writer
    partitions along), falling back to dimension 0 when there is none.
    """
    return int(var.slab_axis())


def is_streamed(var: Variable) -> bool:
    """True when *var* delivers its payload in more than one slab."""
    return var.slab_count() > 1


def slab_ranges(var: Variable) -> List[Tuple[int, int]]:
    """``(start, stop)`` index ranges of each slab along ``slab_axis``."""
    layout = getattr(var, "layout", None)
    if layout is not None:
        return [(chunk.start, chunk.stop) for chunk in layout.chunks]
    return [(0, var.shape[slab_axis(var)])]


def iter_aligned_slabs(*variables: Variable) -> Iterator[Tuple[Variable, ...]]:
    """Yield co-indexed slab tuples covering all of *variables*.

    The variable with the finest partition drives: its slab ranges are
    applied (along its slab axis) to every other variable via indexing,
    so each yielded tuple covers the same index range of every input.
    Indexing a lazy variable reads only the chunks covering the range,
    on this thread (a scan, see :func:`_scan_select`), so joint iteration
    holds one range at a time; indexing an eager variable is a view.
    """
    if not variables:
        return
    driver = max(variables, key=lambda v: v.slab_count())
    if driver.slab_count() <= 1:
        yield tuple(variables)
        return
    axis = slab_axis(driver)
    extent = driver.shape[axis]
    for var in variables:
        if axis >= var.ndim or var.shape[axis] != extent:
            raise CDMSError(
                f"iter_aligned_slabs: variable {var.id!r} does not span "
                f"dimension {axis} with extent {extent}"
            )
    for start, stop in slab_ranges(driver):
        yield tuple(
            _scan_select(
                var,
                tuple(
                    slice(start, stop) if dim == axis else slice(None)
                    for dim in range(var.ndim)
                ),
            )
            for var in variables
        )


def _scan_select(var: Variable, index: Tuple[slice, ...]) -> Variable:
    """``var[index]`` as one step of a scan over the whole variable.

    A scan takes every chunk in storage order as fast as it computes,
    so a streamed variable reads the chunks on the caller's thread;
    ``var[index]`` itself is a cursor read, through the prefetch thread.
    """
    if isinstance(var, LazyVariable):
        return var._select(index, prefetch=False)
    return var[index]


# -- scalar-range policy (shared by the DV3D plot types) -------------------


def require_finite_range(
    var: Variable,
    error: Type[Exception] = CDMSError,
    what: str = "variable",
) -> Tuple[float, float]:
    """The variable's finite (min, max), or raise *error* when empty.

    Streaming variables answer from manifest statistics, so asking for
    a display range never materializes payload data.
    """
    rng = var.finite_range()
    if rng is None:
        raise error(f"{what} {var.id!r} has no valid data")
    return rng


def padded_range(rng: Tuple[float, float]) -> Tuple[float, float]:
    """Widen a degenerate (lo >= hi) range so colormap math stays finite."""
    lo, hi = float(rng[0]), float(rng[1])
    if hi <= lo:
        hi = lo + 1e-6
    return lo, hi


def display_range(
    var: Variable,
    error: Type[Exception] = CDMSError,
    what: str = "variable",
) -> Tuple[float, float]:
    """``require_finite_range`` + ``padded_range`` in one step."""
    return padded_range(require_finite_range(var, error=error, what=what))


def fold_finite_max(
    fn: Callable[..., np.ndarray], *variables: Variable
) -> Optional[float]:
    """Max finite value of ``fn(*slabs)`` folded slab-by-slab.

    The max of per-slab maxima is exactly the global max — the same
    elementwise values, partitioned — so derived fields (e.g. vector
    speed) can be ranged without materializing every component at once.
    Returns None when no slab produces a finite value.
    """
    best: Optional[float] = None
    for slabs in iter_aligned_slabs(*variables):
        values = np.asarray(fn(*slabs))
        finite = values[np.isfinite(values)]
        if finite.size:
            slab_max = float(finite.max())
            if best is None or slab_max > best:
                best = slab_max
    return best


def materialize(var: Variable, op: str = "") -> Variable:
    """Gather a (possibly lazy) variable into one in-memory Variable.

    The documented fallback for operators that genuinely need the whole
    array at once (e.g. a percentile along the slab axis).  Counted as
    ``cdat.materialize`` so the out-of-core escape is observable.
    """
    if not is_streamed(var) and getattr(var, "layout", None) is None:
        return var
    from repro import obs

    if obs.enabled():
        obs.counter("cdat.materialize", var=var.id, op=op or "unknown")
    full = tuple(slice(None) for _ in range(var.ndim))
    return _scan_select(var, full)


def map_slabs(
    fn: Callable[..., Variable],
    *variables: Variable,
    id: Optional[str] = None,
    **attr_updates: Any,
) -> Variable:
    """Apply a per-slab operation and concatenate along the slab axis.

    Correct (and byte-identical to the whole-array computation) for any
    operation whose output rows depend only on the matching input rows
    along the slab axis — elementwise transforms, masking, reductions
    over *other* dimensions.  The slab axis must survive ``fn``.
    """
    driver = max(variables, key=lambda v: v.slab_count())
    template = variables[0]
    if driver.slab_count() <= 1:
        out = fn(*next(iter_aligned_slabs(*variables)))
    else:
        pieces = [fn(*slabs) for slabs in iter_aligned_slabs(*variables)]
        slab_id = driver.axes[slab_axis(driver)].id
        out_axis = next(
            (i for i, a in enumerate(pieces[0].axes) if a.id == slab_id), None
        )
        if out_axis is None:
            raise CDMSError(
                f"map_slabs: slab axis {slab_id!r} did not survive the "
                f"per-slab operation"
            )
        data = np.ma.concatenate([p.data for p in pieces], axis=out_axis)
        axes = list(pieces[0].axes)
        axes[out_axis] = _concat_axis([p.axes[out_axis] for p in pieces])
        out = Variable(
            data,
            tuple(axes),
            id=pieces[0].id,
            missing_value=pieces[0].missing_value,
            attributes=dict(pieces[0].attributes),
        )
    if id is not None:
        out.id = id
    if attr_updates:
        out.attributes.update(attr_updates)
    if out.missing_value != template.missing_value:
        out.missing_value = template.missing_value
    return out


def _concat_axis(axes: List[Any]):
    """Join per-slab sub-axes back into the full axis."""
    from repro.cdms.axis import Axis

    first = axes[0]
    values = np.concatenate([a.values for a in axes])
    bounds_list = [a.get_bounds() for a in axes]
    bounds = None
    if all(b is not None for b in bounds_list):
        bounds = np.concatenate(bounds_list, axis=0)
    return Axis(
        first.id,
        values,
        units=first.units,
        bounds=bounds,
        calendar=first.calendar.name,
        attributes=dict(first.attributes),
    )
