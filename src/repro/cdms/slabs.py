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

import itertools
from typing import Any, Callable, Iterator, List, Optional, Tuple, Type

import numpy as np

from repro.cdms.axis import Axis
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
    on this thread, so joint iteration holds one range at a time;
    indexing an eager variable is a view.
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
            var[
                tuple(
                    slice(start, stop) if dim == axis else slice(None)
                    for dim in range(var.ndim)
                )
            ]
            for var in variables
        )


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
    return var[tuple(slice(None) for _ in range(var.ndim))]


def map_slabs(
    fn: Callable[..., Variable],
    *variables: Variable,
    id: Optional[str] = None,
    **attr_updates: Any,
) -> Variable:
    """Apply a per-slab operation and write its results into one output.

    Correct (and byte-identical to the whole-array computation) for any
    operation whose output rows depend only on the matching input rows
    along the slab axis — elementwise transforms, masking, reductions
    over *other* dimensions.  A one-slab input is ``fn`` called once,
    and a result that is not a :class:`Variable` (a reduction to a
    scalar) is returned as it is.  Otherwise the slab axis must survive
    ``fn``: the first slab's result fixes the output's shape off that
    axis, every slab's result is written by position into one data
    array and one mask, and the output's slab axis is the first input's
    own.  The dtype is that of joining the results (a wider slab
    promotes it), and the mask is ``nomask`` when no point is masked.
    """
    driver = max(variables, key=lambda v: v.slab_count())
    template = variables[0]
    pieces = (fn(*slabs) for slabs in iter_aligned_slabs(*variables))
    out = next(pieces)
    if driver.slab_count() > 1:
        out = _fill_output(out, pieces, template.axes[slab_axis(driver)])
    if isinstance(out, Variable):
        if id is not None:
            out.id = id
        out.attributes.update(attr_updates)
        out.missing_value = template.missing_value
    return out


def _fill_output(first: Variable, rest: Iterator[Variable], axis: Axis) -> Variable:
    """Write *first*, then each piece of *rest*, by position into one
    output whose slab axis is *axis*."""
    out_axis = next((i for i, a in enumerate(first.axes) if a.id == axis.id), None)
    if out_axis is None:
        raise CDMSError(
            f"map_slabs: slab axis {axis.id!r} did not survive the "
            f"per-slab operation"
        )
    shape = list(first.shape)
    shape[out_axis] = len(axis)
    data = np.empty(shape, dtype=first.dtype)
    mask = np.zeros(shape, dtype=bool)
    pos = 0
    for piece in itertools.chain((first,), rest):
        dtype = np.result_type(data.dtype, piece.dtype)
        if dtype != data.dtype:
            # a later slab can be wider (np.ma.mean of a float32 slab
            # with an all-masked row is float64): promote, as a join would
            data = data.astype(dtype)
        block = np.moveaxis(piece.data, out_axis, 0)
        stop = pos + block.shape[0]
        np.moveaxis(data, out_axis, 0)[pos:stop] = np.ma.getdata(block)
        np.moveaxis(mask, out_axis, 0)[pos:stop] = np.ma.getmaskarray(block)
        pos = stop
    axes = list(first.axes)
    axes[out_axis] = axis
    return Variable(
        np.ma.MaskedArray(data, mask=mask if mask.any() else np.ma.nomask),
        tuple(axes),
        id=first.id,
        missing_value=first.missing_value,
        attributes=dict(first.attributes),
    )
