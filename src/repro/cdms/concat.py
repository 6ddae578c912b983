"""Concatenation along the time axis.

Climate archives deliver one file per month/year; analysis needs one
continuous variable.  :func:`concatenate_time` splices variables (e.g.
from several ``.cdz`` files) into one, validating that the pieces agree
on everything except time and that their time axes are disjoint,
ordered, and use the same calendar/units.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cdms.axis import Axis
from repro.cdms.dataset import Dataset
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError


def concatenate_time(pieces: Sequence[Variable]) -> Variable:
    """Splice time-chunked variables into one continuous variable.

    Pieces may arrive in any order; they are sorted by first time
    coordinate.  Requirements: same id/units, identical non-time axes,
    identical time units and calendar, and strictly increasing time
    across the splice points.  The spliced time axis keeps the pieces'
    bounds when every piece has them.
    """
    pieces = list(pieces)
    if not pieces:
        raise CDMSError("concatenate_time: no pieces")
    if len(pieces) == 1:
        return pieces[0]
    first = pieces[0]
    t_dims = []
    for piece in pieces:
        time_axis = piece.get_time()
        if time_axis is None:
            raise CDMSError(f"piece {piece.id!r} has no time axis")
        t_dims.append(piece.axis_index("time"))
        if piece.id != first.id:
            raise CDMSError(
                f"concatenate_time: mixed variables {first.id!r} vs {piece.id!r}"
            )
        if piece.units != first.units:
            raise CDMSError("concatenate_time: units differ between pieces")
        if t_dims[-1] != t_dims[0]:
            raise CDMSError("concatenate_time: time dimension position differs")
        for dim, axis in enumerate(piece.axes):
            if dim == t_dims[-1]:
                ref_time = first.get_time()
                assert ref_time is not None
                if axis.units != ref_time.units or axis.calendar != ref_time.calendar:
                    raise CDMSError(
                        "concatenate_time: time units/calendar differ between pieces"
                    )
                continue
            if axis != first.axes[dim]:
                raise CDMSError(
                    f"concatenate_time: non-time axis {axis.id!r} differs between pieces"
                )
    t_dim = t_dims[0]
    pieces.sort(key=lambda p: float(p.get_time().values[0]))  # type: ignore[union-attr]

    # time must be strictly increasing across the splice
    times: List[np.ndarray] = [p.get_time().values for p in pieces]  # type: ignore[union-attr]
    for prev, cur in zip(times[:-1], times[1:]):
        if cur[0] <= prev[-1]:
            raise CDMSError(
                f"concatenate_time: overlapping/unordered time ranges "
                f"({prev[-1]} then {cur[0]})"
            )
    merged_time = np.concatenate(times)
    bounds = [p.get_time().get_bounds() for p in pieces]  # type: ignore[union-attr]
    ref_time = first.get_time()
    assert ref_time is not None
    time_axis = Axis(
        ref_time.id, merged_time, units=ref_time.units,
        bounds=np.concatenate(bounds) if all(b is not None for b in bounds) else None,
        calendar=ref_time.calendar.name, attributes=dict(ref_time.attributes),
    )
    data = np.ma.concatenate([p.data for p in pieces], axis=t_dim)
    axes = list(first.axes)
    axes[t_dim] = time_axis
    return Variable(
        data, axes, id=first.id, missing_value=first.missing_value,
        attributes=dict(first.attributes),
    )


def concatenate_datasets(datasets: Sequence[Dataset], id: str = "merged") -> Dataset:
    """Concatenate every shared variable of time-chunked datasets.

    Variables present in all inputs are spliced along time; variables
    missing from any input are dropped (with the standard multi-file
    semantics of taking the common subset).
    """
    datasets = list(datasets)
    if not datasets:
        raise CDMSError("concatenate_datasets: no datasets")
    shared = set(datasets[0].variable_ids)
    for ds in datasets[1:]:
        shared &= set(ds.variable_ids)
    if not shared:
        raise CDMSError("concatenate_datasets: no variables common to all inputs")
    variables = [
        concatenate_time([ds(variable_id) for ds in datasets])
        for variable_id in sorted(shared)
    ]
    attributes = dict(datasets[0].attributes)
    attributes["concatenated_from"] = [ds.id for ds in datasets]
    return Dataset(id=id, variables=variables, attributes=attributes)
