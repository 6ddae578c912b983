"""``map_slabs`` against a frozen copy of its join-by-concatenation form.

``map_slabs`` writes each slab's result by position into one output
and reuses the first input's slab axis.  It replaced building a
``Variable`` per slab, joining them with ``np.ma.concatenate`` and
rebuilding the slab axis from the pieces' sub-axes.  That form is kept
here, unchanged, as the reference: both must give the same digest,
dtype, kind of mask (``nomask`` or an array) and fill value, whatever
the data's dtype and masking, the chunking, the number of inputs and
whether the slab axis carries explicit, cached or no bounds.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, List, Optional

import numpy as np
import pytest

from repro.cache.keys import digest
from repro.cdat.conditioned import mask_where
from repro.cdms.axis import Axis, latitude_axis, longitude_axis, time_axis
from repro.cdms.dataset import open_dataset
from repro.cdms.slabs import iter_aligned_slabs, map_slabs, slab_axis
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError

NTIME, NLAT, NLON = 6, 4, 5


# -- the reference: map_slabs as it was before it wrote one output ----------


def reference_map_slabs(
    fn: Callable[..., Variable],
    *variables: Variable,
    id: Optional[str] = None,
    **attr_updates: Any,
) -> Variable:
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
        axes[out_axis] = reference_concat_axis([p.axes[out_axis] for p in pieces])
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


def reference_concat_axis(axes: List[Axis]) -> Axis:
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


# -- per-slab operations -----------------------------------------------------


def halve(v: Variable) -> Variable:
    return Variable(v.data * 0.5, v.axes, id="half", missing_value=-1.0,
                    attributes={"op": "halve"})


def zonal(v: Variable) -> Variable:
    """A reduction over longitude: the slab axis survives at its place."""
    return Variable(np.ma.mean(v.data, axis=2), v.axes[:2], id="zonal",
                    missing_value=v.missing_value)


def lat_first(v: Variable) -> Variable:
    """Moves the slab axis off dimension 0."""
    return Variable(np.ma.transpose(v.data, (1, 0, 2)),
                    (v.axes[1], v.axes[0], v.axes[2]), id="moved")


def masked_where_true(v: Variable, c: Variable) -> Variable:
    hide = np.ma.getmaskarray(v.data) | (np.asarray(c.data.filled(0.0)) != 0.0)
    return Variable(np.ma.MaskedArray(np.asarray(v.data.filled(0.0)), mask=hide),
                    v.axes, id="mw", missing_value=v.missing_value)


OPERATIONS = {
    "halve": (halve, 1),
    "zonal": (zonal, 1),
    "lat_first": (lat_first, 1),
    "mask_where": (masked_where_true, 2),
}


def fields(dtype: str, masked: bool, bounds: str):
    rng = np.random.default_rng(7)
    t = time_axis(np.arange(NTIME) * 30.0 + 15.0, calendar="noleap")
    if bounds == "explicit":
        edges = np.arange(NTIME + 1) * 30.0 + np.array([0, 1, 3, 4, 6, 7, 9.0])
        t.set_bounds(np.stack([edges[:-1], edges[1:]], axis=1))
    axes = (t, latitude_axis(np.linspace(-30, 30, NLAT).tolist()),
            longitude_axis(np.linspace(0, 288, NLON).tolist()))
    data = np.ma.MaskedArray(rng.normal(280.0, 10.0, (NTIME, NLAT, NLON)).astype(dtype))
    if masked:
        data[1, 0, :2] = np.ma.masked
        data[NTIME - 1] = np.ma.masked
    cond = (np.arange(data.size) % 3 == 0).reshape(data.shape).astype(dtype)
    return (Variable(data, axes, id="ta", units="K", missing_value=-999.0),
            Variable(cond, axes, id="cond"))


@pytest.fixture()
def streamed(tmp_path):
    opened = []

    def open_streamed(dtype, masked, bounds, chunk):
        path = tmp_path / f"ref-{len(opened)}.cdz"
        write_cdz(path, list(fields(dtype, masked, bounds)), dataset_id="ref",
                  version=2, chunk_timesteps=chunk)
        ds = open_dataset(path, streaming="on")
        opened.append(ds)
        ta, cond = ds.get_variable("ta"), ds.get_variable("cond")
        assert ta.slab_count() == -(-NTIME // chunk)
        if bounds == "cached":
            ta.axes[0].gen_bounds()
        return ta, cond

    yield open_streamed
    for ds in opened:
        ds.close()


def assert_same_output(new: Variable, ref: Variable) -> None:
    assert new.dtype == ref.dtype
    assert (np.ma.getmask(new.data) is np.ma.nomask) == (
        np.ma.getmask(ref.data) is np.ma.nomask
    )
    assert new.data.fill_value == ref.data.fill_value
    assert digest(new) == digest(ref)


@pytest.mark.parametrize("op", sorted(OPERATIONS))
@pytest.mark.parametrize("bounds", ["explicit", "cached", "none"])
@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_map_slabs_matches_the_concatenating_reference(
    streamed, dtype, masked, chunk, bounds, op
):
    fn, n_inputs = OPERATIONS[op]
    inputs = streamed(dtype, masked, bounds, chunk)[:n_inputs]
    ref = reference_map_slabs(fn, *inputs, id="out", tag="x")
    new = map_slabs(fn, *inputs, id="out", tag="x")
    assert_same_output(new, ref)


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_one_slab_input_is_fn_called_once(op):
    fn, n_inputs = OPERATIONS[op]
    inputs = fields("float64", True, "none")[:n_inputs]
    assert_same_output(map_slabs(fn, *inputs, id="out"),
                       reference_map_slabs(fn, *inputs, id="out"))


def test_one_slab_scalar_result_is_returned_unchanged():
    ta, _cond = fields("float64", True, "none")
    assert map_slabs(lambda v: float(v.data.sum()), ta, id="ignored") == float(ta.data.sum())


def test_map_writes_one_output(tmp_path):
    """A map over a 24-chunk container peaks well under twice its output.

    Joining a ``Variable`` per slab held the output twice at the end:
    the pieces and their concatenation.
    """
    t = time_axis(np.arange(48) * 30.0 + 15.0, calendar="noleap")
    axes = (t, latitude_axis(np.linspace(-80, 80, 64).tolist()),
            longitude_axis(np.linspace(0, 356, 96).tolist()))
    rng = np.random.default_rng(11)
    data = np.ma.MaskedArray(rng.normal(280.0, 10.0, (48, 64, 96)))
    data[3, :4] = np.ma.masked
    cond = (np.arange(data.size) % 5 == 0).reshape(data.shape).astype(np.float64)
    path = tmp_path / "big.cdz"
    write_cdz(path, [Variable(data, axes, id="ta"), Variable(cond, axes, id="cond")],
              dataset_id="big", version=2, chunk_timesteps=2)
    del data, cond
    with open_dataset(path, streaming="on") as ds:
        ta, condition = ds.get_variable("ta"), ds.get_variable("cond")
        assert ta.slab_count() >= 24
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = mask_where(ta, condition)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    output = out.data.data.nbytes + np.ma.getmaskarray(out.data).nbytes
    assert peak <= 1.5 * output, f"peak {peak / output:.2f}x the output"
