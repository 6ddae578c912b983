"""A streamed slab is a read-only view of its verified chunk.

Indexing a lazy variable inside one chunk hands out a view of the array
the chunk reader verified — the same array the prefetch slots hold — so
the reader marks it read-only and a write into a slab raises instead of
corrupting the next reader's bytes.
Eager loads copy once and own writable arrays.  A chunk the manifest
counts as wholly valid and finite gets no mask; the fold passes of the
cdat kernels see one masked array per chunk and build no ``Variable``,
no ``Axis`` and no mask for such chunks, which the structural guard
below counts (CI times nothing, so this is what fails if the per-slab
copy comes back).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cdat import anomalies, axis_average, running_mean, slabkernels, variance
from repro.cdms.axis import Axis, level_axis, time_axis, uniform_latitude, uniform_longitude
from repro.cdms.dataset import open_dataset
from repro.cdms.storage import read_cdz, write_cdz
from repro.cdms.variable import Variable


class TestEagerLoadsOwnTheirArrays:
    @pytest.mark.parametrize("chunks", ["one", "many"])
    @pytest.mark.parametrize(
        "load",
        [
            lambda path: read_cdz(path)[2][0],
            lambda path: open_dataset(path, streaming="off").get_variable("ta"),
        ],
        ids=["read_cdz", "open_dataset_off"],
    )
    def test_eager_data_is_writable(self, tmp_path, variable, v2_path, load, chunks):
        path = v2_path
        if chunks == "one":
            path = tmp_path / "one_chunk.cdz"
            write_cdz(path, [variable], chunk_timesteps=variable.shape[0])
        eager = load(path)
        assert eager.data.flags.writeable
        eager.data[1, 1, 1, 1] = -1.0
        assert load(path).data[1, 1, 1, 1] == variable.data[1, 1, 1, 1]


class TestSlabsAreReadOnlyViews:
    def test_write_into_a_slab_raises_and_shared_copies_are_unchanged(self, v2_path):
        with open_dataset(v2_path, streaming="on") as dataset:  # prefetch on
            lazy = dataset.get_variable("ta")
            slab = lazy[2]
            prefetcher = dataset.streaming_source.prefetcher("ta")
            slot = prefetcher._slots[2]
            assert np.shares_memory(slab.data, slot)
            slot_bytes = slot.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                slab.data[0, 0, 0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                slab.data += 1.0
            assert prefetcher._slots[2].tobytes() == slot_bytes

    def test_clone_is_writable_and_detached(self, v2_path):
        with open_dataset(v2_path, streaming="on") as dataset:
            lazy = dataset.get_variable("ta")
            slab = lazy[2]
            copy = slab.clone()
            assert copy.data.flags.writeable
            copy.data[0, 0, 0, 0] = -1.0
            assert lazy[2].data[0, 0, 0, 0] == slab.data[0, 0, 0, 0] != -1.0

    def test_iter_slabs_yields_read_only_masked_arrays(self, v2_path):
        with open_dataset(v2_path, streaming="on") as dataset:
            for slab in dataset.get_variable("ta").iter_slabs():
                assert isinstance(slab, np.ma.MaskedArray)
                assert not slab.flags.writeable


# -- the structural guard -----------------------------------------------------


def all_valid_variable(ntime=12) -> Variable:
    rng = np.random.default_rng(5)
    axes = (
        time_axis(np.arange(ntime) * (365.0 / 12) + 15.0, calendar="noleap"),
        level_axis([1000.0, 500.0, 250.0]),
        uniform_latitude(6),
        uniform_longitude(8),
    )
    data = rng.normal(280.0, 10.0, size=(ntime, 3, 6, 8))
    return Variable(data, axes, id="ta", units="K")


@pytest.fixture()
def fold_calls(monkeypatch):
    """Counts ``np.ma.masked_values`` and ``Axis`` calls made inside fold passes.

    A fold pass is the time spent producing a block from
    :func:`repro.cdat.slabkernels.iter_blocks`, which is where a slab's
    chunk is read and wrapped.
    """
    calls = {"masked_values": 0, "Axis": 0}
    folding = [False]

    def counted(name, real):
        def wrapper(*args, **kwargs):
            if folding[0]:
                calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.ma, "masked_values", counted("masked_values", np.ma.masked_values))
    monkeypatch.setattr(Axis, "__init__", counted("Axis", Axis.__init__))
    real_iter_blocks = slabkernels.iter_blocks

    def iter_blocks(*args, **kwargs):
        blocks = real_iter_blocks(*args, **kwargs)
        while True:
            folding[0] = True
            try:
                item = next(blocks)
            except StopIteration:
                return
            finally:
                folding[0] = False
            yield item

    monkeypatch.setattr(slabkernels, "iter_blocks", iter_blocks)
    return calls


@pytest.mark.parametrize(
    "reduce, passes",
    [
        (lambda v: axis_average(v, "time"), 1),
        (lambda v: variance(v, "time"), 2),
        (lambda v: running_mean(v, "time", window=3), 1),
        (anomalies, 1),  # the climatology fold; its map pass indexes
    ],
    ids=["axis_average", "variance", "running_mean", "anomalies"],
)
def test_fold_passes_build_no_mask_and_no_axis(tmp_path, fold_calls, reduce, passes):
    path = tmp_path / "valid.cdz"
    write_cdz(path, [all_valid_variable()], chunk_timesteps=2)
    obs.enable()
    with open_dataset(path, streaming="on") as dataset:
        lazy = dataset.get_variable("ta")
        full = lazy.size // lazy.slab_count()
        assert all(c.stat_valid == full for c in lazy.layout.chunks)
        reduce(lazy)
        recorder = obs.get_recorder()
        assert fold_calls == {"masked_values": 0, "Axis": 0}
        assert recorder.counter_total("cdat.slabs") == passes * lazy.slab_count()
        assert recorder.counter_total("streaming.materialize.full") == 0
        assert recorder.counter_total("cdat.materialize") == 0
