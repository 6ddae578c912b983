"""The slab protocol and its shared helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cdms.axis import latitude_axis, longitude_axis, time_axis
from repro.cdms.dataset import open_dataset
from repro.cdms.slabs import (
    display_range,
    fold_finite_max,
    is_streamed,
    iter_aligned_slabs,
    map_slabs,
    materialize,
    padded_range,
    require_finite_range,
    slab_axis,
    slab_ranges,
)
from repro.cdms.storage import write_cdz
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError, DV3DError


def eager_variable(ntime=6, nlat=4, nlon=5, seed=1, var_id="ta"):
    rng = np.random.default_rng(seed)
    data = np.ma.MaskedArray(rng.normal(0.0, 1.0, size=(ntime, nlat, nlon)))
    data[0, 0, 0] = np.ma.masked
    axes = (
        time_axis(np.arange(ntime) * 30.0 + 15.0, calendar="noleap"),
        latitude_axis(np.linspace(-30, 30, nlat).tolist()),
        longitude_axis(np.linspace(0, 288, nlon).tolist()),
    )
    return Variable(data, axes, id=var_id, units="K")


@pytest.fixture()
def lazy_pair(tmp_path):
    var = eager_variable()
    path = tmp_path / "slabs.cdz"
    write_cdz(path, [var], dataset_id="slabs", version=2, chunk_timesteps=2)
    eager = open_dataset(path, streaming="off").get_variable("ta")
    lazy = open_dataset(path, streaming="on").get_variable("ta")
    return eager, lazy


class TestProtocol:
    def test_eager_variable_is_one_slab_on_its_time_axis(self):
        var = eager_variable()
        assert var.slab_count() == 1
        assert slab_axis(var) == 0
        assert not is_streamed(var)
        assert slab_ranges(var) == [(0, 6)]
        (only,) = list(var.iter_slabs())
        assert only is var.data

    def test_slab_axis_falls_back_to_zero_without_time(self):
        var = Variable(
            np.zeros((3, 4)),
            (latitude_axis([0.0, 1.0, 2.0]), longitude_axis([0, 1, 2, 3])),
        )
        assert slab_axis(var) == 0

    def test_lazy_variable_partitions_along_chunk_axis(self, lazy_pair):
        eager, lazy = lazy_pair
        assert lazy.slab_count() == 3
        assert slab_axis(lazy) == 0
        assert is_streamed(lazy)
        assert slab_ranges(lazy) == [(0, 2), (2, 4), (4, 6)]
        slabs = list(lazy.iter_slabs())
        assert all(isinstance(slab, np.ma.MaskedArray) for slab in slabs)
        gathered = np.ma.concatenate(slabs, axis=0)
        np.testing.assert_array_equal(
            np.asarray(gathered.filled(0)), np.asarray(eager.data.filled(0))
        )
        np.testing.assert_array_equal(
            np.ma.getmaskarray(gathered), np.ma.getmaskarray(eager.data)
        )


class TestAlignedIteration:
    def test_driver_partition_applies_to_all(self, lazy_pair):
        eager, lazy = lazy_pair
        tuples = list(iter_aligned_slabs(lazy, eager))
        assert len(tuples) == lazy.slab_count()
        for a, b in tuples:
            assert a.shape == b.shape

    def test_extent_mismatch_raises(self, lazy_pair):
        _eager, lazy = lazy_pair
        short = eager_variable(ntime=4)
        with pytest.raises(CDMSError):
            list(iter_aligned_slabs(lazy, short))

    def test_all_eager_yields_whole_variables(self):
        a, b = eager_variable(), eager_variable(seed=2, var_id="tb")
        (pair,) = list(iter_aligned_slabs(a, b))
        assert pair[0] is a and pair[1] is b


class TestRangePolicy:
    def test_require_finite_range_raises_chosen_error(self):
        var = eager_variable()
        var.data[:] = np.ma.masked
        with pytest.raises(DV3DError, match="no valid data"):
            require_finite_range(var, DV3DError)
        with pytest.raises(CDMSError, match="color variable"):
            require_finite_range(var, what="color variable")

    def test_padded_range_widens_degenerate_ranges(self):
        assert padded_range((1.0, 2.0)) == (1.0, 2.0)
        lo, hi = padded_range((3.0, 3.0))
        assert lo == 3.0 and hi > lo

    def test_display_range_composes(self):
        var = eager_variable()
        var.data[:] = 5.0
        lo, hi = display_range(var)
        assert lo == 5.0 and hi > lo

    def test_fold_finite_max_matches_global_max(self, lazy_pair):
        eager, lazy = lazy_pair
        speed = lambda v: np.abs(v.filled(np.nan))  # noqa: E731
        assert fold_finite_max(speed, lazy) == pytest.approx(
            float(np.abs(np.asarray(eager.data.filled(0.0))).max())
        )

    def test_fold_finite_max_none_when_empty(self):
        var = eager_variable()
        var.data[:] = np.ma.masked
        assert fold_finite_max(lambda v: v.filled(np.nan), var) is None


class TestMapAndMaterialize:
    def test_map_slabs_concatenates_along_surviving_axis(self, lazy_pair):
        eager, lazy = lazy_pair

        def halve(v):
            return Variable(v.data * 0.5, v.axes, id="h",
                            missing_value=v.missing_value)

        out = map_slabs(halve, lazy, id="h")
        assert out.shape == eager.shape
        np.testing.assert_allclose(
            np.asarray(out.data.filled(0.0)),
            np.asarray(eager.data.filled(0.0)) * 0.5,
        )

    def test_map_slabs_rejects_fn_that_drops_the_slab_axis(self, lazy_pair):
        _eager, lazy = lazy_pair

        def collapse(v):
            data = np.ma.mean(v.data, axis=0)
            return Variable(data, v.axes[1:], id="c")

        with pytest.raises(CDMSError, match="did not survive"):
            map_slabs(collapse, lazy)

    def test_materialize_counts_and_gathers(self, lazy_pair):
        eager, lazy = lazy_pair
        obs.set_recorder(obs.Recorder())
        obs.enable()
        try:
            gathered = materialize(lazy, op="test")
            count = obs.get_recorder().counter_total("cdat.materialize")
        finally:
            obs.disable()
            obs.set_recorder(obs.Recorder())
        assert count == 1
        assert gathered.slab_count() == 1
        np.testing.assert_array_equal(
            np.asarray(gathered.data.filled(0)), np.asarray(eager.data.filled(0))
        )

    def test_materialize_is_identity_for_eager(self):
        var = eager_variable()
        assert materialize(var) is var
