"""Time concatenation of chunked variables and datasets."""

import numpy as np
import pytest

from repro.cdms.concat import concatenate_datasets, concatenate_time
from repro.cdms.dataset import Dataset
from repro.cdms.axis import latitude_axis, time_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError


def chunk(t_start, n=4, value=None, lat_values=(0.0, 10.0), units="K", vid="x",
          calendar="standard"):
    t = time_axis(np.arange(t_start, t_start + n, dtype=float), calendar=calendar)
    lat = latitude_axis(list(lat_values))
    data = np.full((n, len(lat_values)), t_start if value is None else value)
    return Variable(data, (t, lat), id=vid, units=units)


class TestConcatenateTime:
    def test_basic_splice(self):
        merged = concatenate_time([chunk(0), chunk(4)])
        assert merged.shape == (8, 2)
        np.testing.assert_allclose(merged.get_time().values, np.arange(8.0))
        # data from each piece lands in its block
        assert float(merged.data[0, 0]) == 0.0
        assert float(merged.data[4, 0]) == 4.0

    def test_out_of_order_input_sorted(self):
        merged = concatenate_time([chunk(4), chunk(0)])
        np.testing.assert_allclose(merged.get_time().values, np.arange(8.0))

    def test_single_piece_passthrough(self):
        piece = chunk(0)
        assert concatenate_time([piece]) is piece

    def test_empty_rejected(self):
        with pytest.raises(CDMSError):
            concatenate_time([])

    def test_overlap_rejected(self):
        with pytest.raises(CDMSError, match="overlap"):
            concatenate_time([chunk(0, n=5), chunk(3)])

    def test_mixed_variable_ids_rejected(self):
        with pytest.raises(CDMSError, match="mixed"):
            concatenate_time([chunk(0), chunk(4, vid="y")])

    def test_units_mismatch_rejected(self):
        with pytest.raises(CDMSError, match="units"):
            concatenate_time([chunk(0), chunk(4, units="degC")])

    def test_calendar_mismatch_rejected(self):
        with pytest.raises(CDMSError, match="calendar"):
            concatenate_time([chunk(0), chunk(4, calendar="noleap")])

    def test_spatial_axis_mismatch_rejected(self):
        with pytest.raises(CDMSError, match="non-time axis"):
            concatenate_time([chunk(0), chunk(4, lat_values=(0.0, 20.0))])

    def test_requires_time_axis(self):
        static = Variable(np.zeros(2), (latitude_axis([0.0, 10.0]),), id="x")
        with pytest.raises(CDMSError, match="no time axis"):
            concatenate_time([static, static])

    def test_mask_preserved(self):
        a = chunk(0)
        a.data[1, 1] = np.ma.masked
        merged = concatenate_time([a, chunk(4)])
        assert bool(np.ma.getmaskarray(merged.data)[1, 1])
        assert not np.ma.getmaskarray(merged.data)[5].any()

    def test_time_bounds_kept_when_every_piece_has_them(self):
        def monthly(values, bounds):
            t = time_axis(values, calendar="noleap")
            if bounds is not None:
                t.set_bounds(np.array(bounds, dtype=float))
            return Variable(np.zeros((2, 2)), (t, latitude_axis([0.0, 10.0])), id="x")

        merged = concatenate_time([
            monthly([15.5, 45.0], [[0, 31], [31, 59]]),
            monthly([74.5, 104.0], [[59, 90], [90, 118]]),
        ])
        np.testing.assert_array_equal(
            merged.get_time().get_bounds(), [[0, 31], [31, 59], [59, 90], [90, 118]]
        )
        # one piece without bounds: the splice has none either
        merged = concatenate_time([
            monthly([15.5, 45.0], [[0, 31], [31, 59]]), monthly([74.5, 104.0], None),
        ])
        assert merged.get_time().get_bounds() is None


class TestConcatenateDatasets:
    def test_shared_variables_merged(self):
        ds_a = Dataset("jan", [chunk(0), chunk(0, vid="y")])
        ds_b = Dataset("feb", [chunk(4), chunk(4, vid="y")])
        merged = concatenate_datasets([ds_a, ds_b])
        assert set(merged.variable_ids) == {"x", "y"}
        assert merged("x").shape[0] == 8
        assert merged.attributes["concatenated_from"] == ["jan", "feb"]

    def test_common_subset_only(self):
        ds_a = Dataset("a", [chunk(0), chunk(0, vid="only_a")])
        ds_b = Dataset("b", [chunk(4)])
        merged = concatenate_datasets([ds_a, ds_b])
        assert merged.variable_ids == ["x"]

    def test_no_common_variables(self):
        ds_a = Dataset("a", [chunk(0, vid="p")])
        ds_b = Dataset("b", [chunk(4, vid="q")])
        with pytest.raises(CDMSError, match="common"):
            concatenate_datasets([ds_a, ds_b])

    def test_multifile_roundtrip(self, tmp_path):
        """The real use case: two .cdz files → one continuous variable."""
        from repro.cdms.dataset import open_dataset

        Dataset("jan", [chunk(0)]).save(tmp_path / "jan.cdz")
        Dataset("feb", [chunk(4)]).save(tmp_path / "feb.cdz")
        merged = concatenate_datasets(
            [open_dataset(tmp_path / "jan.cdz"), open_dataset(tmp_path / "feb.cdz")]
        )
        assert merged("x").shape[0] == 8
