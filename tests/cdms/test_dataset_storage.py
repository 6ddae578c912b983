"""Datasets and the .cdz container: round-trips, validation, errors."""

import json
import zipfile

import numpy as np
import pytest

from repro.cdms.axis import latitude_axis, time_axis
from repro.cdms.dataset import Dataset, open_dataset
from repro.cdms.storage import read_cdz, write_cdz
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError
from tests.streaming.conftest import LEGACY_V1, make_variable


@pytest.fixture()
def dataset(simple_variable):
    second = simple_variable * 2.0
    second.id = "tvar2"
    return Dataset("unit", [simple_variable, second], attributes={"title": "test"})


class TestDataset:
    def test_membership_and_iteration(self, dataset):
        assert "tvar" in dataset
        assert list(dataset) == ["tvar", "tvar2"]
        assert len(dataset) == 2

    def test_duplicate_variable_rejected(self, dataset, simple_variable):
        with pytest.raises(CDMSError):
            dataset.add_variable(simple_variable)

    def test_missing_variable_raises_with_listing(self, dataset):
        with pytest.raises(CDMSError, match="tvar"):
            dataset.get_variable("nope")

    def test_call_subsets(self, dataset):
        sub = dataset("tvar", latitude=(-45, 45))
        lat = sub.get_latitude()
        assert lat.values.min() >= -45 and lat.values.max() <= 45

    def test_summary(self, dataset):
        summary = dataset.summary()
        assert summary["tvar"]["order"] == "tzyx"
        assert summary["tvar"]["units"] == "K"


class TestStorageRoundtrip:
    def test_full_roundtrip(self, dataset, tmp_path):
        path = tmp_path / "unit.cdz"
        dataset.save(path)
        loaded = open_dataset(path)
        assert loaded.id == "unit"
        assert loaded.attributes["title"] == "test"
        assert loaded.variable_ids == ["tvar", "tvar2"]
        original = dataset("tvar")
        restored = loaded("tvar")
        np.testing.assert_allclose(restored.filled(), original.filled(), rtol=1e-6)
        assert restored.units == "K"
        # masked point survives the trip
        assert bool(np.ma.getmaskarray(restored.data)[0, 0, 0, 0])

    def test_axes_roundtrip_with_calendar(self, tmp_path):
        t = time_axis([0.0, 30.0], calendar="noleap")
        var = Variable(np.zeros(2), (t,), id="x")
        write_cdz(tmp_path / "a.cdz", [var])
        _, _, variables = read_cdz(tmp_path / "a.cdz")
        assert variables[0].get_time().calendar.name == "noleap"

    def test_bounds_roundtrip(self, tmp_path):
        lat = latitude_axis([0.0, 10.0])
        lat.gen_bounds()
        var = Variable(np.zeros(2), (lat,), id="x")
        write_cdz(tmp_path / "b.cdz", [var])
        _, _, variables = read_cdz(tmp_path / "b.cdz")
        np.testing.assert_allclose(
            variables[0].get_latitude().get_bounds(), lat.gen_bounds()
        )

    def test_shared_axes_stored_once(self, dataset, tmp_path):
        path = tmp_path / "c.cdz"
        dataset.save(path)
        with zipfile.ZipFile(path) as archive:
            axis_files = [n for n in archive.namelist()
                          if n.startswith("axes/") and not n.endswith("bounds.npy")]
        assert len(axis_files) == 4  # time, level, latitude, longitude


class TestVersionCompat:
    """One writable format; the legacy one keeps reading the same bytes."""

    @pytest.mark.parametrize("how", [{}, {"version": 2}], ids=["default", "2"])
    def test_roundtrip_byte_identical(self, dataset, tmp_path, how):
        path = tmp_path / "rt.cdz"
        dataset.save(path, **how)
        loaded = open_dataset(path)
        for vid in dataset.variable_ids:
            original = dataset.get_variable(vid)
            restored = loaded.get_variable(vid)
            assert restored.filled().tobytes() == original.filled().tobytes()
            assert np.array_equal(
                np.ma.getmaskarray(restored.data),
                np.ma.getmaskarray(original.data),
            )

    def test_v1_and_v2_reads_agree(self, tmp_path):
        """The committed v1 file (``tests/cdms/data``) against a fresh
        save of the variable it was written from, in both ingest modes."""
        fresh = tmp_path / "fresh.cdz"
        write_cdz(
            fresh,
            [make_variable()],
            dataset_id="streaming-test",
            attributes={"title": "legacy fixture"},
        )
        for streaming in (False, True):
            with open_dataset(LEGACY_V1, streaming=streaming) as legacy, open_dataset(
                fresh, streaming=streaming
            ) as current:
                assert not legacy.is_streaming and current.is_streaming is streaming
                assert (legacy.id, legacy.attributes) == (current.id, current.attributes)
                assert legacy.variable_ids == current.variable_ids == ["ta"]
                a, b = legacy("ta"), current("ta")[()]
            assert a.filled().tobytes() == b.filled().tobytes()
            assert np.ma.getmaskarray(a.data).sum() == 4
            assert np.array_equal(np.ma.getmaskarray(a.data), np.ma.getmaskarray(b.data))
            assert (a.missing_value, a.attributes) == (b.missing_value, b.attributes)
            assert a.attributes == {"cell_methods": "time: mean", "units": "K"}
            for ours, theirs in zip(a.axes, b.axes):
                assert ours == theirs  # id, units, calendar, values
                assert ours.attributes == theirs.attributes
                if ours.id == "latitude":
                    assert np.array_equal(ours.get_bounds(), theirs.get_bounds())
                else:
                    assert ours.get_bounds() is None and theirs.get_bounds() is None
            assert a.get_time().calendar.name == "noleap"

    def test_default_save_streams(self, dataset, tmp_path):
        path = tmp_path / "default.cdz"
        dataset.save(path)
        with open_dataset(path, streaming=True) as loaded:
            assert loaded.is_streaming

    def test_v1_is_not_writable(self, dataset, tmp_path):
        with pytest.raises(CDMSError, match="read-only"):
            dataset.save(tmp_path / "old.cdz", version=1)
        assert not (tmp_path / "old.cdz").exists()


class TestStorageErrors:
    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(CDMSError):
            write_cdz(tmp_path / "x.cdz", [])

    def test_conflicting_axes_rejected(self, tmp_path):
        a = Variable(np.zeros(2), (latitude_axis([0.0, 10.0]),), id="a")
        b = Variable(np.zeros(2), (latitude_axis([0.0, 20.0]),), id="b")
        with pytest.raises(CDMSError, match="conflicting"):
            write_cdz(tmp_path / "x.cdz", [a, b])

    def test_rank_zero_variable_rejected(self, tmp_path):
        scalar = Variable(np.float64(3.0), (), id="scalar")
        with pytest.raises(CDMSError, match="rank-0"):
            write_cdz(tmp_path / "x.cdz", [scalar])
        assert not (tmp_path / "x.cdz").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CDMSError):
            read_cdz(tmp_path / "absent.cdz")

    def test_not_a_cdz(self, tmp_path):
        path = tmp_path / "bad.cdz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("something.txt", "hello")
        with pytest.raises(CDMSError, match="manifest"):
            read_cdz(path)

    def test_wrong_version(self, tmp_path, simple_variable):
        path = tmp_path / "v.cdz"
        write_cdz(path, [simple_variable])
        # tamper with the manifest version
        with zipfile.ZipFile(path) as archive:
            names = {n: archive.read(n) for n in archive.namelist()}
        manifest = json.loads(names["manifest.json"])
        manifest["format_version"] = 99
        names["manifest.json"] = json.dumps(manifest)
        with zipfile.ZipFile(path, "w") as archive:
            for name, blob in names.items():
                archive.writestr(name, blob)
        with pytest.raises(CDMSError, match="version"):
            read_cdz(path)
