"""The container format: layout, digests, statistics, fallbacks."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdms.dataset import open_dataset
from repro.cdms.storage import mask_missing, read_cdz, write_cdz
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.streaming.format import _chunk_stats, content_digest, decimate, upsample
from repro.util.errors import CDMSError, StreamingError

from .conftest import make_variable


class TestLayout:
    def test_version_detected(self, v1_path, v2_path):
        """One dispatch on ``format_version``: chunks stream, v1 loads whole."""
        assert not open_dataset(v1_path, streaming=True).is_streaming
        with open_dataset(v2_path, streaming=True) as dataset:
            assert dataset.is_streaming

    def test_members_and_manifest(self, v2_path):
        with zipfile.ZipFile(v2_path) as archive:
            names = set(archive.namelist())
            manifest = json.loads(archive.read("manifest.json"))
        assert manifest["format_version"] == 2
        (var_meta,) = manifest["variables"]
        chunks = var_meta["chunks"]
        # one chunk per timestep by default
        assert len(chunks) == 8
        for row in chunks:
            assert row["member"] in names
            assert row["digest"].startswith("sha256:")
            assert row["lowres"]["member"] in names
            assert row["stats"]["valid"] > 0

    def test_chunks_stored_uncompressed(self, v2_path):
        with zipfile.ZipFile(v2_path) as archive:
            for info in archive.infolist():
                if info.filename.startswith("chunks/"):
                    assert info.compress_type == zipfile.ZIP_STORED

    def test_digests_cover_member_bytes(self, v2_path):
        with zipfile.ZipFile(v2_path) as archive:
            manifest = json.loads(archive.read("manifest.json"))
            for row in manifest["variables"][0]["chunks"]:
                payload = archive.read(row["member"])
                assert content_digest(payload) == row["digest"]

    def test_chunk_extent_honoured(self, tmp_path, variable):
        path = tmp_path / "c3.cdz"
        write_cdz(path, [variable], version=2, chunk_timesteps=3)
        source = StreamingSource(path)
        layout = source.layout("ta")
        assert [c.extent for c in layout.chunks] == [3, 3, 2]
        assert layout.chunk_of(5).start == 3
        # every index, both sides of each chunk boundary, and one past each end
        assert [layout.chunk_of(i).index for i in range(8)] == [0, 0, 0, 1, 1, 1, 2, 2]
        for outside in (-1, 8):
            with pytest.raises(StreamingError, match="outside"):
                layout.chunk_of(outside)

    def test_lowres_disabled(self, tmp_path, variable):
        path = tmp_path / "nolr.cdz"
        write_cdz(path, [variable], version=2, lowres_factor=1)
        layout = StreamingSource(path).layout("ta")
        assert all(c.lowres_member is None for c in layout.chunks)


class TestStatistics:
    def test_finite_range_matches_eager(self, v2_path, v1_path):
        _, _, [eager] = read_cdz(v1_path)
        layout = StreamingSource(v2_path).layout("ta")
        assert layout.finite_range() == eager.finite_range()

    def test_all_masked_chunk_has_null_stats(self, tmp_path):
        var = make_variable(ntime=2, masked=False)
        var.data[0] = np.ma.masked
        path = tmp_path / "m.cdz"
        write_cdz(path, [var], version=2)
        layout = StreamingSource(path).layout("ta")
        assert layout.chunks[0].stat_valid == 0
        assert layout.chunks[0].stat_min is None
        assert layout.finite_range() == var.finite_range()


NEAR = {
    "value": lambda m: 280.5,
    "missing": lambda m: m,
    "within_rtol": lambda m: m + abs(m) * 5e-7,
    "beyond_rtol": lambda m: m + abs(m) * 5e-6 + 1.0,
    "nan": lambda m: np.nan,
    "inf": lambda m: np.inf,
    "-inf": lambda m: -np.inf,
}


class TestMissingValueRule:
    @settings(max_examples=200, deadline=None)
    @given(
        missing=st.sampled_from([1.0e20, -999.0, 0.0]),
        kinds=st.lists(st.sampled_from(sorted(NEAR)), min_size=1, max_size=10),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_full_count_iff_nothing_masked_and_all_finite(self, missing, kinds, dtype):
        raw = np.array([NEAR[kind](missing) for kind in kinds], dtype=dtype)
        masked = mask_missing(raw, missing)
        nothing_masked = not np.ma.getmaskarray(masked).any()
        assert (_chunk_stats(raw, missing)[2] == raw.size) == (
            nothing_masked and bool(np.isfinite(raw).all())
        )
        if nothing_masked:
            assert masked.mask is np.ma.nomask
        assert np.shares_memory(masked.data, raw)

    def test_exact_and_near_missing_masked_nan_kept(self):
        raw = np.array([1.0e20, 1.0e20 * (1 + 5e-7), 1.0e20 * (1 + 5e-6), np.nan, 1.0])
        assert np.ma.getmaskarray(mask_missing(raw, 1.0e20)).tolist() == [
            True, True, False, False, False,
        ]


class TestLowresResampling:
    def test_round_trip_shapes(self):
        raw = np.arange(2 * 5 * 7, dtype=np.float64).reshape(2, 5, 7)
        low = decimate(raw, 0, 2)
        assert low.shape == (2, 3, 4)
        full = upsample(low, raw.shape, 0, 2)
        assert full.shape == raw.shape
        # nearest-neighbour: every value in the upsample exists in the source
        assert np.isin(full, raw).all()

    def test_factor_one_identity(self):
        raw = np.arange(12.0).reshape(3, 4)
        assert (decimate(raw, 0, 1) == raw).all()
        assert (upsample(raw, raw.shape, 0, 1) == raw).all()


class TestParseErrors:
    def test_v1_source_rejected(self, v1_path):
        with pytest.raises(StreamingError, match="not a v2"):
            StreamingSource(v1_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StreamingError, match="no such"):
            StreamingSource(tmp_path / "absent.cdz")

    def test_gap_in_chunk_table_rejected(self, tmp_path, v2_path):
        def drop_row(chunks):
            del chunks[3]

        def swap_rows(chunks):  # covers the axis, but not in the order listed
            chunks[2], chunks[3] = chunks[3], chunks[2]

        for mutate in (drop_row, swap_rows):
            broken = tmp_path / f"{mutate.__name__}.cdz"
            with zipfile.ZipFile(v2_path) as src, zipfile.ZipFile(broken, "w") as dst:
                for info in src.infolist():
                    payload = src.read(info.filename)
                    if info.filename == "manifest.json":
                        manifest = json.loads(payload)
                        mutate(manifest["variables"][0]["chunks"])
                        payload = json.dumps(manifest).encode()
                    dst.writestr(info, payload)
            with pytest.raises(StreamingError, match="tile"):
                StreamingSource(broken)

    def test_unknown_axis_rejected(self, tmp_path, v2_path):
        broken = tmp_path / "ax.cdz"
        with zipfile.ZipFile(v2_path) as src, zipfile.ZipFile(broken, "w") as dst:
            for info in src.infolist():
                payload = src.read(info.filename)
                if info.filename == "manifest.json":
                    manifest = json.loads(payload)
                    manifest["variables"][0]["dimensions"][0] = "ghost"
                    payload = json.dumps(manifest).encode()
                dst.writestr(info, payload)
        with pytest.raises(CDMSError):
            StreamingSource(broken)


class TestConfigValidation:
    def test_bad_budget(self):
        with pytest.raises(StreamingError):
            StreamingConfig(memory_budget_bytes=0)

    def test_bad_retries(self):
        with pytest.raises(StreamingError):
            StreamingConfig(read_retries=0)

    def test_retry_policy_shape(self):
        policy = StreamingConfig(read_retries=4, retry_base_delay=0.01).retry_policy()
        assert policy.max_attempts == 4
        assert len(policy.delays()) == 3
