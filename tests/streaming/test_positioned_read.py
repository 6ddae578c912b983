"""The positioned read path: extents from the zip directory, no ``zipfile`` per chunk.

A :class:`StreamingSource` parses the central directory once and serves
every stored member with one positioned read.  These tests pin that the
bytes are the ones ``zipfile`` would return, that nothing re-opens the
archive per chunk, that a container damaged or swapped *under an open
source* is a typed error (never foreign bytes against the old manifest),
and that no descriptor outlives a read.  None of them reads a clock.
"""

from __future__ import annotations

import os
import zipfile

import pytest

from repro import obs
from repro.cdms.dataset import open_dataset
from repro.cdms.lazy import LazyVariable
from repro.cdms.storage import read_cdz, write_cdz
from repro.streaming.config import StreamingConfig
from repro.streaming.dataset import StreamingSource
from repro.util.errors import StreamingError

from .conftest import make_variable

FAST = StreamingConfig(retry_base_delay=0.0, prefetch=False)


def stored_members(source: StreamingSource):
    for chunk in source.layout("ta").chunks:
        yield chunk.member
        yield chunk.lowres_member


def rewrite_with_local_extra(src, dst) -> None:
    """Copy a container so every local header grows a zip64 extra field.

    ``force_zip64`` reserves the field in the *local* header only; the
    central directory keeps its short form for members this small.
    """
    with zipfile.ZipFile(src) as a, zipfile.ZipFile(dst, "w") as b:
        for info in a.infolist():
            twin = zipfile.ZipInfo(info.filename, info.date_time)
            twin.compress_type = info.compress_type
            with b.open(twin, "w", force_zip64=True) as member:
                member.write(a.read(info.filename))


@pytest.fixture()
def extra_path(tmp_path, v2_path):
    path = tmp_path / "local_extra.cdz"
    rewrite_with_local_extra(v2_path, path)
    return path


class TestDifferential:
    @pytest.mark.parametrize("fixture", ["v2_path", "extra_path"])
    def test_every_stored_member_equals_zipfile(self, request, fixture):
        path = request.getfixturevalue(fixture)
        source = StreamingSource(path)
        members = list(stored_members(source))
        assert len(members) == 16
        with zipfile.ZipFile(path) as archive:
            for member in members:
                assert source.read_stored(member) == archive.read(member)

    def test_offset_comes_from_the_local_header(self, extra_path):
        # the fixture is what it claims: the two headers disagree
        with zipfile.ZipFile(extra_path) as archive:
            info = archive.getinfo("chunks/v000/c000000.npy")
            archive.fp.seek(info.header_offset + 28)
            local_extra = int.from_bytes(archive.fp.read(2), "little")
        assert local_extra > len(info.extra)

    def test_local_extra_container_streams_identically(self, extra_path, v1_path):
        _, _, [eager] = read_cdz(v1_path)
        source = StreamingSource(extra_path, FAST)
        lazy = LazyVariable(source, source.layout("ta"))
        assert lazy[:].filled().tobytes() == eager.filled().tobytes()

    def test_deflated_member_is_not_in_the_table(self, v2_path):
        with zipfile.ZipFile(v2_path) as archive:
            assert archive.getinfo("axes/time.npy").compress_type == zipfile.ZIP_DEFLATED
        with pytest.raises(StreamingError, match="not stored"):
            StreamingSource(v2_path).read_stored("axes/time.npy")

    def test_damaged_local_header_fails_that_member_only(self, v2_path):
        with zipfile.ZipFile(v2_path) as archive:
            victim = archive.getinfo("chunks/v000/c000002.npy")
        with open(v2_path, "r+b") as handle:
            handle.seek(victim.header_offset)
            handle.write(b"XX")
        reader = StreamingSource(v2_path, FAST).reader("ta")
        with pytest.raises(StreamingError, match="missing"):
            reader.read_chunk(reader.layout.chunks[2])
        assert reader.is_quarantined(2)
        assert reader.read_chunk(reader.layout.chunks[3]).shape == (1, 4, 10, 14)

    def test_absent_member_is_the_same_typed_error(self, v2_path):
        with pytest.raises(StreamingError, match="missing"):
            StreamingSource(v2_path).read_stored("chunks/v000/c999999.npy")


@pytest.fixture()
def opened(monkeypatch):
    """Every ``zipfile.ZipFile`` constructed during the test."""
    opened = []
    real_init = zipfile.ZipFile.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "__init__", counting_init)
    return opened


class TestNoArchiveOpenPerChunk:
    def test_one_open_per_source_none_per_read(self, v2_path, opened):
        with StreamingSource(v2_path) as source:  # default config: prefetch thread on
            assert len(opened) == 1
            lazy = LazyVariable(source, source.layout("ta"))
            assert sum(1 for _ in lazy.iter_slabs()) == 8
            source.reader("ta").read_lowres(lazy.layout.chunks[0])
        assert len(opened) == 1

    @pytest.mark.parametrize(
        "load",
        [
            read_cdz,
            lambda path: open_dataset(path, streaming=False),
            lambda path: open_dataset(path, streaming=True).close(),
        ],
        ids=["read_cdz", "eager", "streamed"],
    )
    def test_one_open_per_load(self, v2_path, opened, load):
        """Every entry point constructs the archive, and parses its manifest, once."""
        load(v2_path)
        assert len(opened) == 1


class TestContainerChangedUnderOpenSource:
    def test_truncation_is_typed_retried_quarantined_then_heals(self, v2_path, v1_path):
        _, _, [eager] = read_cdz(v1_path)
        reader = StreamingSource(v2_path, FAST).reader("ta")
        chunk = reader.layout.chunks[5]
        with zipfile.ZipFile(v2_path) as archive:
            info = archive.getinfo(chunk.member)
        original = v2_path.read_bytes()
        # header + name are ~60 bytes of a 4.6 KB member: the cut is mid-payload
        os.truncate(v2_path, info.header_offset + info.file_size // 2)
        obs.enable()
        with pytest.raises(StreamingError, match="truncated"):
            reader.read_chunk(chunk)
        assert (
            obs.get_recorder().counter_total("streaming.chunks.retried")
            == FAST.read_retries - 1
        )
        assert reader.is_quarantined(5)
        # chunks wholly before the cut are still served
        assert reader.read_chunk(reader.layout.chunks[4]).shape == (1, 4, 10, 14)
        with open(v2_path, "r+b") as handle:  # restored in place, same inode
            handle.write(original)
        healed = reader.read_chunk(chunk)
        assert healed.tobytes() == eager.filled()[5:6].tobytes()
        assert not reader.is_quarantined(5)

    @pytest.mark.parametrize("ntime", [8, 3], ids=["same-size", "smaller"])
    def test_replaced_container_never_serves_new_bytes(self, tmp_path, v2_path, ntime):
        reader = StreamingSource(v2_path, FAST).reader("ta")
        other = tmp_path / "other.cdz"
        write_cdz(other, [make_variable(ntime=ntime, seed=99)], version=2)
        os.replace(other, v2_path)
        for chunk in reader.layout.chunks:
            with pytest.raises(StreamingError):
                reader.read_chunk(chunk)
            with pytest.raises(StreamingError):
                reader.read_lowres(chunk)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_descriptors_plateau_over_fifty_sources(v2_path):
    def scan() -> int:
        with StreamingSource(v2_path) as source:  # prefetch thread on
            lazy = LazyVariable(source, source.layout("ta"))
            return sum(len(slab) for slab in lazy.iter_slabs())

    assert scan() == 8  # first use pays any lazy module-level descriptors
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        scan()
    assert len(os.listdir("/proc/self/fd")) == before
