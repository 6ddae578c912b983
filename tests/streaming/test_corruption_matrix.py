"""The corruption matrix: every mangled container fails with a typed error.

Each damage mode — truncation, an on-disk bit flip inside a payload
member, a deleted member, an unsupported version stamp, a manifest that
is valid JSON of the wrong shape, plain garbage — is applied to a v2
container and to a copy of the committed legacy v1 file, and every read
path must raise :class:`CDMSError` (or its :class:`StreamingError`
subclass), never a bare ``KeyError``, ``TypeError``,
``zipfile.BadZipFile``, or ``zlib.error``.
"""

from __future__ import annotations

import json
import zipfile

import pytest

from repro.cdms.dataset import open_dataset
from repro.cdms.storage import read_cdz
from repro.streaming.dataset import StreamingSource
from repro.util.errors import CDMSError, StreamingError


def flip_member_byte(path, member: str) -> None:
    """Flip one byte of *member*'s stored payload in the file itself."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        target = (
            info.header_offset + 30 + name_len + extra_len
            + info.compress_size // 2
        )
        handle.seek(target)
        byte = handle.read(1)[0]
        handle.seek(target)
        handle.write(bytes([byte ^ 0xFF]))


def drop_member(src, dst, member: str) -> None:
    with zipfile.ZipFile(src) as a, zipfile.ZipFile(dst, "w") as b:
        for info in a.infolist():
            if info.filename != member:
                b.writestr(info, a.read(info.filename))


def rewrite_manifest(src, dst, mutate) -> None:
    """Copy *src*; *mutate* edits the manifest in place or returns its replacement."""
    with zipfile.ZipFile(src) as a, zipfile.ZipFile(dst, "w") as b:
        for info in a.infolist():
            payload = a.read(info.filename)
            if info.filename == "manifest.json":
                manifest = json.loads(payload)
                replacement = mutate(manifest)
                payload = json.dumps(
                    manifest if replacement is None else replacement
                ).encode()
            b.writestr(info, payload)


@pytest.fixture(params=[1, 2], ids=["v1", "v2"])
def version(request):
    return request.param


@pytest.fixture()
def container(version, v1_path, v2_path):
    return {1: v1_path, 2: v2_path}[version]


PAYLOAD_MEMBER = {1: "vars/ta.npy", 2: "chunks/v000/c000002.npy"}


def assert_every_entry_point_typed(broken, match=None) -> None:
    """``read_cdz``, ``open_dataset`` in both modes, and ``StreamingSource``."""
    with pytest.raises(CDMSError, match=match):
        read_cdz(broken)
    for mode in ("off", "on"):
        with pytest.raises(CDMSError):
            open_dataset(broken, streaming=mode)
    with pytest.raises(StreamingError):
        StreamingSource(broken)


def not_an_object(manifest):
    return []


def chunk_row_without_start(manifest):
    del manifest["variables"][0]["chunks"][1]["start"]


def variable_without_dimensions(manifest):
    del manifest["variables"][0]["dimensions"]


def axis_without_id(manifest):
    del manifest["axes"][0]["id"]


def unknown_dtype(manifest):
    manifest["variables"][0]["dtype"] = "notadtype"


#: valid JSON of the wrong shape, per container version whose manifest
#: has the field (v1 has no chunk rows and its reader ignores ``dtype``)
MALFORMED_MANIFESTS = [
    (1, not_an_object),
    (1, variable_without_dimensions),
    (1, axis_without_id),
    (2, not_an_object),
    (2, chunk_row_without_start),
    (2, variable_without_dimensions),
    (2, axis_without_id),
    (2, unknown_dtype),
]


class TestCorruptionMatrix:
    def test_truncated_archive(self, tmp_path, container, version):
        broken = tmp_path / "trunc.cdz"
        payload = container.read_bytes()
        broken.write_bytes(payload[: len(payload) // 2])
        assert_every_entry_point_typed(broken)

    def test_bit_flipped_payload(self, tmp_path, container, version):
        import shutil

        broken = tmp_path / "flip.cdz"
        shutil.copy(container, broken)
        flip_member_byte(broken, PAYLOAD_MEMBER[version])
        with pytest.raises(CDMSError):
            read_cdz(broken)

    def test_bit_flipped_chunk_streaming_read(self, tmp_path, v2_path):
        import shutil

        broken = tmp_path / "flip2.cdz"
        shutil.copy(v2_path, broken)
        flip_member_byte(broken, PAYLOAD_MEMBER[2])
        source = StreamingSource(broken)
        reader = source.reader("ta")
        with pytest.raises(StreamingError):
            reader.read_chunk(reader.layout.chunks[2])

    def test_missing_payload_member(self, tmp_path, container, version):
        broken = tmp_path / "gone.cdz"
        drop_member(container, broken, PAYLOAD_MEMBER[version])
        with pytest.raises(CDMSError):
            read_cdz(broken)

    def test_missing_manifest(self, tmp_path, container, version):
        broken = tmp_path / "noman.cdz"
        drop_member(container, broken, "manifest.json")
        assert_every_entry_point_typed(broken)

    def test_unsupported_format_version(self, tmp_path, container, version):
        broken = tmp_path / "v99.cdz"
        rewrite_manifest(
            container, broken, lambda m: m.update(format_version=99)
        )
        with pytest.raises(CDMSError, match="version"):
            read_cdz(broken)
        with pytest.raises(CDMSError, match="version"):
            open_dataset(broken, streaming="on")

    def test_garbage_file(self, tmp_path):
        junk = tmp_path / "junk.cdz"
        junk.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CDMSError):
            read_cdz(junk)
        with pytest.raises(StreamingError):
            StreamingSource(junk)

    def test_directory_in_place_of_container(self, tmp_path):
        # the open fails with an OSError, not a BadZipFile
        with pytest.raises(StreamingError, match="not a readable archive"):
            StreamingSource(tmp_path)
        with pytest.raises(CDMSError):
            open_dataset(tmp_path, streaming="on")

    def test_manifest_not_json(self, tmp_path, container, version):
        broken = tmp_path / "badjson.cdz"
        with zipfile.ZipFile(container) as a, zipfile.ZipFile(broken, "w") as b:
            for info in a.infolist():
                payload = a.read(info.filename)
                if info.filename == "manifest.json":
                    payload = b"{ not json"
                b.writestr(info, payload)
        with pytest.raises(CDMSError):
            read_cdz(broken)

    @pytest.mark.parametrize(
        "fmt, damage",
        MALFORMED_MANIFESTS,
        ids=[f"v{fmt}-{damage.__name__}" for fmt, damage in MALFORMED_MANIFESTS],
    )
    def test_malformed_manifest(self, tmp_path, v1_path, v2_path, fmt, damage):
        """Typed where the manifest is parsed, naming the file."""
        broken = tmp_path / "shape.cdz"
        rewrite_manifest({1: v1_path, 2: v2_path}[fmt], broken, damage)
        assert_every_entry_point_typed(broken, match="shape.cdz")
