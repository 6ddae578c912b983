"""Archive-level access to a ``.cdz`` container (format v2).

A :class:`StreamingSource` opens the container once, verifies the
manifest and axes eagerly (metadata is tiny; corruption there should
fail at open, not mid-animation), and hands out one
:class:`~repro.streaming.reader.ChunkReader` per variable.  Payload
chunks are *not* touched at open — that is the whole point.  Every load
of a v2 container is one of these: streaming keeps it open behind lazy
variables, an eager :func:`~repro.cdms.storage.read_cdz` reads every
chunk through it and closes it.

That one open is also the only time the zip central directory is
parsed.  From it (and each member's local header) the source keeps an
**extent table**, ``member -> (payload offset, size)`` for every
``ZIP_STORED`` member, and :meth:`StreamingSource.read_stored` serves a
chunk's bytes with one positioned read on a descriptor opened for the
call: a chunk read costs what its bytes cost, and no handle outlives
it.  The table is derived from the container's own directory, never
stored, so any v2 container reads the same way.  The read skips the
CRC32 ``zipfile`` would check; every caller verifies the payload's
sha256 against the manifest, which supersedes it.

The source is picklable by path + config (readers are rebuilt on
unpickle), which is what lets lazy variables travel through
workflow specs to hyperwall cells that then stream their own chunks.
"""

from __future__ import annotations

import struct
import zipfile
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.cdms.axis import Axis
from repro.cdms.storage import opened_container, typed_manifest_errors
from repro.streaming.config import StreamingConfig
from repro.streaming.format import (
    FORMAT_VERSION,
    VariableLayout,
    load_axes,
    parse_layouts,
)
from repro.streaming.reader import ChunkReader
from repro.util.errors import StreamingError

PathLike = Union[str, Path]

#: a zip local file header opens with this signature and ends with the
#: lengths of the name and extra fields that sit between it and the payload
_LOCAL_SIGNATURE = b"PK\x03\x04"
_LOCAL_HEADER = struct.Struct("<26xHH")


def _stored_extents(archive: zipfile.ZipFile) -> Dict[str, Tuple[int, int]]:
    """``member -> (payload offset, size)`` of every ``ZIP_STORED`` member.

    The offset is past the member's *local* header, whose name and extra
    fields may be longer than the central directory's copy (zip64).  A
    member whose local header is damaged is left out: reading it is the
    same typed error as reading one that is missing.
    """
    extents: Dict[str, Tuple[int, int]] = {}
    for info in archive.infolist():
        if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
            continue
        archive.fp.seek(info.header_offset)
        header = archive.fp.read(_LOCAL_HEADER.size)
        if len(header) == _LOCAL_HEADER.size and header.startswith(_LOCAL_SIGNATURE):
            name_length, extra_length = _LOCAL_HEADER.unpack(header)
            payload_offset = info.header_offset + len(header) + name_length + extra_length
            extents[info.filename] = (payload_offset, info.file_size)
    return extents


class StreamingSource:
    """One open v2 container: verified metadata, on-demand payloads."""

    def __init__(
        self,
        path: PathLike,
        config: Optional[StreamingConfig] = None,
        opened: Optional[Tuple[zipfile.ZipFile, Dict[str, object]]] = None,
    ) -> None:
        """Open *path* — or, when a caller has it open already, take the
        ``(archive, manifest)`` it passes as *opened* (used only here;
        the caller still closes the archive)."""
        self.path = Path(path)
        self.config = config or StreamingConfig()
        with (
            opened_container(self.path) if opened is None else nullcontext(opened)
        ) as (archive, manifest):
            version = manifest.get("format_version")
            if version != FORMAT_VERSION:
                raise StreamingError(
                    f"{self.path}: not a v2 streaming container "
                    f"(format_version={version!r})"
                )
            with typed_manifest_errors(self.path):
                self.axes: Dict[str, Axis] = load_axes(archive, manifest)
                self.layouts: List[VariableLayout] = parse_layouts(manifest, self.axes)
                self.dataset_id = str(manifest.get("id", self.path.stem))
                self.attributes: Dict[str, object] = dict(manifest.get("attributes", {}))
            self._extents = _stored_extents(archive)
        self._by_id: Dict[str, VariableLayout] = {l.id: l for l in self.layouts}
        self._readers: Dict[str, ChunkReader] = {}

    # -- per-variable machinery --------------------------------------------

    def layout(self, var_id: str) -> VariableLayout:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise StreamingError(
                f"{self.path}: no variable {var_id!r} "
                f"(has {sorted(self._by_id)})"
            ) from None

    def reader(self, var_id: str) -> ChunkReader:
        if var_id not in self._readers:
            self._readers[var_id] = ChunkReader(self, self.layout(var_id))
        return self._readers[var_id]

    # -- payload bytes ------------------------------------------------------

    def read_stored(self, member: str) -> bytes:
        """The payload bytes of one ``ZIP_STORED`` member, unverified.

        One positioned read at the member's extent; the file is opened
        for the call and closed after it.  Callers check the bytes
        against the manifest's sha256 — nothing here detects a container
        that was replaced or damaged since the source was opened.
        """
        try:
            offset, size = self._extents[member]
        except KeyError:
            raise StreamingError(
                f"archive member {member!r} is missing or not stored uncompressed"
            ) from None
        try:
            with open(self.path, "rb") as handle:
                handle.seek(offset)
                payload = handle.read(size)
        except OSError as exc:
            raise StreamingError(
                f"archive member {member!r} unreadable: {exc}"
            ) from exc
        if len(payload) != size:
            raise StreamingError(
                f"archive member {member!r} is truncated: "
                f"{len(payload)} of {size} bytes at offset {offset}"
            )
        return payload

    def close(self) -> None:
        """Nothing to release: no handle outlives a read and no thread
        reads ahead.  A source is closed like a file all the same, so
        callers need not know that."""

    def __enter__(self) -> "StreamingSource":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pickling (hyperwall transport) ------------------------------------

    def __reduce__(self) -> Tuple[object, ...]:
        return (StreamingSource, (str(self.path), self.config))
