"""Crash-safe file publication: same-directory temp file, fsync, rename.

The one publish idiom of the repo — the result cache's disk tier and
the ``.cdz`` container writer both go through :func:`atomic_publish`.
Nothing is ever visible at the target path until the whole file hit
disk: concurrent writers of one path race harmlessly (last published
wins, readers never observe a torn file), a writer that fails cleans
up its own temp file, and a writer killed at any point leaves only a
``.tmp-*`` file behind, which :func:`reap_stale_tmp` removes once it is
old enough to be debris rather than a publish in flight.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, Union

#: prefix of in-flight temp files (ignored by scans, reaped when stale)
TMP_PREFIX = ".tmp-"


def _fsync(fd: int) -> None:
    """Module-level so crash tests can intercept the pre-publish sync."""
    os.fsync(fd)


@contextlib.contextmanager
def atomic_publish(
    path: Union[str, Path],
    tmp_dir: Union[str, Path, None] = None,
    before_rename: Optional[Callable[[], None]] = None,
) -> Iterator[BinaryIO]:
    """Yield a binary handle whose contents appear at *path* all at once.

    On leaving the block the temp file is flushed, fsynced and renamed
    over *path*; on any failure (in the block, the sync or the rename)
    it is unlinked and the error propagates, leaving *path* as it was.
    *tmp_dir* (default: the directory of *path*) must be on the same
    filesystem for the rename to be atomic.  *before_rename* runs
    between the sync and the rename — the last point at which a caller
    can still abort the publish by raising.
    """
    path = Path(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=str(path.parent if tmp_dir is None else tmp_dir),
        prefix=TMP_PREFIX,
        suffix=path.suffix,
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            _fsync(handle.fileno())
        if before_rename is not None:
            before_rename()
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def reap_stale_tmp(
    directory: Union[str, Path], max_age_seconds: float, now: float
) -> None:
    """Unlink ``.tmp-*`` debris in *directory* older than *max_age_seconds*
    at time *now* (what writers killed mid-publish leave behind)."""
    for tmp in Path(directory).glob(f"{TMP_PREFIX}*"):
        try:
            if now - tmp.stat().st_mtime > max_age_seconds:
                tmp.unlink()
        except OSError:
            pass
