"""Crash-safe publication, checked once for every ``atomic_publish`` user.

The ``.cdz`` writer and the result cache's disk tier publish through
:func:`repro.util.atomic.atomic_publish`: the file is staged in a temp file and appears with a single ``os.replace``.  A
writer SIGKILLed at the fsync hook must leave nothing but ``.tmp-*``
debris at the destination — never a readable-but-partial file — and a
failing fsync must leave the previous file byte-for-byte intact.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal

import pytest

from repro.cache.store import DiskTier
from repro.cdms.storage import read_cdz, write_cdz
from repro.util import atomic

from .conftest import make_variable

KEY = "ab" + "c" * 62


class CdzUser:
    """Publishes a ``.cdz`` container."""

    raises_on_failure = True

    def target(self, directory):
        return directory / "data.cdz"

    def write(self, directory, generation):
        write_cdz(self.target(directory), [make_variable(ntime=4, seed=generation)])

    def read(self, directory):
        if not self.target(directory).exists():
            return None
        _, _, [var] = read_cdz(self.target(directory))
        for generation in (1, 2):
            expected = make_variable(ntime=4, seed=generation)
            if var.filled().tobytes() == expected.filled().tobytes():
                return generation
        raise AssertionError("container holds neither generation: torn write")


class DiskTierUser:
    """Publishes cache entries; a failed store is a miss, never an error."""

    raises_on_failure = False

    def target(self, directory):
        return DiskTier(str(directory), max_bytes=1 << 30)._path(KEY)

    def write(self, directory, generation):
        DiskTier(str(directory), max_bytes=1 << 30).put(
            KEY, {"generation": generation, "blob": b"x" * 65536}
        )

    def read(self, directory):
        found, value = DiskTier(str(directory), max_bytes=1 << 30).get(KEY)
        return value["generation"] if found else None


USERS = {"2": CdzUser(), "disk-tier": DiskTierUser()}  # "2": the .cdz format version


@pytest.fixture(params=list(USERS))
def user(request):
    return USERS[request.param]


def _files(directory):
    return [p for p in directory.rglob("*") if p.is_file()]


def _killed_writer(user, directory) -> None:
    def kill_instead_of_sync(fd: int) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    atomic._fsync = kill_instead_of_sync
    user.write(directory, 1)


def _failing_fsync(fd: int) -> None:
    raise OSError("disk full")


class TestKilledWriter:
    def test_sigkill_mid_publish_leaves_no_final_file(self, user, tmp_path):
        proc = mp.get_context("fork").Process(
            target=_killed_writer, args=(user, tmp_path)
        )
        proc.start()
        proc.join(60.0)
        assert proc.exitcode == -signal.SIGKILL

        assert not user.target(tmp_path).exists(), "torn file published"
        assert user.read(tmp_path) is None  # a clean miss, not a corrupt read
        debris = _files(tmp_path)
        assert len(debris) == 1
        assert debris[0].name.startswith(atomic.TMP_PREFIX)
        # a later writer succeeds despite the debris
        user.write(tmp_path, 2)
        assert user.read(tmp_path) == 2

    def test_existing_file_survives_failed_rewrite(self, user, tmp_path, monkeypatch):
        user.write(tmp_path, 1)
        before = user.target(tmp_path).read_bytes()

        monkeypatch.setattr(atomic, "_fsync", _failing_fsync)
        if user.raises_on_failure:
            with pytest.raises(OSError):
                user.write(tmp_path, 2)
        else:
            user.write(tmp_path, 2)

        assert user.target(tmp_path).read_bytes() == before
        assert user.read(tmp_path) == 1
        # the aborted attempt cleans up its own temp file
        assert _files(tmp_path) == [user.target(tmp_path)]

    def test_publish_is_atomic_rename(self, tmp_path, monkeypatch):
        observed = {}
        real_replace = os.replace

        def spy(src, dst):
            observed["src"] = str(src)
            observed["dst"] = str(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(atomic.os, "replace", spy)
        path = tmp_path / "atomic.cdz"
        write_cdz(path, [make_variable(ntime=2)])
        assert observed["dst"] == str(path)
        assert os.path.dirname(observed["src"]) == str(tmp_path)
        assert os.path.basename(observed["src"]).startswith(atomic.TMP_PREFIX)
