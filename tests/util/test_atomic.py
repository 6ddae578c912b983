"""``repro.util.atomic``: the one crash-safe publish idiom.

What its two users (the ``.cdz`` writer and the cache's disk tier) rely
on end to end — SIGKILL and failing-fsync safety — is checked for both
in ``tests/streaming/test_crash_safety.py``; this file covers the
module's own contract.
"""

from __future__ import annotations

import os

import pytest

from repro.util import atomic


def _files(directory):
    return sorted(p for p in directory.rglob("*") if p.is_file())


def test_contents_appear_at_the_path_and_no_temp_file_remains(tmp_path):
    path = tmp_path / "out.bin"
    with atomic.atomic_publish(path) as handle:
        handle.write(b"payload")
        assert not path.exists()  # nothing visible until the block ends
    assert path.read_bytes() == b"payload"
    assert _files(tmp_path) == [path]


def test_tmp_dir_stages_the_temp_file_elsewhere(tmp_path, monkeypatch):
    staged = []
    real_replace = os.replace

    def spy(src, dst):
        staged.append(str(src))
        return real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", spy)
    (tmp_path / "fan").mkdir()
    with atomic.atomic_publish(tmp_path / "fan" / "out.pkl", tmp_dir=tmp_path) as handle:
        handle.write(b"x")
    (src,) = staged
    assert os.path.dirname(src) == str(tmp_path)
    assert os.path.basename(src).startswith(atomic.TMP_PREFIX)


def test_failure_inside_the_block_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic.atomic_publish(path) as handle:
            handle.write(b"new")
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"old"
    assert _files(tmp_path) == [path]


def test_before_rename_can_abort_the_publish(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def veto():
        raise RuntimeError("abort")

    with pytest.raises(RuntimeError):
        with atomic.atomic_publish(path, before_rename=veto) as handle:
            handle.write(b"new")
    assert path.read_bytes() == b"old"
    assert _files(tmp_path) == [path]


def test_reap_removes_only_stale_temp_files(tmp_path):
    now = 10_000.0
    stale = tmp_path / f"{atomic.TMP_PREFIX}deadwriter"
    fresh = tmp_path / f"{atomic.TMP_PREFIX}inflight"
    entry = tmp_path / "entry.pkl"
    for path, age in ((stale, 1000.0), (fresh, 1.0), (entry, 1000.0)):
        path.write_bytes(b"x")
        os.utime(path, (now - age, now - age))
    atomic.reap_stale_tmp(tmp_path, 300.0, now)
    assert _files(tmp_path) == [fresh, entry]
