"""Disk-tier safety under concurrency and crashes.

The three guarantees the atomic-rename design makes:

* two processes racing on the same key are safe — readers observe
  either a miss or one writer's complete value, never a torn file;
* a writer SIGKILLed mid-publish leaves temp debris at worst, never a
  corrupt (or partial) final entry (``tests/streaming/test_crash_safety.py``,
  for every ``atomic_publish`` user), and
  the debris is reaped once stale;
* eviction under size pressure never breaks a reader that already
  opened the entry (POSIX unlink-during-read).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time

import pytest

from repro.cache.store import DiskTier
from repro.util.atomic import TMP_PREFIX

KEY = "ab" + "c" * 62


def _race_writer(root: str, key: str, payload_id: int, rounds: int) -> None:
    tier = DiskTier(root, max_bytes=1 << 30)
    value = {"writer": payload_id, "blob": bytes([payload_id]) * 65536}
    for _ in range(rounds):
        tier.put(key, value)


class TestSameKeyRace:
    def test_two_process_race_never_tears(self, tmp_path):
        root = str(tmp_path)
        ctx = mp.get_context("fork")
        rounds = 40
        writers = [
            ctx.Process(target=_race_writer, args=(root, KEY, wid, rounds))
            for wid in (1, 2)
        ]
        for proc in writers:
            proc.start()
        tier = DiskTier(root, max_bytes=1 << 30)
        observed = set()
        reads = 0
        try:
            while any(proc.is_alive() for proc in writers):
                found, value = tier.get(KEY)
                if found:
                    # a complete, self-consistent value from one writer
                    assert value["blob"] == bytes([value["writer"]]) * 65536
                    observed.add(value["writer"])
                    reads += 1
        finally:
            for proc in writers:
                proc.join(30.0)
        assert all(proc.exitcode == 0 for proc in writers)
        assert reads > 0 and observed <= {1, 2}
        # last published wins; the final entry is intact
        found, value = tier.get(KEY)
        assert found and value["writer"] in (1, 2)


def _killed_writer(root: str, key: str) -> None:
    # die *inside* put, after writing the temp file but before the
    # atomic rename publishes it
    from repro.util import atomic

    def kill_instead_of_sync(fd: int) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    atomic._fsync = kill_instead_of_sync
    DiskTier(root, max_bytes=1 << 30).put(key, {"big": b"x" * 65536})


class TestKilledWriter:
    def test_debris_from_killed_writer_is_eventually_reaped(self, tmp_path):
        root = str(tmp_path)
        ctx = mp.get_context("fork")
        proc = ctx.Process(target=_killed_writer, args=(root, KEY))
        proc.start()
        proc.join(30.0)
        (debris,) = list(tmp_path.glob(f"{TMP_PREFIX}*"))
        os.utime(debris, (1.0, 1.0))  # age it past STALE_TMP_SECONDS
        DiskTier(root, max_bytes=1 << 30).put("de" + "f" * 62, 1)
        assert not debris.exists()


class TestEvictionDuringRead:
    def test_unlinked_entry_stays_readable_through_open_handle(self, tmp_path):
        # the property DiskTier.get relies on: once the reader has the
        # file open, eviction (unlink) cannot tear the bytes out from
        # under it on POSIX
        tier = DiskTier(str(tmp_path), max_bytes=1 << 30)
        value = {"blob": b"z" * (1 << 20)}
        tier.put(KEY, value)
        path = tier._path(KEY)
        stored = path.read_bytes()
        with open(path, "rb") as handle:
            path.unlink()  # eviction happens mid-read
            assert handle.read() == stored
        assert tier.get(KEY) == (False, None)  # and is an honest miss after

    def test_reader_never_breaks_under_eviction_pressure(self, tmp_path):
        # hammer a tiny-budget tier from a writer thread (every put
        # evicts) while a reader loops on one key: every successful get
        # returns a complete value; failures are only clean misses
        blob = b"q" * 8192
        entry = len(pickle.dumps({"k": KEY, "blob": blob}, pickle.HIGHEST_PROTOCOL))
        tier = DiskTier(str(tmp_path), max_bytes=entry * 2)
        stop = threading.Event()
        errors = []

        def writer():
            keys = [KEY] + [f"{i:02d}" + "e" * 62 for i in range(10, 16)]
            i = 0
            while not stop.is_set():
                k = keys[i % len(keys)]
                tier.put(k, {"k": k, "blob": blob})
                i += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            hits = 0
            deadline = time.monotonic() + 20.0
            while hits < 20 and time.monotonic() < deadline:
                try:
                    found, value = tier.get(KEY)
                except Exception as exc:  # noqa: BLE001 - the property under test
                    errors.append(exc)
                    break
                if found:
                    assert value == {"k": KEY, "blob": blob}
                    hits += 1
        finally:
            stop.set()
            thread.join(10.0)
        assert not errors, f"reader broke under eviction pressure: {errors[0]!r}"
        assert hits > 0  # the loop exercised real hits, not only misses


@pytest.mark.parametrize("n_procs", [4])
def test_many_processes_distinct_keys(tmp_path, n_procs):
    """Concurrent writers on distinct keys all land, none interfere."""
    ctx = mp.get_context("fork")
    keys = [f"{i:02d}" + "a" * 62 for i in range(n_procs)]
    procs = [
        ctx.Process(target=_race_writer, args=(str(tmp_path), key, i + 1, 10))
        for i, key in enumerate(keys)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(30.0)
    assert all(proc.exitcode == 0 for proc in procs)
    tier = DiskTier(str(tmp_path), max_bytes=1 << 30)
    assert len(tier) == n_procs
    for i, key in enumerate(keys):
        found, value = tier.get(key)
        assert found and value["writer"] == i + 1
