"""The two-tier result store: in-memory LRU over an on-disk cache.

**Memory tier** — a thread-safe LRU bounded by entry count; hits cost a
dict lookup and return the stored object itself (the serving tier
stores immutable encoded frames).

**Disk tier** — one file per key under a two-level fan-out directory
(the pickle's sha256, then the pickle), shared safely between
processes:

* writes are published with :func:`repro.util.atomic.atomic_publish`
  (private temp file, flush, fsync, atomic rename), so concurrent
  writers of the same key race harmlessly (last published wins, readers
  never observe a torn file) and a writer killed mid-write leaves only
  a stale temp file, never a corrupt entry;
* reads open the final path and read it to EOF before unpickling; on
  POSIX an entry evicted mid-read stays readable through the open file
  descriptor, so eviction under size pressure never breaks a reader;
* eviction is least-recently-used by file mtime: a write sets it and a
  verified read refreshes it (a tier whose files cannot be touched
  still serves, it just evicts in write order);
* a read compares the payload's sha256 with the stored one before
  unpickling; a mismatch (a flipped bit, a truncation) or an
  undecodable pickle (version skew) is counted in ``cache.corrupt``,
  deleted and reported as a miss — the cache degrades, it never serves
  wrong bytes or fails the request it would serve.

Entries never expire: they leave by LRU / byte-budget eviction,
:meth:`ResultCache.delete` / :meth:`ResultCache.clear`, or a
:data:`~repro.cache.keys.CODE_SALT` bump that changes every key.

Every lookup/store emits ``cache.hits`` / ``cache.misses`` /
``cache.evictions`` counters (labelled by call site and tier) and
``cache.lookup.seconds`` / ``cache.store.seconds`` histograms through
:mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, Tuple

from repro import obs
from repro.cache.config import CacheConfig
from repro.util.atomic import atomic_publish, reap_stale_tmp

#: temp files older than this are debris from killed writers
STALE_TMP_SECONDS = 300.0
#: length of the sha256 digest each disk entry starts with
_DIGEST_BYTES = hashlib.sha256().digest_size
#: pickle errors that mean "corrupt or incompatible entry", not a bug
_DECODE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, ImportError,
    IndexError, MemoryError, ValueError, TypeError,
)


class MemoryTier:
    """A thread-safe LRU of at most *capacity* entries."""

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Tuple[bool, Any]:
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            return True, self._entries[key]

    def put(self, key: str, value: Any) -> int:
        """Store *value*; returns how many entries were evicted."""
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def delete(self, key: str) -> bool:
        """Drop *key* if present; returns whether an entry was removed."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskTier:
    """The process-shared pickle-file tier (see module docstring)."""

    def __init__(self, root: str, max_bytes: int, clock=time.time) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self._clock = clock  # the stale-temp reaper's notion of now
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def entries(self) -> Iterable[Path]:
        yield from self.root.glob("??/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        path = self._path(key)
        try:
            handle = open(path, "rb")
        except OSError:
            return False, None
        try:
            with handle:
                stored = handle.read()
        except OSError:
            return False, None
        payload = memoryview(stored)[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() == stored[:_DIGEST_BYTES]:
            try:
                value = pickle.loads(payload)
            except _DECODE_ERRORS:
                pass
            else:
                try:
                    os.utime(path)  # a read makes the entry most recent
                except OSError:
                    pass  # a tier that cannot be touched still serves
                return True, value
        # flipped, torn or incompatible entry: drop it, report a miss
        obs.counter("cache.corrupt", tier="disk")
        self._discard(path)
        return False, None

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def delete(self, key: str) -> bool:
        """Unlink *key*'s entry; returns whether a file was removed."""
        path = self._path(key)
        existed = path.exists()
        self._discard(path)
        return existed

    # -- store -------------------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Atomically publish *value* under *key*; returns evictions.

        Never raises on I/O failure — a cache that cannot store is a
        cache that misses.  Unpicklable values are skipped the same way
        (the memory tier still serves them within the process).
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError):
            obs.counter("cache.unpicklable", tier="disk")
            return 0
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # temp files live in the root, where the reaper looks
            with atomic_publish(path, tmp_dir=self.root) as handle:
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
        except OSError:
            return 0
        return self._evict_to_budget()

    def _evict_to_budget(self) -> int:
        """Unlink stalest entries until the tier fits its byte budget."""
        now = self._clock()
        stats = []
        total = 0
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stats.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        evicted = 0
        if total > self.max_bytes:
            for mtime, size, path in sorted(stats):
                if total <= self.max_bytes:
                    break
                self._discard(path)
                total -= size
                evicted += 1
        reap_stale_tmp(self.root, STALE_TMP_SECONDS, now)
        return evicted

    def clear(self) -> None:
        for path in self.entries():
            self._discard(path)


class ResultCache:
    """The two-tier facade, built from a :class:`CacheConfig` and handed
    to its one user (a :class:`~repro.serving.server.ServingServer`)."""

    def __init__(self, config: CacheConfig) -> None:
        self.memory = MemoryTier(config.memory_entries) if config.wants_memory else None
        self.disk = (
            DiskTier(config.resolved_path(), config.disk_bytes)
            if config.wants_disk else None
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str, site: str = "cache") -> Tuple[bool, Any]:
        """(hit, value); a disk hit is promoted into the memory tier."""
        start = time.perf_counter()
        tier = None
        value = None
        if self.memory is not None:
            found, value = self.memory.get(key)
            if found:
                tier = "memory"
        if tier is None and self.disk is not None:
            found, value = self.disk.get(key)
            if found:
                tier = "disk"
                if self.memory is not None:
                    self._count_evictions(self.memory.put(key, value), site)
        if obs.enabled():
            obs.histogram(
                "cache.lookup.seconds", time.perf_counter() - start, site=site
            )
        if tier is None:
            self.misses += 1
            obs.counter("cache.misses", site=site)
            return False, None
        self.hits += 1
        obs.counter("cache.hits", site=site, tier=tier)
        return True, value

    def put(self, key: str, value: Any, site: str = "cache") -> None:
        start = time.perf_counter()
        evicted = 0
        if self.memory is not None:
            evicted += self.memory.put(key, value)
        if self.disk is not None:
            evicted += self.disk.put(key, value)
        self._count_evictions(evicted, site)
        if obs.enabled():
            obs.histogram(
                "cache.store.seconds", time.perf_counter() - start, site=site
            )

    def delete(self, key: str, site: str = "cache") -> bool:
        """Remove *key* from every tier (targeted invalidation).

        The serving layer's per-tenant quota ledger calls this to evict
        one tenant's overflow without disturbing other tenants' entries.
        Returns whether any tier held the key.
        """
        removed = False
        if self.memory is not None:
            removed = self.memory.delete(key) or removed
        if self.disk is not None:
            removed = self.disk.delete(key) or removed
        self._count_evictions(int(removed), site)
        return removed

    def _count_evictions(self, count: int, site: str) -> None:
        """Add *count* to :attr:`evictions` and the ``cache.evictions`` counter."""
        if count:
            self.evictions += count
            obs.counter("cache.evictions", count, site=site)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "memory_entries": 0 if self.memory is None else len(self.memory),
            "disk_entries": 0 if self.disk is None else len(self.disk),
        }

    def clear(self) -> None:
        if self.memory is not None:
            self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

