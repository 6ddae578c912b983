"""The serving tier's result cache.

A rendered frame is a deterministic function of its request
parameters, which is what makes storing it safe.  This package holds
the store and its keys; its one user is
:class:`~repro.serving.server.ServingServer`, which is *handed* a
:class:`ResultCache` (or ``None``) at construction.  Nothing reads a
cache from process state: there is no ambient config and no memo site
inside the kernels.

* :mod:`repro.cache.keys` — canonical content hashing (plain values,
  numpy arrays, CDMS axes/grids/variables) that is stable across
  processes and sensitive to every representational change;
* :mod:`repro.cache.store` — a two-tier store (in-memory LRU + an
  on-disk tier shared between processes via atomic renames, each entry
  digest-checked before it is served, evicted least recently used)
  with size bounds and full :mod:`repro.obs` instrumentation;
* :mod:`repro.cache.config` — :class:`CacheConfig`, the size bounds and
  location of the two tiers.

The server keys every request by its canonical digest — the coalescing
key for concurrent sessions — and serves repeat requests (and stale
frames under overload) from its cache, with per-tenant quota eviction
via :meth:`~repro.cache.store.ResultCache.delete`.

Usage::

    from repro.cache import CacheConfig, ResultCache
    from repro.serving import AppBackend, ServingServer

    cache = ResultCache(CacheConfig(memory_entries=512, use_disk=False))
    server = ServingServer(AppBackend(), cache=cache)

The paper's own result caching (VisTrails' upstream signatures) is
:class:`~repro.workflow.executor.Executor`'s private memo, not this
package.
"""

from repro.cache.config import CacheConfig, default_cache_dir
from repro.cache.keys import CODE_SALT, cache_key, digest, json_key
from repro.cache.store import DiskTier, MemoryTier, ResultCache

__all__ = [
    "CODE_SALT",
    "CacheConfig",
    "DiskTier",
    "MemoryTier",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "digest",
    "json_key",
]
