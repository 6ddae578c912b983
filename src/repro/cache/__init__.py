"""Provenance-keyed result caching for the pipeline hot paths.

UV-CDAT's promise is provenance-tracked exploration: a pipeline spec
deterministically yields its products, which is exactly what makes
memoization safe.  This package supplies the machinery:

* :mod:`repro.cache.keys` — canonical content hashing (numpy arrays,
  grids, variables, scenes, plot specs) that is stable across
  processes and sensitive to every representational change;
* :mod:`repro.cache.store` — a two-tier store (in-memory LRU + an
  on-disk tier shared between processes via atomic renames, each entry
  digest-checked before it is served) with size bounds and full
  :mod:`repro.obs` instrumentation;
* :mod:`repro.cache.config` — an ambient :class:`CacheConfig` scope
  (:class:`~repro.util.scope.ConfigScope`).

The cache stores results, never inputs.  Ambient consumers opt in
through the one ambient config scope — there is no per-object cache
knob; each asks :func:`~repro.cache.store.ambient_cache` for the store,
and the pure get-or-compute sites go through
:func:`~repro.cache.store.memoize`.  The four ambient sites:

* :class:`~repro.workflow.executor.Executor` memoizes module outputs
  by signature across executor instances and processes;
* :class:`~repro.rendering.scene.Renderer` memoizes whole frames by
  (scene, camera, size) digest — every DV3D plot type and hyperwall
  cell rides on this;
* :func:`~repro.cdms.regrid.regrid_bilinear` /
  :func:`~repro.cdms.regrid.regrid_conservative` memoize regrid
  products by (variable, target grid, scheme) digest;
* :meth:`~repro.cdat.registry.OperationRegistry.apply_cached` memoizes
  ``cdat.operation`` results by (operation, arguments) digest.

Container chunks are not cached: the streaming reader verifies every
chunk it decodes, and the prefetch window's byte budget is the only
thing that holds them.

:class:`~repro.serving.server.ServingServer` is the one explicit
consumer: it keys every request by its canonical digest — the
coalescing key for concurrent sessions — and serves repeat requests
(and stale frames under overload) from the :class:`ResultCache` it is
given, with per-tenant quota eviction via
:meth:`~repro.cache.store.ResultCache.delete`; it never reads the
ambient scope.

Usage::

    from repro import cache

    cfg = cache.CacheConfig(memory_entries=512, disk_bytes=1 << 30,
                            path="/tmp/repro-cache")
    with cache.use_config(cfg):
        plot.render(800, 600)  # cold: rendered and stored
        plot.render(800, 600)  # warm: served byte-identical from cache
        print(cache.get_cache().stats())

Processes forked inside the block (a ``LocalCluster``'s clients)
inherit the scope.
"""

from repro.cache.config import (
    CacheConfig,
    default_cache_dir,
    get_config,
    set_config,
    use_config,
)
from repro.cache.keys import CODE_SALT, cache_key, digest, scene_digest
from repro.cache.store import (
    DiskTier,
    MemoryTier,
    ResultCache,
    ambient_cache,
    get_cache,
    memoize,
    reset_cache,
)

__all__ = [
    "CODE_SALT",
    "CacheConfig",
    "DiskTier",
    "MemoryTier",
    "ResultCache",
    "ambient_cache",
    "cache_key",
    "default_cache_dir",
    "digest",
    "get_cache",
    "get_config",
    "memoize",
    "reset_cache",
    "scene_digest",
    "set_config",
    "use_config",
]
