"""Observability: hierarchical tracing spans and labelled metrics.

The paper's value proposition is an *interactive* exploration loop —
workflow re-execution with caching, heavy numpy rendering kernels, and
distributed hyperwall execution.  This package makes that loop
observable: every hot path (executor module runs, ray casting,
isosurface extraction, streamline integration, rasterization,
regridding, hyperwall message traffic) emits spans and metrics into a
process-global :class:`Recorder`, exportable as JSON or as a
human-readable summary tree.

Design constraints:

* **dependency-free** — stdlib only; importable everywhere without
  cycles (``repro.obs`` sits below every other layer);
* **zero-cost when disabled** — the module-level enabled flag is
  checked before any recorder allocation; ``span()`` returns a shared
  no-op singleton and every metric call is a single guarded return, so
  instrumented kernels run at seed speed with recording off (the
  default);
* **thread-aware** — span stacks are thread-local (the executor runs
  modules on a ``ThreadPoolExecutor``); cross-thread parenting is
  explicit via ``parent_id``.

Usage::

    from repro import obs

    obs.enable()
    with obs.span("raycast.render", rays=1024):
        ...
    obs.counter("executor.cache.hit")
    obs.histogram("executor.module.duration", 0.25, module="Slicer")
    print(obs.get_recorder().summary_tree())
    payload = obs.get_recorder().to_json()
    obs.disable()
"""

from repro.obs.metrics import HistogramData, MetricKey, bucket_bounds
from repro.obs.recorder import (
    NULL_SPAN,
    Recorder,
    Span,
    SpanRecord,
    counter,
    current_span_id,
    disable,
    enable,
    enabled,
    gauge,
    get_recorder,
    histogram,
    recording,
    set_recorder,
    span,
)
from repro.obs.summary import render_summary_tree

__all__ = [
    "HistogramData",
    "MetricKey",
    "NULL_SPAN",
    "Recorder",
    "Span",
    "SpanRecord",
    "bucket_bounds",
    "counter",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_recorder",
    "histogram",
    "recording",
    "render_summary_tree",
    "set_recorder",
    "span",
]
