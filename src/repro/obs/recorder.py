"""The process-global span/metric recorder.

A :class:`Recorder` accumulates completed :class:`SpanRecord` rows plus
counter/gauge/histogram series.  Span parent/child structure comes from
a stack of open spans held in a :class:`contextvars.ContextVar`, one
per execution context: each thread starts with an empty stack (the
executor runs modules on a ``ThreadPoolExecutor``, so each worker
thread nests independently), and each ``asyncio`` task works on its
own copy, so two requests interleaved on one event loop build disjoint
trees.  The stack is an immutable tuple, so a copied context never
shares it.  Cross-thread edges are created explicitly by passing
``parent_id`` (captured on the dispatching thread with
:func:`current_span_id`).

The module-level functions (:func:`span`, :func:`counter`,
:func:`gauge`, :func:`histogram`) are the instrumentation API used by
the hot paths.  They check the module-level enabled flag *first* and
return without allocating anything when recording is off, so
instrumented kernels run at full speed by default.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import (
    HistogramData,
    MetricKey,
    decode_series,
    encode_series,
)


@dataclass
class SpanRecord:
    """One completed span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    thread: str
    start: float  # seconds since the recorder's epoch
    duration: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SpanRecord":
        return SpanRecord(
            span_id=int(data["id"]),
            parent_id=None if data.get("parent") is None else int(data["parent"]),
            name=str(data["name"]),
            thread=str(data.get("thread", "")),
            start=float(data.get("start", 0.0)),
            duration=float(data.get("duration", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )


class Span:
    """An open span; a context manager that records itself on exit.

    Attributes can be attached at creation (``span("x", rows=3)``) or
    later via :meth:`set` (e.g. a result count known only at the end).
    """

    __slots__ = ("_recorder", "id", "parent_id", "name", "attrs", "_start")

    def __init__(
        self,
        recorder: "Recorder",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self.id: Optional[int] = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._recorder._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder._pop(self, duration)


class _NullSpan:
    """Shared no-op stand-in returned while recording is disabled."""

    __slots__ = ()
    id: Optional[int] = None
    parent_id: Optional[int] = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Recorder:
    """Accumulates spans and metrics; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: this context's open spans, innermost last
        self._open: contextvars.ContextVar[Tuple[Span, ...]] = contextvars.ContextVar(
            "repro.obs.open_spans", default=()
        )
        self._next_id = 1
        self.epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.counters: Dict[MetricKey, float] = {}
        self.gauges: Dict[MetricKey, float] = {}
        self.histograms: Dict[MetricKey, HistogramData] = {}

    # -- spans ---------------------------------------------------------------

    def span(
        self, name: str, parent_id: Optional[int] = None, **attrs: Any
    ) -> Span:
        """Open a span; nest under the context's current span by default."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent_id is None:
            parent_id = self.current_span_id()
        return Span(self, span_id, parent_id, name, dict(attrs))

    def current_span_id(self) -> Optional[int]:
        """Id of this context's innermost open span (None at top level)."""
        stack = self._open.get()
        return stack[-1].id if stack else None

    def _push(self, span: Span) -> None:
        self._open.set(self._open.get() + (span,))

    def _pop(self, span: Span, duration: float) -> None:
        stack = self._open.get()
        if stack and stack[-1] is span:
            self._open.set(stack[:-1])
        record = SpanRecord(
            span_id=span.id if span.id is not None else 0,
            parent_id=span.parent_id,
            name=span.name,
            thread=threading.current_thread().name,
            start=span._start - self.epoch,
            duration=duration,
            attrs=span.attrs,
        )
        with self._lock:
            self.spans.append(record)

    # -- metrics -------------------------------------------------------------

    def counter(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = MetricKey.make(name, labels)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        key = MetricKey.make(name, labels)
        with self._lock:
            self.gauges[key] = float(value)

    def histogram(self, name: str, value: float, **labels: Any) -> None:
        key = MetricKey.make(name, labels)
        with self._lock:
            hist = self.histograms.get(key)
            if hist is None:
                hist = self.histograms[key] = HistogramData()
            hist.observe(value)

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 if never incremented)."""
        return self.counters.get(MetricKey.make(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        return sum(v for k, v in self.counters.items() if k.name == name)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded data (open spans on other threads are kept)."""
        with self._lock:
            self.spans.clear()
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.epoch = time.perf_counter()

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": [s.to_dict() for s in self.spans],
                "counters": encode_series(self.counters, "counter"),
                "gauges": encode_series(self.gauges, "gauge"),
                "histograms": encode_series(self.histograms, "histogram"),
            }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Recorder":
        recorder = Recorder()
        recorder.spans = [SpanRecord.from_dict(row) for row in data.get("spans", [])]
        recorder.counters = decode_series(data.get("counters", []), "counter")
        recorder.gauges = decode_series(data.get("gauges", []), "gauge")
        recorder.histograms = decode_series(data.get("histograms", []), "histogram")
        recorder._next_id = 1 + max((s.span_id for s in recorder.spans), default=0)
        return recorder

    @staticmethod
    def from_json(payload: str) -> "Recorder":
        return Recorder.from_dict(json.loads(payload))

    def summary_tree(self) -> str:
        """Human-readable aggregated span tree (see ``obs.summary``)."""
        from repro.obs.summary import render_summary_tree

        return render_summary_tree(self)


# -- module-level instrumentation API ---------------------------------------
#
# ``_ENABLED`` is the zero-cost gate: every entry point below checks it
# before touching (or allocating) anything else.

_ENABLED = False
_RECORDER = Recorder()


def enable(recorder: Optional[Recorder] = None) -> Recorder:
    """Turn recording on (optionally installing a fresh recorder)."""
    global _ENABLED, _RECORDER
    if recorder is not None:
        _RECORDER = recorder
    _ENABLED = True
    return _RECORDER


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def get_recorder() -> Recorder:
    return _RECORDER


def set_recorder(recorder: Recorder) -> None:
    global _RECORDER
    _RECORDER = recorder


def span(name: str, parent_id: Optional[int] = None, **attrs: Any):
    """Open a span on the global recorder (shared no-op when disabled)."""
    if not _ENABLED:
        return NULL_SPAN
    return _RECORDER.span(name, parent_id=parent_id, **attrs)


def current_span_id() -> Optional[int]:
    if not _ENABLED:
        return None
    return _RECORDER.current_span_id()


def counter(name: str, value: float = 1.0, **labels: Any) -> None:
    if not _ENABLED:
        return
    _RECORDER.counter(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    if not _ENABLED:
        return
    _RECORDER.gauge(name, value, **labels)


def histogram(name: str, value: float, **labels: Any) -> None:
    if not _ENABLED:
        return
    _RECORDER.histogram(name, value, **labels)


class recording:
    """Context manager: enable a fresh (or given) recorder, then restore.

    >>> from repro import obs
    >>> with obs.recording() as rec:
    ...     with obs.span("work"):
    ...         pass
    >>> rec.spans[0].name
    'work'
    """

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder if recorder is not None else Recorder()
        self._saved: Optional[Recorder] = None
        self._was_enabled = False

    def __enter__(self) -> Recorder:
        self._saved = get_recorder()
        self._was_enabled = enabled()
        enable(self.recorder)
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._saved is not None:
            set_recorder(self._saved)
        if not self._was_enabled:
            disable()
