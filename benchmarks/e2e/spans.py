"""Spans recorded from outside the program, by wrapping its public callables.

``Tracer.wrap_all`` replaces a callable at *every* import site — the
defining module and each ``from x import f`` copy — so a call is seen
however the caller spells it.  Spans stay in memory and are read when
the run ends.  A span carries the id of the frame that was outstanding
when it started (the loop is closed: one request at a time), or
``BACKGROUND`` for work nobody is waiting for — a speculative render,
a prefetch between requests.

Self time is a span's duration minus the part its children cover.
Children are found by time containment among the spans of one frame,
across threads: a frame's work is handed from the client thread to the
connection thread to the event loop to a slot thread, one at a time,
so containment *is* causation.  Threads that run beside the request
(the prefetcher) are kept out of the nesting and reported on their own.
"""

from __future__ import annotations

import asyncio
import functools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

BACKGROUND = -1
#: threads whose work overlaps the request instead of nesting inside it
PARALLEL_THREAD_PREFIXES = ("streaming-prefetch",)


@dataclass
class Span:
    layer: str
    start_ns: int
    end_ns: int
    frame: int
    thread: str
    parallel: bool = False
    note: Any = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Collects spans while ``enabled``; wrappers cost one check when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: id and request params of the frame the client is waiting for
        self.frame: int = BACKGROUND
        self.frame_params: Any = None
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _frame_for(self, classify: Optional[Callable[..., bool]], args: tuple) -> int:
        inherited = getattr(self._local, "frame", None)
        if inherited is not None:
            return inherited
        if classify is not None and not classify(self, *args):
            return BACKGROUND
        return self.frame

    def _record(self, layer: str, start: int, frame: int, note: Any) -> None:
        name = threading.current_thread().name
        self.spans.append(Span(
            layer, start, perf_counter_ns(), frame, name,
            parallel=name.startswith(PARALLEL_THREAD_PREFIXES), note=note,
        ))

    def wrap(self, fn: Callable, layer: str,
             classify: Optional[Callable[..., bool]] = None,
             note: Optional[Callable[..., Any]] = None) -> Callable:
        """A wrapper that records one span per call of *fn*.

        *classify(tracer, \\*args)* says whether a call that starts a
        thread's work belongs to the outstanding frame (else it is
        background); nested calls inherit their caller's frame.
        *note(result, \\*args)* attaches a small fact to the span.
        """
        tracer = self

        if asyncio.iscoroutinefunction(fn):
            # tasks interleave on the loop thread, so a coroutine span
            # is an interval only: nothing inherits from it
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                frame = tracer._frame_for(classify, args)
                start = perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer._record(layer, start, frame,
                                   note(result, *args) if note else None)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            outer = getattr(local, "frame", None)
            frame = tracer._frame_for(classify, args)
            local.frame = frame
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                local.frame = outer
                tracer._record(layer, start, frame,
                               note(result, *args) if note else None)

        return traced

    # -- patching ----------------------------------------------------------

    def wrap_all(self, owner: Any, name: str, layer: str, **options: Any) -> None:
        """Wrap ``owner.name`` and every other ``repro`` binding of it."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        wrapper = self.wrap(original, layer, **options)
        sites = [owner]
        if not isinstance(owner, type):
            sites += [
                module for module_name, module in list(sys.modules.items())
                if module is not None and module is not owner
                and module_name.split(".")[0] == "repro"
                and module.__dict__.get(name) is original
            ]
        for site in sites:
            self._undo.append((site, name, original))
            setattr(site, name, wrapper)

    def unwrap_all(self) -> None:
        while self._undo:
            site, name, original = self._undo.pop()
            setattr(site, name, original)


# -- analysis ---------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> List[Tuple[Span, float]]:
    """(span, self ms) for the sequential spans of one frame.

    Spans are nested by time containment; a span's self time is its
    duration minus its direct children's.  A span that outlives the
    span it started in is cut off where that one ends.
    """
    ordered = sorted(
        (s for s in spans if not s.parallel),
        key=lambda s: (s.start_ns, -s.end_ns),
    )
    entries: List[List[Any]] = []  # [span, end ns after clipping, self ns]
    stack: List[List[Any]] = []
    for span in ordered:
        while stack and stack[-1][1] <= span.start_ns:
            stack.pop()
        end = min(span.end_ns, stack[-1][1]) if stack else span.end_ns
        entry = [span, end, end - span.start_ns]
        if stack:
            stack[-1][2] -= entry[2]
        entries.append(entry)
        stack.append(entry)
    return [(span, max(ns, 0) / 1e6) for span, _, ns in entries]


def layer_self_ms(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer for the spans of one frame."""
    totals: Dict[str, float] = {}
    for span, ms in self_times(spans):
        totals[span.layer] = totals.get(span.layer, 0.0) + ms
    return totals
