"""Recorder: span nesting (across threads and asyncio tasks) and metric series."""

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.obs import NULL_SPAN, Recorder


def span_by_name(recorder, name):
    matches = [s for s in recorder.spans if s.name == name]
    assert len(matches) == 1, f"expected one {name!r} span, got {len(matches)}"
    return matches[0]


class TestSpanNesting:
    def test_parent_child_same_thread(self):
        with obs.recording() as rec:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        outer = span_by_name(rec, "outer")
        inner = span_by_name(rec, "inner")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_sibling_spans_share_parent(self):
        with obs.recording() as rec:
            with obs.span("root"):
                with obs.span("a"):
                    pass
                with obs.span("b"):
                    pass
        root = span_by_name(rec, "root")
        assert span_by_name(rec, "a").parent_id == root.span_id
        assert span_by_name(rec, "b").parent_id == root.span_id

    def test_cross_thread_parenting_via_parent_id(self):
        """Worker threads have empty stacks; the dispatching thread passes
        its span id explicitly (the executor's pattern)."""
        with obs.recording() as rec:
            with obs.span("dispatch") as dispatch:
                def work(i):
                    with obs.span("worker", parent_id=dispatch.id, index=i):
                        pass

                with ThreadPoolExecutor(max_workers=4) as pool:
                    list(pool.map(work, range(8)))
        dispatch_record = span_by_name(rec, "dispatch")
        workers = [s for s in rec.spans if s.name == "worker"]
        assert len(workers) == 8
        assert all(w.parent_id == dispatch_record.span_id for w in workers)
        assert sorted(w.attrs["index"] for w in workers) == list(range(8))

    def test_thread_stacks_are_independent(self):
        """A span opened on one thread must not become the implicit parent
        of spans opened on another."""
        with obs.recording() as rec:
            with obs.span("main-only"):
                def work():
                    with obs.span("detached"):
                        pass

                with ThreadPoolExecutor(max_workers=1) as pool:
                    pool.submit(work).result()
        assert span_by_name(rec, "detached").parent_id is None

    def test_interleaved_asyncio_tasks_build_disjoint_trees(self):
        """Two requests on one event loop, each awaiting inside its span,
        must not nest under each other."""
        async def request(name, opened, other_opened):
            with obs.span(name):
                opened.set()
                await other_opened.wait()  # the other task opens its span meanwhile
                with obs.span(f"{name}.work"):
                    await asyncio.sleep(0)

        async def main():
            a_open, b_open = asyncio.Event(), asyncio.Event()
            await asyncio.gather(
                request("a", a_open, b_open), request("b", b_open, a_open)
            )

        with obs.recording() as rec:
            asyncio.run(main())
        a, b = span_by_name(rec, "a"), span_by_name(rec, "b")
        assert a.parent_id is None and b.parent_id is None
        assert span_by_name(rec, "a.work").parent_id == a.span_id
        assert span_by_name(rec, "b.work").parent_id == b.span_id

    def test_a_copied_context_does_not_share_the_stack(self):
        with obs.recording() as rec:
            with obs.span("outer") as outer:
                copied = contextvars.copy_context()
            # the copy still sees "outer" open; closing it here did not reach in
            assert copied.run(obs.current_span_id) == outer.id
            # and a span open in the copy is not open here
            in_copy = copied.run(obs.span, "in-copy")
            copied.run(in_copy.__enter__)
            assert rec.current_span_id() is None
            copied.run(in_copy.__exit__, None, None, None)
        assert span_by_name(rec, "in-copy").parent_id == outer.id

    def test_a_new_thread_starts_with_an_empty_stack(self):
        seen = []
        with obs.recording():
            with obs.span("main-only"):
                thread = threading.Thread(target=lambda: seen.append(obs.current_span_id()))
                thread.start()
                thread.join()
        assert seen == [None]

    def test_span_records_duration_and_attrs(self):
        with obs.recording() as rec:
            with obs.span("timed", rows=3) as sp:
                sp.set(cols=4)
        record = span_by_name(rec, "timed")
        assert record.duration >= 0.0
        assert record.attrs == {"rows": 3, "cols": 4}

    def test_exception_sets_error_attr_and_pops_stack(self):
        with obs.recording() as rec:
            try:
                with obs.span("doomed"):
                    raise ValueError("boom")
            except ValueError:
                pass
            assert rec.current_span_id() is None
        assert span_by_name(rec, "doomed").attrs["error"] == "ValueError"

    def test_current_span_id_tracks_innermost(self):
        with obs.recording() as rec:
            assert rec.current_span_id() is None
            with obs.span("outer") as outer:
                assert obs.current_span_id() == outer.id
                with obs.span("inner") as inner:
                    assert obs.current_span_id() == inner.id
                assert obs.current_span_id() == outer.id


class TestDisabledIsFree:
    def test_span_returns_shared_null_span(self):
        assert not obs.enabled()
        sp = obs.span("anything", huge=list(range(3)))
        assert sp is NULL_SPAN
        assert sp.set(more=1) is NULL_SPAN
        with sp:
            pass

    def test_metrics_are_dropped_when_disabled(self):
        baseline = obs.get_recorder().to_dict()
        obs.counter("nope")
        obs.gauge("nope", 1.0)
        obs.histogram("nope", 1.0)
        assert obs.get_recorder().to_dict() == baseline

    def test_recording_restores_previous_state(self):
        before = obs.get_recorder()
        assert not obs.enabled()
        with obs.recording() as rec:
            assert obs.enabled()
            assert obs.get_recorder() is rec
        assert not obs.enabled()
        assert obs.get_recorder() is before


class TestMetricAggregation:
    def test_counter_accumulates_per_label_series(self):
        with obs.recording() as rec:
            obs.counter("cache", module="a")
            obs.counter("cache", module="a")
            obs.counter("cache", 3, module="b")
        assert rec.counter_value("cache", module="a") == 2.0
        assert rec.counter_value("cache", module="b") == 3.0
        assert rec.counter_total("cache") == 5.0
        assert rec.counter_value("cache", module="zzz") == 0.0

    def test_gauge_keeps_last_value(self):
        with obs.recording() as rec:
            obs.gauge("depth", 4.0)
            obs.gauge("depth", 7.0)
        assert len(rec.gauges) == 1
        assert next(iter(rec.gauges.values())) == 7.0

    def test_histogram_streams_summary_statistics(self):
        with obs.recording() as rec:
            for value in (1.0, 2.0, 3.0):
                obs.histogram("latency", value, op="render")
        hist = next(iter(rec.histograms.values()))
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_counters_are_thread_safe(self):
        with obs.recording() as rec:
            def bump():
                for _ in range(200):
                    obs.counter("hits")

            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(bump) for _ in range(8)]:
                    future.result()
        assert rec.counter_value("hits") == 8 * 200

    def test_reset_clears_everything(self):
        rec = Recorder()
        with obs.recording(rec):
            with obs.span("s"):
                obs.counter("c")
                obs.gauge("g", 1.0)
                obs.histogram("h", 1.0)
        rec.reset()
        assert rec.spans == []
        assert rec.counters == {}
        assert rec.gauges == {}
        assert rec.histograms == {}
