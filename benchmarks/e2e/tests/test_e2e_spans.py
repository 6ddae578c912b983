"""Span self-time subtraction and frame attribution across threads."""

import asyncio
import sys
import threading
import time
import types

from benchmarks.e2e.spans import BACKGROUND, Span, Tracer, layer_self_ms, self_times


def _span(layer, start, end, thread="MainThread", **extra):
    return Span(layer, int(start * 1e6), int(end * 1e6), 7, thread, **extra)


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("client", 0, 100),
        _span("serving.server", 10, 90, thread="loop"),
        _span("serving.backend", 20, 80, thread="slot"),
        _span("rendering.rasterize", 30, 50, thread="slot"),
        _span("rendering.rasterize", 55, 75, thread="slot"),
    ]
    assert layer_self_ms(spans) == {
        "client": 20.0, "serving.server": 20.0, "serving.backend": 20.0,
        "rendering.rasterize": 40.0,
    }
    assert sum(ms for _, ms in self_times(spans)) == 100.0  # sums to the frame


def test_a_span_outliving_its_parent_is_cut_where_the_parent_ends():
    # the server's next read starts inside the frame and blocks past its end
    spans = [_span("client", 0, 100), _span("serving.wire.read", 95, 5000, thread="conn")]
    assert layer_self_ms(spans) == {"client": 95.0, "serving.wire.read": 5.0}


def test_parallel_threads_are_kept_out_of_the_nesting():
    spans = [
        _span("client", 0, 100),
        _span("streaming.read_chunk", 10, 60, thread="streaming-prefetch-ta", parallel=True),
    ]
    assert layer_self_ms(spans) == {"client": 100.0}


def test_frames_are_attributed_across_threads_and_speculation_is_background():
    tracer = Tracer()
    tracer.enabled = True

    def inner():
        time.sleep(0.001)

    def backend(request):
        traced_inner()

    traced_inner = tracer.wrap(inner, "rendering.rasterize")
    traced_backend = tracer.wrap(
        backend, "serving.backend",
        classify=lambda tracer, request: request == tracer.frame_params)

    tracer.frame, tracer.frame_params = 41, {"timestep": 3}
    demand = threading.Thread(target=traced_backend, args=({"timestep": 3},), name="slot-0")
    speculative = threading.Thread(target=traced_backend, args=({"timestep": 4},), name="slot-1")
    demand.start(), speculative.start()
    demand.join(timeout=5), speculative.join(timeout=5)
    assert not demand.is_alive() and not speculative.is_alive()
    tracer.frame, tracer.frame_params = BACKGROUND, None
    traced_backend({"timestep": 9})  # nobody is waiting: background

    by_thread = {(s.thread, s.layer): s.frame for s in tracer.spans}
    assert by_thread[("slot-0", "serving.backend")] == 41
    assert by_thread[("slot-0", "rendering.rasterize")] == 41  # inherited from its caller
    assert by_thread[("slot-1", "serving.backend")] == BACKGROUND
    assert by_thread[("slot-1", "rendering.rasterize")] == BACKGROUND
    assert by_thread[("MainThread", "serving.backend")] == BACKGROUND


def test_a_prefetch_thread_is_marked_parallel():
    tracer = Tracer()
    tracer.enabled = True
    read = tracer.wrap(lambda: None, "streaming.read_chunk")
    worker = threading.Thread(target=read, name="streaming-prefetch-ta")
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert [s.parallel for s in tracer.spans] == [True]


def test_coroutines_are_spanned_over_their_awaits():
    tracer = Tracer()
    tracer.enabled = True

    async def submit(request):
        await asyncio.sleep(0.002)
        return "frame"

    traced = tracer.wrap(submit, "serving.server")
    tracer.frame = 5
    assert asyncio.run(traced({})) == "frame"
    (span,) = tracer.spans
    assert span.frame == 5 and span.ms >= 2.0


def test_a_disabled_tracer_records_nothing():
    tracer = Tracer()
    traced = tracer.wrap(lambda x: x + 1, "layer")
    assert traced(1) == 2 and tracer.spans == []


def test_wrap_all_patches_every_import_site_and_undoes_it():
    owner = types.ModuleType("repro.e2e_fake_owner")
    importer = types.ModuleType("repro.e2e_fake_importer")

    def render():
        return "pixels"

    owner.render = importer.render = render
    sys.modules[owner.__name__], sys.modules[importer.__name__] = owner, importer
    tracer = Tracer()
    try:
        tracer.wrap_all(owner, "render", "rendering.render")
        assert owner.render is importer.render and owner.render is not render
        tracer.enabled = True
        assert importer.render() == "pixels"
        assert [s.layer for s in tracer.spans] == ["rendering.render"]
        tracer.unwrap_all()
        assert owner.render is render and importer.render is render
    finally:
        del sys.modules[owner.__name__], sys.modules[importer.__name__]
