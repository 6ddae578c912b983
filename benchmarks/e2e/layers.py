"""Which public callables stand for which layer, and the per-layer metrics.

Layer names are the ``repro`` subpackages.  ``install`` wraps the calls
into each layer; ``layer_metrics`` turns one traced run — spans, the
program's own ``repro.obs`` counters, the client's samples — into the
flat ``per_layer`` metric list of BENCHMARK.json.  Every name is
reported on every workload; a layer the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from benchmarks.e2e import stats
from benchmarks.e2e.script import REDUCTIONS
from benchmarks.e2e.spans import BACKGROUND, Span, Tracer, layer_self_ms

GESTURE_KINDS = ("step", "orbit", "repeat", "jump")

#: counters of the program's own ``repro.obs`` that the metrics read
OBS_COUNTERS = (
    "serving.requests", "serving.coalesced",
    "serving.speculative.started", "serving.speculative.hit", "serving.speculative.waste",
    "serving.wire.bytes.sent", "executor.cache.hit", "executor.cache.miss",
    "streaming.prefetch.hits", "streaming.prefetch.misses",
    "cdat.slabs", "cdat.materialize", "streaming.materialize.full",
    "rasterizer.triangles", "isosurface.triangles",
    "raycast.rays", "raycast.samples", "raycast.samples.skipped",
)


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer, at every import site."""
    from repro.app.application import Application
    from repro.cdat.registry import OperationRegistry
    from repro.cdms import dataset as cdms_dataset
    from repro.cdms import storage
    from repro.cdms.lazy import LazyVariable
    from repro.data import catalog
    from repro.dv3d import translation
    from repro.dv3d.cell import DV3DCell
    from repro.dv3d.isosurface import IsosurfacePlot
    from repro.dv3d.slicer import SlicerPlot
    from repro.dv3d.volume import VolumePlot
    from repro.provenance.version_tree import VersionTree
    from repro.rendering import isosurface, ppm, rasterizer, raycast
    from repro.rendering.framebuffer import Framebuffer
    from repro.rendering.scene import Renderer
    from repro.serving import wire
    from repro.serving.backend import AppBackend
    from repro.serving.server import ServingServer
    from repro.streaming.prefetch import Prefetcher
    from repro.streaming.reader import ChunkReader
    from repro.workflow.executor import Executor

    def demanded(tracer: Tracer, backend: Any, request: Any, *_: Any) -> bool:
        # a slot also renders speculatively; only the request the client
        # is waiting for belongs to the outstanding frame
        return dict(request.params) == tracer.frame_params

    wrap = tracer.wrap_all
    wrap(wire, "write_frame", "serving.wire")
    wrap(wire, "read_frame", "serving.wire.read")
    wrap(ServingServer, "submit", "serving.server")
    wrap(AppBackend, "__call__", "serving.backend", classify=demanded)
    wrap(Application, "create_plot", "app.create_plot")
    wrap(VersionTree, "materialize", "provenance.materialize")
    wrap(Executor, "execute", "workflow.execute")
    wrap(cdms_dataset, "open_dataset", "cdms.open_dataset")
    wrap(storage, "write_cdz", "cdms.storage.write_v2",
         note=lambda result, path, variables, *_, **__: sum(
             int(v.size) * v.dtype.itemsize for v in variables))
    wrap(catalog, "synthetic_reanalysis", "data.generate")
    wrap(ChunkReader, "read_chunk", "streaming.read_chunk",
         note=lambda result, *_: getattr(result, "nbytes", 0))
    wrap(Prefetcher, "get", "streaming.prefetch")
    wrap(LazyVariable, "__getitem__", "cdms.lazy")
    wrap(OperationRegistry, "apply_cached", "cdat.apply",
         note=lambda result, registry, name, *_: name)
    wrap(translation, "translate_variable", "dv3d.translate")
    for plot in (SlicerPlot, IsosurfacePlot, VolumePlot):
        wrap(plot, "build_scene", "dv3d.build_scene")
    wrap(DV3DCell, "render", "dv3d.cell")
    wrap(Renderer, "render", "rendering.render")
    wrap(rasterizer, "rasterize", "rendering.rasterize")
    wrap(raycast, "raycast_volume", "rendering.raycast")
    wrap(isosurface, "marching_tetrahedra", "rendering.isosurface")
    wrap(Framebuffer, "to_uint8", "rendering.encode")
    wrap(ppm, "ppm_bytes", "rendering.encode")


def read_counters(recorder: Any) -> Dict[str, float]:
    return {name: float(recorder.counter_total(name)) for name in OBS_COUNTERS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def attribute(frames: Sequence[Dict[str, Any]], spans: Sequence[Span]) -> None:
    """Give each traced frame its per-layer self times and raw spans."""
    grouped: Dict[int, List[Span]] = {}
    for span in spans:
        if span.frame != BACKGROUND:
            grouped.setdefault(span.frame, []).append(span)
    for frame in frames:
        own = grouped.get(frame["i"], [])
        root = next((s for s in own if s.layer == "client"), None)
        if root is not None:  # untimed preparation of the op is not the frame
            own = [root] + [s for s in own
                            if s is not root and root.start_ns <= s.start_ns < root.end_ns]
        for span in own:  # a blocking read is waiting for the peer, not wire work
            if span.layer == "serving.wire.read":
                span.layer = "client.wait"
        frame["spans"] = own
        frame["self_ms"] = layer_self_ms(own)


def kind_shares(frames: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per op kind: each layer's self time as a share of the client's wall."""
    table: Dict[str, Dict[str, float]] = {}
    for kind in ("open",) + GESTURE_KINDS:
        chosen = [f for f in frames if f["kind"] == kind]
        wall = sum(f["ms"] for f in chosen)
        if not chosen or not wall:
            continue
        layers: Dict[str, float] = {}
        for frame in chosen:
            for layer, ms in frame["self_ms"].items():
                layers[layer] = layers.get(layer, 0.0) + ms
        table[kind] = {layer: ms / wall for layer, ms in sorted(layers.items())}
    return table


def layer_metrics(
    frames: Sequence[Dict[str, Any]],
    spans: Sequence[Span],
    window_ns: int,
    counters_open: Dict[str, float],
    counters_pass: Dict[str, float],
    samples: Dict[str, List[float]],
    untraced_step_ms: float,
    traced_step_ms: float,
    cpu_ms: float,
    sessions: int,
    pixels: int,
) -> Dict[str, Dict[str, Any]]:
    """The flat per-layer metric list for one traced run."""
    gestures = [f for f in frames if f["kind"] in GESTURE_KINDS]
    steps = [f for f in frames if f["kind"] == "step"]
    opens = [f for f in frames if f["kind"] == "open"]
    traced_ids = {f["i"] for f in frames}

    def mean_self(chosen: Sequence[Dict[str, Any]], *layers: str) -> float:
        return _ratio(sum(f["self_ms"].get(layer, 0.0) for f in chosen for layer in layers),
                      len(chosen))

    def mean_total(chosen: Sequence[Dict[str, Any]], layer: str) -> float:
        # duration of the layer's spans, children included
        return _ratio(sum(s.ms for f in chosen for s in f["spans"]
                          if s.layer == layer and not s.parallel), len(chosen))

    def count(chosen: Sequence[Dict[str, Any]], layer: str) -> float:
        return _ratio(sum(1 for f in chosen for s in f["spans"] if s.layer == layer),
                      len(chosen))

    def share(chosen: Sequence[Dict[str, Any]], *layers: str) -> float:
        return _ratio(sum(f["self_ms"].get(layer, 0.0) for f in chosen for layer in layers),
                      sum(f["ms"] for f in chosen))

    def of_layer(layer: str) -> List[Span]:
        return [s for s in spans if s.layer == layer]

    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    c = counters_pass
    requests = c["serving.requests"]
    n = len(gestures)
    # -- serving -------------------------------------------------------------
    put("serving.wire.self_ms_per_frame", mean_self(gestures, "serving.wire"), "ms")
    put("serving.wire.bytes_per_frame", _ratio(c["serving.wire.bytes.sent"], requests), "B")
    put("serving.server.self_ms_per_frame", mean_self(gestures, "serving.server"), "ms")
    put("serving.backend.self_ms_per_frame", mean_self(gestures, "serving.backend"), "ms")
    put("serving.cache.hit_share",
        _ratio(sum(1 for f in gestures if f.get("source") == "cache"), n), "share")
    put("serving.speculative.hit_share", _ratio(c["serving.speculative.hit"], requests), "share")
    put("serving.speculative.waste_share",
        _ratio(c["serving.speculative.waste"], c["serving.speculative.started"]), "share")
    put("serving.coalesced_share", _ratio(c["serving.coalesced"], requests), "share")
    background = sum(s.ms for s in spans if s.layer == "serving.backend"
                     and s.frame == BACKGROUND and s.start_ns >= window_ns)
    put("serving.speculative.background_ms_per_session", _ratio(background, sessions), "ms")
    # -- app / provenance / workflow ------------------------------------------
    put("app.create_plot.self_ms_per_open", mean_self(opens, "app.create_plot"), "ms")
    put("provenance.materialize.ms_per_open", mean_total(opens, "provenance.materialize"), "ms")
    put("workflow.execute.self_ms_per_open", mean_self(opens, "workflow.execute"), "ms")
    memo = counters_open["executor.cache.hit"] + c["executor.cache.hit"]
    put("workflow.execute.memo_hit_share",
        _ratio(memo, memo + counters_open["executor.cache.miss"] + c["executor.cache.miss"]),
        "share")
    # -- set-up: data, container, open ----------------------------------------
    put("data.generate_s", sum(s.ms for s in of_layer("data.generate")) / 1e3, "s")
    writes = of_layer("cdms.storage.write_v2")
    write_s = sum(s.ms for s in writes) / 1e3
    put("cdms.storage.write_v2_s", write_s, "s")
    put("cdms.storage.write_v2_mb_per_s",
        _ratio(sum(s.note or 0 for s in writes) / 1e6, write_s), "MB/s")
    opened = of_layer("cdms.open_dataset")
    put("cdms.open_dataset_ms", statistics.fmean(s.ms for s in opened) if opened else 0.0, "ms")
    # -- streaming ---------------------------------------------------------------
    reads = [s for s in of_layer("streaming.read_chunk") if s.frame in traced_ids]
    read_ms = sum(s.ms for s in reads)
    put("streaming.read_chunk.ms_per_chunk", _ratio(read_ms, len(reads)), "ms")
    step_ids = {f["i"] for f in steps}
    put("streaming.read_chunk.chunks_per_step",
        _ratio(sum(1 for s in reads if s.frame in step_ids), len(steps)), "count")
    put("streaming.read_chunk.mb_per_s",
        _ratio(sum(s.note or 0 for s in reads) / 1e6, read_ms / 1e3), "MB/s")
    put("streaming.prefetch.wait_ms_per_step", mean_self(steps, "streaming.prefetch"), "ms")
    put("streaming.prefetch.hit_share",
        _ratio(c["streaming.prefetch.hits"],
               c["streaming.prefetch.hits"] + c["streaming.prefetch.misses"]), "share")
    jumps = samples.get("jump", [])
    put("streaming.jump_ms_p50", statistics.median(jumps) if jumps else 0.0, "ms")
    put("cdms.lazy.getitem_ms_per_step", mean_total(steps, "cdms.lazy"), "ms")
    # -- cdat ------------------------------------------------------------------------
    for kind in REDUCTIONS:
        chosen = [f for f in steps if f["stratum"] == kind]
        put(f"cdat.apply.{kind}.self_ms_per_step", mean_self(chosen, "cdat.apply"), "ms")
    put("cdat.slabs_per_step", _ratio(c["cdat.slabs"], len(steps)), "count")
    put("cdat.materialize_full",
        c["cdat.materialize"] + c["streaming.materialize.full"]
        + counters_open["cdat.materialize"] + counters_open["streaming.materialize.full"],
        "count")
    # -- dv3d -------------------------------------------------------------------------
    put("dv3d.translate.ms_per_frame", mean_total(gestures, "dv3d.translate"), "ms")
    put("dv3d.build_scene.self_ms_per_frame", mean_self(gestures, "dv3d.build_scene"), "ms")
    put("dv3d.cell.furnish_ms_per_frame", mean_self(gestures, "dv3d.cell"), "ms")
    # -- rendering ---------------------------------------------------------------------
    put("rendering.rasterize.ms_per_frame", mean_total(gestures, "rendering.rasterize"), "ms")
    put("rendering.rasterize.calls_per_frame", count(gestures, "rendering.rasterize"), "count")
    put("rendering.rasterize.triangles_per_frame", _ratio(c["rasterizer.triangles"], n), "count")
    put("rendering.rasterize.triangles_per_pixel",
        _ratio(c["rasterizer.triangles"], n * pixels), "count")
    put("rendering.isosurface.ms_per_frame", mean_total(gestures, "rendering.isosurface"), "ms")
    put("rendering.isosurface.triangles_per_frame", _ratio(c["isosurface.triangles"], n), "count")
    put("rendering.raycast.ms_per_frame", mean_total(gestures, "rendering.raycast"), "ms")
    put("rendering.raycast.rays_per_frame", _ratio(c["raycast.rays"], n), "count")
    put("rendering.raycast.samples_skipped_share",
        _ratio(c["raycast.samples.skipped"],
               c["raycast.samples"] + c["raycast.samples.skipped"]), "share")
    put("rendering.render.self_ms_per_frame", mean_self(gestures, "rendering.render"), "ms")
    put("rendering.encode.ms_per_frame", mean_total(gestures, "rendering.encode"), "ms")
    rendered = [f for f in gestures if "rendering.render" in f["self_ms"]]
    put("rendering.frame_cache.hit_share",  # Renderer.render that drew nothing
        _ratio(sum(1 for f in rendered if "rendering.rasterize" not in f["self_ms"]
                   and "rendering.raycast" not in f["self_ms"]), len(rendered)), "share")
    # -- the client's own view ---------------------------------------------------
    for kind in ("open", "step", "orbit", "repeat"):
        values = samples.get(kind, [])
        put(f"client.{kind}_ms_p95", stats.percentile(values, 95.0) if values else 0.0, "ms")
    put("client.cpu_ms_per_frame", _ratio(cpu_ms, len(frames)), "ms")
    unattributed = ("client", "client.wait")
    put("client.attributed_share",
        1.0 - share(steps, *unattributed) if steps else 0.0, "share")
    put("trace.overhead_share", _ratio(traced_step_ms, untraced_step_ms) - 1.0
        if untraced_step_ms else 0.0, "share")
    return out
