"""The measured process: one workload, one op list, one result file.

set-up (imports, input container, server start, one untimed warm-up
pass, ``gc.collect(); gc.freeze()``) -> open phase -> K timed passes ->
reference checks.  The client is this process's main thread: closed
loop, one request outstanding, timed with ``perf_counter_ns`` around
the call that a user of the system would make.
"""

from __future__ import annotations

from time import perf_counter_ns

FIRST_LINE_NS = perf_counter_ns()  # set-up is timed from here

import argparse
import contextlib
import gc
import json
import resource
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import oracle, stats
from benchmarks.e2e.probe import Probe
from benchmarks.e2e.script import CONTAINER, GESTURES
from benchmarks.e2e.spans import BACKGROUND, Span, Tracer


@dataclass
class Outcome:
    start_ns: int
    end_ns: int
    status: str = "error"
    source: str = ""
    advertised: str = ""
    payload: bytes = b""
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class WireDriver:
    """A client of a WireSessionServer over a real socket."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        from repro.cache.config import CacheConfig
        from repro.cache.store import ResultCache
        from repro.serving import AppBackend, ServingConfig, WireSessionServer

        cache = None
        if spec.get("cache_entries"):  # the documented session set-up: memory only
            cache = ResultCache(CacheConfig(
                enabled=True, memory_entries=spec["cache_entries"], use_disk=False))
        self.server = WireSessionServer(
            AppBackend(), ServingConfig(**spec.get("serving", {})), cache=cache,
        ).start()
        self.client = None
        self.session = None
        self.results: Dict[str, Any] = {}

    def _connect(self, session: str, tenant: str) -> None:
        from repro.serving import WireSessionClient

        if self.client is not None:
            self.client.close()
        self.client = WireSessionClient(self.server.host, self.server.port).connect()
        self.client.open(session, tenant=tenant)
        self.session = session

    def begin_pass(self) -> None:
        pass

    def run(self, op: Dict[str, Any]) -> Outcome:
        from repro.util.errors import ServingError

        if op["session"] != self.session:
            self._connect(op["session"], op["tenant"])
        start = perf_counter_ns()
        try:
            frame = self.client.render(op["params"])
        except (ServingError, OSError) as exc:
            self.session = None  # the stream is broken: dial again for the next op
            return Outcome(start, perf_counter_ns(), error=repr(exc))
        end = perf_counter_ns()
        return Outcome(start, end, str(frame.meta.get("status")),
                       str(frame.meta.get("source", "")),
                       str(frame.meta.get("digest", "")), frame.payload)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        # stop() closes the listener, which on Linux does not wake the thread
        # blocked in accept(): stop() then sits out a 5 s join.  One last
        # connection wakes it.
        stopper = threading.Thread(target=self.server.stop)
        stopper.start()
        time.sleep(0.02)
        with contextlib.suppress(OSError):
            socket.create_connection((self.server.host, self.server.port), timeout=0.5).close()
        stopper.join()


class AnalyzeDriver:
    """The analyst at the GUI: Application -> Project -> vistrail -> cell."""

    def __init__(self, container: str, frame: Sequence[int]) -> None:
        from repro.app.application import Application

        self.app = Application()
        self.project = self.app.new_project("e2e")
        self.container = container
        self.width, self.height = frame
        self.sheets = 0
        #: sheet and module ids of the scene the gestures play on
        self.gesture: Tuple[str, Dict[str, int]] = ("", {})
        #: per reduction kind, the last (edit, reduced variable) the workflow produced
        self.results: Dict[str, Any] = {}

    def begin_pass(self) -> None:
        """Untimed: drop the executor memo, so every step is a real reduction.

        The memo holds the one streamed dataset every vistrail shares;
        it is closed first, or its prefetch threads would outlive it.
        """
        sheet, ids = self.gesture
        if sheet:
            binding = self.project.sheets[sheet].get(0, 0).binding
            pipeline = self.project.get_vistrail(binding.vistrail_name).tree.materialize(
                binding.version, self.project.registry)
            held = self.project.executor.execute(pipeline, targets=[ids["reader"]])
            held.output(ids["reader"], "dataset").close()
        self.project.executor.clear_cache()

    def _frame(self, sheet: str, camera: Any = None) -> bytes:
        from repro.rendering.ppm import ppm_bytes

        cell = self.project.sheets[sheet].get(0, 0).cell
        return ppm_bytes(cell.render(self.width, self.height, camera=camera).to_uint8())

    def _execute(self, sheet: str, edit: Dict[str, Any]) -> bytes:
        cell = self.project.execute_cell(sheet, 0, 0)
        self.results[edit["operation"]] = (edit, cell.plot.variable)
        return self._frame(sheet)

    def _open(self, edit: Dict[str, Any]) -> Tuple[bytes, str, Dict[str, int]]:
        """Drop a Volume plot on a fresh sheet, then splice the analysis in."""
        sheet = f"sheet-{self.sheets}"
        self.sheets += 1
        self.app.create_plot(
            "Volume", sheet, (0, 0), self.container, {"variable": edit["variable"]},
            cell_params={"width": self.width, "height": self.height, "show_basemap": False},
            execute=False,
        )
        slot = self.project.sheets[sheet].get(0, 0)
        vistrail = self.project.get_vistrail(slot.binding.vistrail_name)
        by_name = {spec.name: mid for mid, spec in vistrail.pipeline.modules.items()}
        reader, variable = by_name["cdms:CDMSDatasetReader"], by_name["cdms:CDMSVariableReader"]
        plot = by_name["dv3d:VolumeRender"]
        vistrail.set_parameter(reader, "streaming", "on")
        for connection in list(vistrail.pipeline.incoming(plot)):
            vistrail.delete_connection(connection.id)
        operation = vistrail.add_module(
            "cdat:CDATOperation", {"operation": edit["operation"], "args": edit["args"]})
        vistrail.add_connection(variable, "variable", operation, "variable")
        vistrail.add_connection(operation, "variable", plot, "variable")
        slot.binding.version = vistrail.current_version
        ids = {"reader": reader, "variable": variable, "operation": operation}
        return self._execute(sheet, edit), sheet, ids

    def _step(self, sheet: str, ids: Dict[str, int], edit: Dict[str, Any]) -> bytes:
        slot = self.project.sheets[sheet].get(0, 0)
        vistrail = self.project.get_vistrail(slot.binding.vistrail_name)
        vistrail.set_parameter(ids["variable"], "variable", edit["variable"])
        vistrail.set_parameter(ids["operation"], "operation", edit["operation"])
        vistrail.set_parameter(ids["operation"], "args", edit["args"])
        slot.binding.version = vistrail.current_version
        return self._execute(sheet, edit)

    def _orbit(self, sheet: str, azimuth: float) -> bytes:
        plot = self.project.sheets[sheet].get(0, 0).cell.plot
        return self._frame(sheet, (plot.camera or plot.default_camera()).orbit(azimuth, 0.0))

    def run(self, op: Dict[str, Any]) -> Outcome:
        sheet, ids = self.gesture
        if op["kind"] == "open":
            self.begin_pass()  # a fresh look at the data, not a memo hit
        start = perf_counter_ns()
        try:
            if op["kind"] == "open":
                payload, sheet, ids = self._open(op["edit"])
            elif op["kind"] == "step":
                payload = self._step(sheet, ids, op["edit"])
            elif op["kind"] == "orbit":
                payload = self._orbit(sheet, op["azimuth"])
            else:  # repeat: re-execute the same version (executor memo hit) and render
                payload = self._execute(sheet, op["edit"])
        except Exception as exc:  # noqa: BLE001 - any failure of the program is a failed op
            return Outcome(start, perf_counter_ns(), error=repr(exc))
        end = perf_counter_ns()
        if op["kind"] == "open" and op["phase"] == "pass":
            self.gesture = (sheet, ids)  # the warm-up's scene carries the gestures
        return Outcome(start, end, "ok", "render", "", payload)

    def close(self) -> None:
        pass


def _substitute(value: Any, container: Optional[str]) -> Any:
    if isinstance(value, dict):
        return {k: _substitute(v, container) for k, v in value.items()}
    return container if value == CONTAINER else value


class SetUp:
    """set-up time as a sum of segments, each at the machine speed it ran at.

    ``cut()`` ends the running segment with a probe and books the
    segment's wall time normalised by the slower of the probes at its two
    ends; the probe itself is not set-up.  ``pause()`` is a think time the
    script prescribes: slept, and booked as it is.
    """

    def __init__(self, probe: Probe, head_ms: float) -> None:
        #: *head_ms* ran before there was a probe: counted at the first reading
        self.probe = probe
        self.level = probe.probe()
        self.ms = stats.normalised(head_ms, self.level)
        self.mark_ns = perf_counter_ns()

    def cut(self) -> None:
        wall_ms = (perf_counter_ns() - self.mark_ns) / 1e6
        level = self.probe.probe()
        self.ms += stats.normalised(wall_ms, max(level, self.level))
        self.level = level
        self.mark_ns = perf_counter_ns()

    def pause(self, think_ms: float) -> None:
        time.sleep(think_ms / 1e3)
        self.ms += think_ms
        self.mark_ns = perf_counter_ns()


def run(script: Dict[str, Any], workdir: Path, trace: bool, first_line_ns: int) -> Dict[str, Any]:
    spec = script["spec"]
    width, height = spec["frame"]
    tracer = Tracer()
    recorder = None
    head_ms = (perf_counter_ns() - first_line_ns) / 1e6
    probe = Probe()  # the benchmark's own sidecar: starting it is not set-up
    setup = SetUp(probe, head_ms)
    # ---- set-up: imports, input container, server, warm-up pass ------------
    from repro import obs

    if trace:
        from benchmarks.e2e import layers

        layers.install(tracer)
        recorder = obs.enable(obs.Recorder())
        tracer.enabled = True
    container = None
    if "container" in spec:
        from repro.data import catalog

        setup.cut()
        container = str(workdir / "input.cdz")
        dataset = catalog.synthetic_reanalysis(**spec["container"])
        dataset.save(container, version=2, chunk_timesteps=1)
        del dataset
    driver = (WireDriver(spec) if spec["driver"] == "wire"
              else AnalyzeDriver(container, spec["frame"]))
    setup.cut()
    ops = [_substitute(op, container) for op in script["ops"]]

    shas: Dict[int, str] = {}
    failures: List[str] = []
    attempted = 0

    def play(op: Dict[str, Any]) -> Outcome:
        nonlocal attempted
        attempted += 1
        tracer.frame, tracer.frame_params = op["i"], op.get("params")
        outcome = driver.run(op)
        tracer.frame, tracer.frame_params = BACKGROUND, None
        if tracer.enabled:
            tracer.spans.append(Span("client", outcome.start_ns, outcome.end_ns,
                                     op["i"], "MainThread"))
        if outcome.error:
            failures.append(f"op {op['i']} ({op['kind']}): {outcome.error}")
            return outcome
        shas[op["i"]] = oracle.sha256(outcome.payload)
        repeats = shas.get(op["repeat_of"], "missing") if "repeat_of" in op else None
        for why in oracle.frame_failures(outcome.status, outcome.advertised,
                                         outcome.payload, width, height, repeats):
            failures.append(f"op {op['i']} ({op['kind']}): {why}")
        return outcome

    driver.begin_pass()
    for op in ops:
        if op["phase"] == "pass" and op["number"] == 0:
            play(op)
            setup.cut()
            if op["think_ms"]:
                setup.pause(op["think_ms"])
    gc.collect()
    gc.freeze()
    setup.cut()
    shas.clear()  # only timed frames are sampled for the reference checks

    # ---- open phase and timed passes ------------------------------------------
    first_timed_probe = len(probe.readings)
    rows: List[Dict[str, Any]] = []

    def timed(chosen: List[Dict[str, Any]]) -> None:
        before = probe.probe()
        for op in chosen:
            outcome = play(op)
            after = probe.probe()
            if op["think_ms"]:
                # the viewer looks at the frame; probing first leaves both
                # cores as idle at the next request as a real pause would
                time.sleep(op["think_ms"] / 1e3)
            rows.append({
                "i": op["i"], "kind": op["kind"], "stratum": op["stratum"],
                "number": op["number"], "phase": op["phase"], "ms": outcome.ms,
                "think_ms": op["think_ms"], "source": outcome.source,
                "probe_ms": max(before, after), "ok": not outcome.error,
            })
            before = after

    passes = script["passes"]
    open_ops = [op for op in ops if op["phase"] == "open"]
    pass_ops = {n: [op for op in ops if op["phase"] == "pass" and op["number"] == n]
                for n in range(1, passes + 1)}
    traced: Dict[str, Any] = {}
    if trace:
        # pass 1 runs with the wrappers idle: the untraced reference
        tracer.enabled = False
        obs.disable()
        driver.begin_pass()
        timed(pass_ops[1])
        obs.enable(recorder)
        tracer.enabled = True
        window_ns = perf_counter_ns()
        cpu_ns = time.process_time_ns()
        recorder.reset()
        first_traced = len(rows)
        timed(open_ops)
        traced["counters_open"] = layers.read_counters(recorder)
        recorder.reset()
        driver.begin_pass()
        timed(pass_ops[2])
        traced["counters_pass"] = layers.read_counters(recorder)
        traced["cpu_ms"] = (time.process_time_ns() - cpu_ns) / 1e6
        traced["window_ns"] = window_ns
        traced["rows"] = rows[first_traced:]
        tracer.enabled = False
        obs.disable()
    else:
        timed(open_ops)
        for number in range(1, passes + 1):
            driver.begin_pass()
            timed(pass_ops[number])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.close()

    # ---- reference checks -------------------------------------------------------
    reference_failures, checks = oracle.check_references(
        spec, ops, shas, driver.results, container)
    failures += reference_failures
    attempted += checks
    driver.close()

    # ---- the numbers ----------------------------------------------------------------
    cells: Dict[Any, List[stats.Sample]] = {}
    for row in rows:
        if row["ok"]:
            cells.setdefault((row["stratum"], row["kind"]), []).append(
                (row["ms"], row["probe_ms"], row["think_ms"], row["source"]))
    # how much slower than the undisturbed reference box the machine ran
    slowdown = (statistics.median(probe.readings[first_timed_probe:])
                / stats.NOMINAL_PROBE_MS)
    result: Dict[str, Any] = {
        "workload": script["workload"], "seed": script["seed"], "digest": script["digest"],
        "passes": passes, "quick": script["quick"], "trace": bool(trace),
        "attempted": attempted, "failed": len({f.split(":")[0] for f in failures}),
        "failures": failures[:20], "machine_slowdown": slowdown,
        "samples": {f"{s}/{k}": len(v) for (s, k), v in sorted(cells.items())},
        "rows": [[r["i"], r["number"], r["stratum"], r["kind"], round(r["ms"], 4),
                  round(r["probe_ms"], 4), r["source"]] for r in rows],
    }
    if trace:
        result["metrics"], result["shares"] = _traced_metrics(
            tracer, traced, rows, len({op["session"] for op in pass_ops[2]}), width * height)
    else:
        result["metrics"] = _end_to_end(cells, pass_ops[1], setup.ms / 1e3, peak_rss_mb)
        if spec.get("think_ms"):  # paced: gated as periods, the bare waits beside them
            bare = {cell: [(ms, probe, 0.0, source) for ms, probe, _, source in samples]
                    for cell, samples in cells.items()}
            result["bare_ms"] = {kind: stats.stratified_median(_by_kind(bare, kind))
                                 for kind in ("open",) + GESTURES}
    return result


def _by_kind(cells: Dict[Any, List[stats.Sample]], kind: str) -> Dict[str, List[stats.Sample]]:
    return {s: samples for (s, k), samples in cells.items() if k == kind}


def _end_to_end(cells, one_pass, setup_s: float, peak_rss_mb: float) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {"setup_s": {"value": setup_s, "unit": "s"}}
    for kind in ("open",) + GESTURES:
        metrics[f"{kind}_ms"] = {
            "value": stats.stratified_median(_by_kind(cells, kind)), "unit": "ms"}
    counts: Dict[Any, int] = {}
    for op in one_pass:
        if op["kind"] in GESTURES:
            cell = (op["stratum"], op["kind"])
            counts[cell] = counts.get(cell, 0) + 1
    latencies = {cell: stats.cell_latency(cells[cell]) for cell in counts}
    metrics["frames_per_s"] = {"value": stats.pass_rate(counts, latencies), "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return metrics


def _traced_metrics(tracer: Tracer, traced: Dict[str, Any], rows, sessions: int,
                    pixels: int):
    from benchmarks.e2e import layers

    frames = [dict(row) for row in traced["rows"] if row["ok"]]
    layers.attribute(frames, [s for s in tracer.spans if s.start_ns >= traced["window_ns"]])
    samples: Dict[str, List[float]] = {}
    step_ms = {1: {}, 2: {}}  # pass 1 ran untraced, pass 2 traced
    for row in rows:
        if not row["ok"]:
            continue
        samples.setdefault(row["kind"], []).append(row["ms"])
        if row["kind"] == "step":
            step_ms[row["number"]].setdefault(row["stratum"], []).append(
                (row["ms"], row["probe_ms"], 0.0, row["source"]))
    metrics = layers.layer_metrics(
        frames, tracer.spans, traced["window_ns"],
        traced["counters_open"], traced["counters_pass"], samples,
        stats.stratified_median(step_ms[1]), stats.stratified_median(step_ms[2]),
        traced["cpu_ms"], sessions, pixels,
    )
    return metrics, layers.kind_shares(frames)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--script", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    script = json.loads(Path(args.script).read_text())
    result = run(script, Path(args.script).parent, bool(args.trace), FIRST_LINE_NS)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
