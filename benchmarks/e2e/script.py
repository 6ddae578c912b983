"""Workloads and their op lists: a pure function of (workload, seed, passes).

Nothing here imports the program under test.  A run is a fixed list of
operations, generated before ``repro`` is imported; the program sees
only the generated requests.  Another seed rotates start timesteps and
azimuths and reorders strata, variables and jump targets, but leaves
the *multiset* of work per stratum unchanged (steps cover whole loops
of the time axis and orbits whole revolutions, so a rotated start
visits the same frames) — latency is a property of the program, not of
the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List

ORBIT_DEG = 15.0
#: stands for the path of the input container, which the child decides
CONTAINER = "@container"
#: the run length BENCHMARK.json states; ``--seconds`` scales the passes
RUN_SECONDS = 20
GESTURES = ("step", "orbit", "repeat")

REDUCTIONS = {
    "axis_average": {"axis": "time"},
    "variance": {"axis": "time"},
    "anomalies": {},
    "running_mean": {"window": 5},
}
VARIABLES = ("ta", "zg", "hus", "ua", "va")

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "explore_surface": {
        "why": "eager Slicer+Isosurface over the wire, no cache: frames are ~all rasterizer, serving does nothing",
        "driver": "wire",
        "grid": {"nlat": 10, "nlon": 16, "nlev": 5, "ntime": 12},
        "frame": [64, 48],
        "basemap": True,
        "strata": {
            "slicer": ("Slicer", {"variable": "ta"}),
            "isosurface": ("Isosurface", {"variable": "ta", "color_variable": "zg"}),
        },
        "per_pass": {"step": 6, "orbit": 8, "repeat": 5},
        "passes": 6,
        "opens": 24,
    },
    "stream_animate": {
        "why": "Volume animation read chunk by chunk from a .cdz v2 container: raycast plus the streaming data plane",
        "driver": "wire",
        "container": {"nlat": 48, "nlon": 72, "nlev": 12, "ntime": 48},
        "frame": [64, 48],
        "basemap": False,
        "strata": {"volume": ("Volume", {"variable": "ta"})},
        "blocks": 4,
        "per_block": {"step": 12, "orbit": 6, "repeat": 6, "jump": 4},
        "passes": 6,
        "opens": 20,
    },
    "serve_sessions": {
        "why": "sessions with think time on slots=2, speculation and a serving cache: most frames are serving-tier hits",
        "driver": "wire",
        "serving": {"slots": 2, "speculation_budget": 1},
        "cache_entries": 4096,
        "grid": {"nlat": 16, "nlon": 24, "nlev": 6, "ntime": 24},
        "frame": [160, 120],
        "basemap": False,
        "strata": {"volume": ("Volume", {"variable": "ta"})},
        "per_pass": {"step": 24, "orbit": 18, "repeat": 4, "replay": 4},
        "think_ms": 60.0,
        "passes": 6,
    },
    "analyze_reduce": {
        "why": "no wire, no serving: streamed cdat reductions through the vistrail executor, a bulk scan of the container",
        "driver": "analyze",
        "container": {"nlat": 32, "nlon": 48, "nlev": 8, "ntime": 24},
        "frame": [64, 48],
        "basemap": False,
        "strata": {kind: ("Volume", {}) for kind in REDUCTIONS},
        "passes": 6,
        "opens": 40,
    },
}


def passes_for(workload: str, seconds: float, quick: bool = False) -> int:
    """Timed passes: the workload's count scaled by ``seconds``, never below 3."""
    if quick:
        return 1
    return max(3, round(WORKLOADS[workload]["passes"] * float(seconds) / RUN_SECONDS))


def _quarter(count: int, quick: bool, floor: int = 1) -> int:
    return max(floor, math.ceil(count / 4)) if quick else count


def _interleave(counts: Dict[str, int]) -> List[str]:
    """Merge the kinds evenly, so a noisy second taxes all kinds equally."""
    total = sum(counts.values())
    emitted = {kind: 0 for kind in counts}
    order: List[str] = []
    for i in range(total):
        kind = max(counts, key=lambda k: counts[k] * (i + 1) / total - emitted[k])
        emitted[kind] += 1
        order.append(kind)
    return order


class _Scene:
    """Client-side state of one scene: what the next gesture request says."""

    def __init__(self, spec: Dict[str, Any], stratum: str, label: str,
                 timestep: int, azimuth_index: int, variables: Any = None) -> None:
        template, default_variables = spec["strata"][stratum]
        self.ntime = (spec.get("grid") or spec["container"])["ntime"]
        width, height = spec["frame"]
        self.stratum = stratum
        self.timestep = timestep % self.ntime
        self.azimuth_index = azimuth_index % 24
        self.base: Dict[str, Any] = {
            "template": template,
            "variables": dict(variables or default_variables),
            "width": width,
            "height": height,
            "cell_params": {
                "width": width, "height": height, "dataset_label": label,
                "show_basemap": bool(spec["basemap"]),
            },
        }
        if "grid" in spec:
            self.base["size"] = dict(spec["grid"])
        else:
            self.base["source"] = CONTAINER

    def params(self) -> Dict[str, Any]:
        return dict(self.base, timestep=self.timestep,
                    azimuth=ORBIT_DEG * self.azimuth_index)

    def gesture(self, kind: str, jump_to: int = 0) -> Dict[str, Any]:
        if kind == "step":
            self.timestep = (self.timestep + 1) % self.ntime
        elif kind == "orbit":
            self.azimuth_index = (self.azimuth_index + 1) % 24
        elif kind == "jump":
            self.timestep = jump_to % self.ntime
        return self.params()


def _op(ops: List[Dict[str, Any]], **fields: Any) -> None:
    fields.setdefault("session", "s0")
    fields.setdefault("tenant", "alice")
    fields.setdefault("think_ms", 0.0)
    ops.append(dict(fields, i=len(ops)))


def _explore_surface(spec, rng, passes, quick) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    strata = list(spec["strata"])
    ntime = spec["grid"]["ntime"]
    scenes = {
        s: _Scene(spec, s, f"gesture-{s}", rng.randrange(ntime), rng.randrange(24))
        for s in strata
    }
    order = _interleave({k: _quarter(v, quick, 2) for k, v in spec["per_pass"].items()})
    while order[0] == "repeat":  # a repeat needs a request before it
        order.append(order.pop(0))

    def one_pass(number: int) -> None:
        turn = strata[:]
        rng.shuffle(turn)
        slot = 0
        while slot < len(order):
            kind = order[slot]
            slot += 1
            repeats = 0
            while slot < len(order) and order[slot] == "repeat":
                repeats += 1
                slot += 1
            for s in turn:  # strata alternate; a repeat directly follows its original
                common = dict(phase="pass", number=number, stratum=s)
                _op(ops, kind=kind, params=scenes[s].gesture(kind), **common)
                original = len(ops) - 1
                for _ in range(repeats):
                    _op(ops, kind="repeat", params=scenes[s].params(),
                        repeat_of=original, **common)

    for s in strata:  # the gesture scenes are born in the warm-up
        _op(ops, phase="pass", number=0, kind="open", stratum=s, params=scenes[s].params())
    one_pass(0)
    for n in range(_quarter(spec["opens"], quick, 2)):
        s = strata[n % len(strata)]
        fresh = _Scene(spec, s, f"open-{n}", n // len(strata), 3 * n)  # same frames on every seed
        _op(ops, phase="open", number=0, kind="open", stratum=s, params=fresh.params())
    for number in range(1, passes + 1):
        one_pass(number)
    return ops


def _stream_animate(spec, rng, passes, quick) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    ntime = spec["container"]["ntime"]
    scene = _Scene(spec, "volume", "gesture-volume", rng.randrange(ntime), rng.randrange(24))
    counts = {k: _quarter(v, quick) for k, v in spec["per_block"].items()}
    blocks = 1 if quick else spec["blocks"]

    def one_pass(number: int) -> None:
        # an animation player: a run of steps, an orbit, a pause, then scrubbing
        for _ in range(blocks):
            for kind in ("step", "orbit", "repeat", "jump"):
                for _ in range(counts[kind]):
                    extra: Dict[str, Any] = {}
                    target = 0
                    if kind == "jump":  # a scrub: anywhere but the neighbouring frames
                        target = scene.timestep + rng.randrange(3, ntime - 2)
                    elif kind == "repeat":
                        extra["repeat_of"] = len(ops) - 1
                    _op(ops, phase="pass", number=number, kind=kind, stratum="volume",
                        params=scene.gesture(kind, target), **extra)

    _op(ops, phase="pass", number=0, kind="open", stratum="volume", params=scene.params())
    one_pass(0)
    variables = list(VARIABLES)
    rng.shuffle(variables)
    for n in range(_quarter(spec["opens"], quick, 2)):
        fresh = _Scene(spec, "volume", f"open-{n}", 3 * n, 3 * n,
                       variables={"variable": variables[n % len(variables)]})
        _op(ops, phase="open", number=0, kind="open", stratum="volume", params=fresh.params())
    for number in range(1, passes + 1):
        one_pass(number)
    return ops


def _serve_sessions(spec, rng, passes, quick) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    counts = {k: _quarter(v, quick, 4) for k, v in spec["per_pass"].items()}
    think = spec["think_ms"]
    ntime = spec["grid"]["ntime"]
    for number in range(0, passes + 1):  # a pass is a session; session 0 warms up
        scene = _Scene(spec, "volume", f"scene-{number}", rng.randrange(ntime), rng.randrange(24))
        common = dict(phase="pass", number=number, stratum="volume", session=f"session-{number}")
        _op(ops, kind="open", think_ms=think, params=scene.params(), **common)
        steps = []
        for _ in range(counts["step"]):  # an animation player with think time
            _op(ops, kind="step", think_ms=think, params=scene.gesture("step"), **common)
            steps.append(len(ops) - 1)
        for _ in range(counts["orbit"]):
            _op(ops, kind="orbit", think_ms=think, params=scene.gesture("orbit"), **common)
        original = len(ops) - 1
        for _ in range(counts["repeat"]):
            _op(ops, kind="repeat", think_ms=think, params=scene.params(),
                repeat_of=original, **common)
        other = _Scene(spec, "volume", f"scene-{number}-b", scene.timestep, scene.azimuth_index)
        _op(ops, kind="open", think_ms=think, params=other.params(),  # a look at another scene
            **common)
        first = rng.randrange(len(steps) - counts["replay"] + 1)
        for index in steps[first:first + counts["replay"]]:  # cross-tenant cache hits
            _op(ops, kind="repeat", think_ms=think, params=ops[index]["params"],
                repeat_of=index, tenant="bob", **dict(common, session=f"bob-{number}"))
    return ops


def _analyze_reduce(spec, rng, passes, quick) -> List[Dict[str, Any]]:
    ops: List[Dict[str, Any]] = []
    kinds = list(REDUCTIONS)
    combos = [(variable, kind) for variable in VARIABLES for kind in kinds]
    if quick:
        combos = combos[:len(kinds) * 2]
    azimuth_index = rng.randrange(24)

    def edit(variable: str, kind: str) -> Dict[str, Any]:
        return {"variable": variable, "operation": kind, "args": REDUCTIONS[kind]}

    def one_pass(number: int) -> None:
        nonlocal azimuth_index
        turn = combos[:]
        rng.shuffle(turn)
        for variable, kind in turn:
            # every op names the workflow state it renders, for the oracle
            common = dict(phase="pass", number=number, stratum=kind, session="", tenant="",
                          edit=edit(variable, kind))
            _op(ops, kind="step", **common)
            original = len(ops) - 1
            for _ in range(2):  # the cheap gestures twice: they are the noisier medians
                azimuth_index = (azimuth_index + 1) % 24
                _op(ops, kind="orbit", azimuth=ORBIT_DEG * azimuth_index, **common)
                _op(ops, kind="repeat", repeat_of=original, **common)

    _op(ops, phase="pass", number=0, kind="open", stratum=kinds[0], session="", tenant="",
        edit=edit(VARIABLES[0], kinds[0]))
    one_pass(0)
    variables = list(VARIABLES)
    rng.shuffle(variables)
    for n in range(len(kinds) if quick else spec["opens"]):
        kind = kinds[n % len(kinds)]
        _op(ops, phase="open", number=0, kind="open", stratum=kind, session="", tenant="",
            edit=edit(variables[n % len(variables)], kind))
    for number in range(1, passes + 1):
        one_pass(number)
    return ops


_GENERATORS = {
    "explore_surface": _explore_surface,
    "stream_animate": _stream_animate,
    "serve_sessions": _serve_sessions,
    "analyze_reduce": _analyze_reduce,
}


def build_script(workload: str, seed: Any, passes: int, quick: bool = False) -> Dict[str, Any]:
    """The run's op list and its digest; pass 0 is the untimed warm-up."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"e2e/{workload}/{seed}")
    ops = _GENERATORS[workload](spec, rng, passes, quick)
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return {
        "workload": workload,
        "seed": str(seed),
        "passes": passes,
        "quick": bool(quick),
        "digest": hashlib.sha256(blob).hexdigest(),
        "spec": spec,  # the child configures the program from this, not by name
        "ops": ops,
    }


def stratum_counts(script: Dict[str, Any]) -> Dict[str, int]:
    """Timed ops per ``stratum/kind`` — what a seed must not change."""
    counts: Dict[str, int] = {}
    for op in script["ops"]:
        if op["phase"] == "open" or op["number"] > 0:
            key = f"{op['stratum']}/{op['kind']}"
            counts[key] = counts.get(key, 0) + 1
    return counts
