"""Correctness checks: every frame on arrival, a sample against a reference.

A failed check is a failed operation.  ``frame_failures`` needs nothing
but the bytes, so it is tested without the program; ``Reference``
re-renders sampled frames by the shortest path the program offers — no
wire, no serving cache, no speculation, and for container workloads no
streaming either — and the bytes must be identical.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: fewer distinct colours than this is a blank or a low-resolution fallback frame
MIN_COLOURS = 8
REFERENCE_SAMPLES = 12


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def parse_ppm(payload: bytes) -> Optional[tuple]:
    """(width, height, pixel bytes) of a binary PPM, or None when malformed."""
    try:
        magic, size, depth, pixels = payload.split(b"\n", 3)
        width, height = (int(part) for part in size.split())
    except ValueError:
        return None
    if magic != b"P6" or depth != b"255" or len(pixels) != width * height * 3:
        return None
    return width, height, pixels


def frame_failures(
    status: str,
    advertised_digest: str,
    payload: bytes,
    width: int,
    height: int,
    repeats: Optional[str] = None,
) -> List[str]:
    """Why this frame is not a correct full-fidelity frame ([] when it is).

    *repeats* is the sha256 of the frame this one must equal byte for
    byte (a ``repeat`` op), or None.
    """
    failures: List[str] = []
    if status != "ok":  # "degraded", "shed" and "error" all miss the frame asked for
        failures.append(f"status {status!r}")
    digest = sha256(payload)
    if advertised_digest and advertised_digest != digest:
        failures.append("payload does not match its advertised digest")
    parsed = parse_ppm(payload)
    if parsed is None:
        failures.append("payload is not a binary PPM")
    else:
        got_width, got_height, pixels = parsed
        if (got_width, got_height) != (width, height):
            failures.append(f"frame is {got_width}x{got_height}, asked {width}x{height}")
        colours = {pixels[i:i + 3] for i in range(0, len(pixels), 3)}
        if len(colours) < MIN_COLOURS:
            failures.append(f"only {len(colours)} distinct colours")
    if repeats is not None and repeats != digest:
        failures.append("repeat differs from the frame it repeats")
    return failures


def sample_indices(count: int, samples: int = REFERENCE_SAMPLES) -> List[int]:
    """*samples* positions spread evenly over ``range(count)``."""
    if count <= samples:
        return list(range(count))
    return sorted({round(k * (count - 1) / (samples - 1)) for k in range(samples)})


class Reference:
    """Re-renders frames without the layers under test in front of them."""

    def __init__(self, container: Optional[str], frame: Sequence[int]) -> None:
        self.container = container
        self.width, self.height = frame
        self._backend = None
        self._eager = None

    def direct(self, params: Dict[str, Any]) -> bytes:
        """A fresh in-process AppBackend: no wire, no serving cache, no speculation."""
        from repro.serving import AppBackend
        from repro.serving.request import Request

        if self._backend is None:
            self._backend = AppBackend(project="reference")
        return self._backend(Request(params=params), False)

    def eager_dataset(self):
        from repro.cdms.dataset import open_dataset

        if self._eager is None:
            self._eager = open_dataset(self.container, streaming="off")
        return self._eager

    def _volume_frame(self, variable: Any, label: str, timestep: Optional[int],
                      azimuth: Optional[float]) -> bytes:
        from repro.dv3d.cell import DV3DCell
        from repro.dv3d.volume import VolumePlot
        from repro.rendering.ppm import ppm_bytes

        cell = DV3DCell(VolumePlot(variable), dataset_label=label, show_basemap=False)
        if timestep is not None:
            cell.plot.set_time_index(timestep)
        camera = None
        if azimuth is not None:
            camera = (cell.plot.camera or cell.plot.default_camera()).orbit(azimuth, 0.0)
        return ppm_bytes(cell.render(self.width, self.height, camera=camera).to_uint8())

    def eager_scene(self, params: Dict[str, Any]) -> bytes:
        """The same Volume scene over ``open_dataset(streaming="off")``."""
        variable = self.eager_dataset()(params["variables"]["variable"])
        return self._volume_frame(
            variable, params["cell_params"]["dataset_label"],
            int(params["timestep"]), float(params["azimuth"]),
        )

    def eager_reduction(self, edit: Dict[str, Any]):
        from repro.cdat.registry import default_registry

        variable = self.eager_dataset()(edit["variable"])
        return default_registry().apply(edit["operation"], variable, **edit["args"])

    def eager_analysis(self, op: Dict[str, Any]) -> bytes:
        """The frame of an analyze_reduce op from the eager reduction."""
        return self._volume_frame(
            self.eager_reduction(op["edit"]), "", None, op.get("azimuth"),
        )


def variable_digest(variable: Any) -> str:
    from repro.cache.keys import cache_key

    return cache_key("e2e.oracle", variable)


def check_references(
    workload: Dict[str, Any],
    ops: Sequence[Dict[str, Any]],
    shas: Dict[int, str],
    results: Dict[str, Any],
    container: Optional[str],
) -> Tuple[List[str], int]:
    """Failures among the sampled reference re-renders, and how many were made.

    *shas* maps op index to the sha256 of the frame the run produced;
    *results* maps a reduction kind to a variable the run computed.
    """
    failures: List[str] = []
    reference = Reference(container, workload["frame"])
    timed = [op for op in ops if op["i"] in shas]
    sampled = [timed[k] for k in sample_indices(len(timed))]
    for op in sampled:
        if workload["driver"] == "analyze":
            got = sha256(reference.eager_analysis(op))
            if got != shas[op["i"]]:
                failures.append(f"op {op['i']}: frame differs from the eager reduction's")
            continue
        if sha256(reference.direct(op["params"])) != shas[op["i"]]:
            failures.append(f"op {op['i']}: frame differs from a direct AppBackend render")
        if container is not None and sha256(reference.eager_scene(op["params"])) != shas[op["i"]]:
            failures.append(f"op {op['i']}: frame differs from the eager-dataset scene")
    for kind, (edit, variable) in sorted(results.items()):
        if variable_digest(variable) != variable_digest(reference.eager_reduction(edit)):
            failures.append(f"{kind}: streamed reduction differs from the eager one")
    return failures, len(sampled) + len(results)
