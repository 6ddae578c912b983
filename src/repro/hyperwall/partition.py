"""Workflow partitioning for distributed execution.

The server "sends edited versions of the workflow to each client node
...  Each client workflow consists of one of the cell modules (and all
its upstream modules) from the server workflow."  These are the two
edits:

* :func:`partition_by_cell` — one sub-workflow per DV3DCell module,
  each the upstream closure of that cell (ids preserved, so reports
  map back onto server modules);
* :func:`make_reduced_pipeline` — the server's own copy with every
  cell's draw size reduced by :func:`reduced_size`, the one rule for
  the size the control node draws a cell at.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.util.errors import HyperwallError
from repro.workflow.pipeline import Pipeline

CELL_MODULE = "dv3d:DV3DCell"


def find_cell_modules(pipeline: Pipeline) -> List[int]:
    """Ids of all DV3DCell modules (the per-display units)."""
    return pipeline.modules_of_type(CELL_MODULE)


def partition_by_cell(pipeline: Pipeline) -> Dict[int, Pipeline]:
    """Split a multi-cell workflow into per-cell sub-workflows.

    Returns ``{cell_module_id: subpipeline}``.  Module and connection
    ids are preserved from the parent workflow, so execution reports
    from the clients can be attributed to server-side modules.
    """
    cells = find_cell_modules(pipeline)
    if not cells:
        raise HyperwallError("workflow has no DV3DCell modules to distribute")
    return {cell_id: pipeline.subpipeline([cell_id]) for cell_id in cells}


def reduced_size(width: int, height: int, reduction: int, min_size: int = 16) -> Tuple[int, int]:
    """*width* x *height* divided by *reduction*, each side at least *min_size*."""
    return max(width // reduction, min_size), max(height // reduction, min_size)


def make_reduced_pipeline(
    pipeline: Pipeline,
    reduction: int,
    min_size: int = 16,
) -> Pipeline:
    """The server's reduced-resolution copy of the full workflow.

    Every DV3DCell's width/height parameters are reduced by
    :func:`reduced_size` (clamped at *min_size* pixels).
    """
    if reduction < 1:
        raise HyperwallError("reduction factor must be >= 1")
    reduced = pipeline.copy()
    for cell_id in find_cell_modules(reduced):
        spec = reduced.modules[cell_id]
        cls = reduced.registry.resolve(spec.name)
        defaults = {p.name: p.default for p in cls.parameters}
        size = (int(spec.parameters.get(k, defaults[k])) for k in ("width", "height"))
        width, height = reduced_size(*size, reduction, min_size)
        reduced.set_parameter(cell_id, "width", width)
        reduced.set_parameter(cell_id, "height", height)
    return reduced


def set_cell_resolution(pipeline: Pipeline, cell_id: int, width: int, height: int) -> None:
    """Pin one cell's draw size (clients draw at tile size)."""
    if cell_id not in find_cell_modules(pipeline):
        raise HyperwallError(f"module {cell_id} is not a DV3DCell")
    pipeline.set_parameter(cell_id, "width", int(width))
    pipeline.set_parameter(cell_id, "height", int(height))
