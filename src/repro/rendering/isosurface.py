"""Isosurface extraction via marching tetrahedra.

VTK's isosurface filter (``vtkContourFilter``) implements marching
cubes; we implement the marching-*tetrahedra* variant, which produces
an equivalent watertight surface from the same structured data with a
16-case table small enough to derive (and property-test) from first
principles rather than transcribe.

Every cube cell is split into six tetrahedra that all share the cube's
main diagonal (corner 0 → corner 6), which makes the decomposition
consistent across neighbouring cells and therefore crack-free.  Within
each tetrahedron the surface crossing is found by linear interpolation
along the cut edges.  One pass classifies all six tetrahedra of every
candidate cell at once and expands their triangles from tables, so an
extraction costs a fixed number of numpy calls whatever the cells and
cases present — there is no per-cell, per-tetrahedron or per-case
Python loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.rendering.geometry import PolyData
from repro.rendering.image_data import ImageData
from repro.util.errors import RenderingError

#: cube corner offsets, bit 0 → +x, bit 1 → +y, bit 2 → +z
_CORNER_OFFSETS = np.array(
    [
        [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
        [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1],
    ],
    dtype=np.intp,
)

#: six tetrahedra per cube, all containing the 0–7 body diagonal
#: (corner indices into _CORNER_OFFSETS)
_CUBE_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 3, 2, 7],
        [0, 2, 6, 7],
        [0, 6, 4, 7],
        [0, 4, 5, 7],
        [0, 5, 1, 7],
    ],
    dtype=np.intp,
)

#: tetrahedron edges as (vertex, vertex) pairs; edge index = row
_TET_EDGES = np.array(
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], dtype=np.intp
)

#: case (4-bit inside mask) → list of triangles, each a triple of edge ids.
#: Derived by hand; see module docstring.  Winding is not guaranteed
#: consistent (the renderer shades double-sided).
_TET_TRIANGLES: Dict[int, List[Tuple[int, int, int]]] = {
    0: [],
    1: [(0, 1, 2)],
    2: [(0, 3, 4)],
    3: [(1, 2, 4), (1, 4, 3)],
    4: [(1, 3, 5)],
    5: [(0, 2, 5), (0, 5, 3)],
    6: [(0, 4, 5), (0, 5, 1)],
    7: [(2, 4, 5)],
    8: [(2, 4, 5)],
    9: [(0, 1, 5), (0, 5, 4)],
    10: [(0, 3, 5), (0, 5, 2)],
    11: [(1, 3, 5)],
    12: [(1, 3, 4), (1, 4, 2)],
    13: [(0, 3, 4)],
    14: [(0, 1, 2)],
    15: [],
}


#: the corner offsets as int8, for the exact integer part of a crossing
_CORNER_OFFSETS8 = _CORNER_OFFSETS.astype(np.int8)

#: (6 tets, 256 cube inside-masks) → the tetrahedron's 4-bit case code
_TET_CODES = np.array(
    [
        [sum(((mask >> int(corner)) & 1) << bit for bit, corner in enumerate(tet))
         for mask in range(256)]
        for tet in _CUBE_TETS
    ],
    dtype=np.uint8,
)

#: case code → number of triangles (0, 1 or 2)
_TRI_COUNT = np.array([len(_TET_TRIANGLES[c]) for c in range(16)], dtype=np.int8)

#: (16 cases, 2 triangles, 3 corners) → tetrahedron edge; unused rows are 0
_TRI_EDGES = np.array(
    [(_TET_TRIANGLES[c] + [(0, 0, 0)] * 2)[:2] for c in range(16)], dtype=np.int8
)

#: row ``(tet * 16 + code) * 2 + k`` → the two cube corners of the edge
#: under each corner of triangle *k* of case *code* in *tet*: ``(192, 3, 2)``
_TRI_CORNERS = (
    _CUBE_TETS[np.arange(6)[:, None, None, None, None], _TET_EDGES[_TRI_EDGES][None]]
    .reshape(192, 3, 2)
    .astype(np.int8)
)


def marching_tetrahedra(
    volume: ImageData,
    isovalue: float,
    array_name: Optional[str] = None,
    deduplicate: bool = True,
    accelerate: bool = True,
) -> PolyData:
    """Extract the *isovalue* surface of a scalar array as triangles.

    Parameters
    ----------
    volume:
        The structured grid; NaNs are treated as "outside" at any
        isovalue, so masked regions simply produce no surface.
    isovalue:
        The level-set value.
    array_name:
        Scalar array to contour (defaults to the active scalars).
    deduplicate:
        Merge coincident vertices so shared edges produce shared points
        (needed for smooth point normals).  Costs one vertex sort.
    accelerate:
        Preselect candidate cells with the volume's per-cell min/max
        bounds: only cells whose bounds straddle the isovalue are
        classified.  A skipped cell provably yields no triangles for
        any of its six tetrahedra, so the output is array-identical
        with acceleration on or off (the flag exists for differential
        tests and ablation benchmarks).

    Returns
    -------
    PolyData with ``scalars`` set to the isovalue at every point.
    """
    name = array_name or volume.active_scalars_name
    scalars = volume.get_array(name)
    if scalars.ndim != 3:
        raise RenderingError("marching_tetrahedra requires a scalar array")
    nx, ny, nz = scalars.shape
    if min(nx, ny, nz) < 2:
        return PolyData(np.zeros((0, 3)))

    n_cells = (nx - 1) * (ny - 1) * (nz - 1)
    with obs.span(
        "isosurface.marching_tetrahedra",
        cells=int(n_cells),
        isovalue=float(isovalue),
    ) as _span:
        candidates = (
            candidate_cells(volume, float(isovalue), name) if accelerate else None
        )
        if candidates is not None and obs.enabled():
            obs.counter(
                "isosurface.cells.skipped",
                int(n_cells - np.count_nonzero(candidates)),
            )
        # NaNs become -inf: "outside" at any isovalue
        values = np.where(np.isfinite(scalars), scalars, -np.inf).astype(np.float64)
        tri_pts = _triangle_points(values, float(isovalue), candidates)
        surface = _finalize_surface(
            volume, tri_pts, float(isovalue), deduplicate, n_cells, _span,
        )
    return surface


def candidate_cells(
    volume: ImageData, isovalue: float, array_name: str
) -> np.ndarray:
    """Conservative boolean cell mask of isovalue-straddling candidates.

    Uses the volume's cached per-cell bounds: a ``False`` cell has no
    corner above the isovalue or none at-or-below it, so every one of
    its tetrahedra classifies to the empty case.  Exact — the bounds
    are over corner values and treat non-finite voxels as
    unbounded-below, matching the NaN → ``-inf`` mapping of
    :func:`marching_tetrahedra`.
    """
    return volume.min_max_pyramid(array_name).straddling(isovalue)


def _triangle_points(
    values: np.ndarray,
    isovalue: float,
    candidates: Optional[np.ndarray],
) -> np.ndarray:
    """Triangle corner points (index coords) for every cell of *values*.

    *candidates* is a full-grid boolean cell mask from
    :func:`candidate_cells`, or None to classify every cell; cells
    outside it are never classified.  Because excluded cells produce no
    triangles, and candidates are visited in the same ascending flat
    order as the dense pass, the output is array-identical either way.
    Returns ``(n_tri, 3, 3)`` (possibly empty), ordered by tetrahedron,
    then case code, then the case's triangles in table order, then
    ascending cell.
    """
    nx, ny, nz = values.shape
    cx, cy, cz = nx - 1, ny - 1, nz - 1

    if candidates is None:
        cells = None  # every cell, in flat order
        corner_vals = np.empty((8, cx, cy, cz), dtype=np.float64)
        for c, (ox, oy, oz) in enumerate(_CORNER_OFFSETS):
            corner_vals[c] = values[ox : ox + cx, oy : oy + cy, oz : oz + cz]
        corner_vals = corner_vals.reshape(8, -1)  # (8, n_cells)
    else:
        if candidates.shape != (cx, cy, cz):
            raise RenderingError(
                f"candidate mask shape {candidates.shape} != cell grid "
                f"{(cx, cy, cz)}"
            )
        cells = np.flatnonzero(candidates)  # ascending, as the dense pass
        origin = np.ravel_multi_index(np.unravel_index(cells, (cx, cy, cz)), (nx, ny, nz))
        corner_flat = _CORNER_OFFSETS @ np.array([ny * nz, nz, 1])
        corner_vals = np.take(values, origin + corner_flat[:, None])  # (8, m)
    m = corner_vals.shape[1]

    # the case of every tetrahedron of every cell: (6, m) codes, read
    # off each cell's 8-bit inside mask
    mask = np.packbits(corner_vals > isovalue, axis=0, bitorder="little")[0]
    codes = _TET_CODES[:, mask]
    count = _TRI_COUNT[codes]
    # one row per triangle: every (tet, cell) with one, then those with a
    # second; a stable sort on (tet, code, k) keeps cells ascending
    first = np.flatnonzero(count)
    rows = np.concatenate([first, np.flatnonzero(count == 2)])
    tet, cell = np.divmod(rows, m)
    key = (tet * 32 + codes.reshape(-1).take(rows) * 2).astype(np.uint8)
    key[first.size:] += 1
    order = np.argsort(key, kind="stable")
    key, cell = key.take(order), cell.take(order)

    # each corner's edge as its two cube corners, then the per-edge
    # interpolation expression for expression, elementwise: a -inf first
    # corner (masked data) makes inf/inf = NaN, which falls back to 0.5
    ends = _TRI_CORNERS.take(key, axis=0)  # (n_tri, 3, 2)
    index = ends.astype(np.intp)
    index *= m
    index += cell[:, None, None]
    f = np.take(corner_vals, index)
    del index
    fa, fb = f[..., 0], f[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = fb - fa
        t = (isovalue - fa) / np.where(np.abs(denom) < 1e-300, 1.0, denom)
    del f, fa, fb, denom
    t = np.clip(np.where(np.isfinite(t), t, 0.5), 0.0, 1.0)
    offsets = _CORNER_OFFSETS8.take(ends, axis=0)  # (n_tri, 3, 2, 3)
    oa, ob = offsets[:, :, 0], offsets[:, :, 1]
    origin = np.stack(
        np.unravel_index(cell if cells is None else cells.take(cell), (cx, cy, cz)),
        axis=-1,
    ).astype(np.int32)
    # pa + (pb - pa) * t, bit for bit: pb - pa is ob - oa, pa is origin + oa,
    # and both are exact in any integer type
    points = (ob - oa) * t[..., None]
    points += origin[:, None, :] + oa
    return points


def _unique_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)``, but faster.

    ``np.unique(axis=0)`` sorts a structured view with generic
    comparisons; three type-specialized integer key sorts via
    ``np.lexsort`` produce the same row-lexicographic unique array and
    inverse mapping in a fraction of the time.  Exact — both orderings
    compare rows column-by-column numerically.
    """
    if rows.shape[0] == 0:
        return rows.copy(), np.zeros(0, dtype=np.intp)
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    ranked = rows[order]
    boundary = np.empty(ranked.shape[0], dtype=bool)
    boundary[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=boundary[1:])
    group_of_rank = np.cumsum(boundary) - 1
    inverse = np.empty(order.shape[0], dtype=np.intp)
    inverse[order] = group_of_rank
    return ranked[boundary], inverse


def _finalize_surface(
    volume: ImageData,
    tri_pts: np.ndarray,
    isovalue: float,
    deduplicate: bool,
    n_cells: int,
    _span,
) -> PolyData:
    """Build the output PolyData from raw triangle corner points.

    With *deduplicate* the result is canonical: vertices come out of
    ``np.unique`` sorted and triangle rows are lexsorted, independent
    of the order triangles were generated in.
    """
    if tri_pts.shape[0] == 0:
        return PolyData(np.zeros((0, 3)))
    flat = tri_pts.reshape(-1, 3)

    if deduplicate:
        # quantize to merge float-identical shared-edge vertices
        quant = np.round(flat * 2.0**20).astype(np.int64)
        unique, inverse = _unique_rows(quant)
        points_index = unique.astype(np.float64) / 2.0**20
        triangles = inverse.reshape(-1, 3)
        # drop degenerate triangles (two corners merged)
        good = (
            (triangles[:, 0] != triangles[:, 1])
            & (triangles[:, 1] != triangles[:, 2])
            & (triangles[:, 0] != triangles[:, 2])
        )
        triangles = triangles[good]
        # canonical triangle order, independent of generation order
        order = np.lexsort((triangles[:, 2], triangles[:, 1], triangles[:, 0]))
        triangles = triangles[order]
    else:
        points_index = flat
        triangles = np.arange(flat.shape[0], dtype=np.intp).reshape(-1, 3)

    points_world = volume.index_to_world(points_index)
    scalars_out = np.full(points_world.shape[0], float(isovalue))
    if obs.enabled():
        obs.counter("isosurface.triangles", int(triangles.shape[0]))
        obs.counter("isosurface.cells", int(n_cells))
        if _span is not None:
            _span.set(
                triangles=int(triangles.shape[0]), points=int(points_world.shape[0])
            )
    return PolyData(points_world, triangles, scalars=scalars_out)


def color_surface_by_field(
    surface: PolyData,
    volume: ImageData,
    array_name: str,
    colormap,
    value_range: Optional[Tuple[float, float]] = None,
) -> PolyData:
    """Color an isosurface by sampling a *second* field at its points.

    This is the paper's Isosurface plot: "an isosurface derived from
    one variable's data volume and colored by the spatially
    correspondent values from a second variable's data volume."
    """
    if surface.n_points == 0:
        return surface
    sampled = volume.sample(surface.points, name=array_name)
    if value_range is None:
        finite = sampled[np.isfinite(sampled)]
        if finite.size == 0:
            raise RenderingError("second field has no finite values on the surface")
        value_range = (float(finite.min()), float(finite.max()))
    colors = colormap.map_scalars(sampled, *value_range)
    out = surface.with_colors(colors.astype(np.float32))
    return out.with_scalars(np.nan_to_num(sampled, nan=0.0))
