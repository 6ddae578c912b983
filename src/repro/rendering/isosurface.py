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
along the cut edges.  The implementation is vectorized across *all*
cells for each of the six tetrahedra in turn — there is no per-cell
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
    Returns ``(n_tri, 3, 3)`` (possibly empty).
    """
    nx, ny, nz = values.shape
    cx, cy, cz = nx - 1, ny - 1, nz - 1

    if candidates is None:
        # corner values for every cell: shape (8, cx, cy, cz)
        corner_vals = np.empty((8, cx, cy, cz), dtype=np.float64)
        for c, (ox, oy, oz) in enumerate(_CORNER_OFFSETS):
            corner_vals[c] = values[ox : ox + cx, oy : oy + cy, oz : oz + cz]
        corner_vals = corner_vals.reshape(8, -1)  # (8, n_cells)

        base_idx = np.stack(
            np.meshgrid(np.arange(cx), np.arange(cy), np.arange(cz), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)  # (n_cells, 3) integer cell origins
    else:
        if candidates.shape != (cx, cy, cz):
            raise RenderingError(
                f"candidate mask shape {candidates.shape} != cell grid "
                f"{(cx, cy, cz)}"
            )
        # ascending flat indices of candidate cells — same C-order
        # flattening as the dense meshgrid above, so downstream
        # per-code grouping sees cells in an identical order
        cand = np.nonzero(candidates.reshape(-1))[0]
        if cand.size == 0:
            return np.zeros((0, 3, 3), dtype=np.float64)
        cyz = cy * cz
        ci = cand // cyz
        rem = cand - ci * cyz
        cj = rem // cz
        ck = rem - cj * cz
        corner_vals = np.empty((8, cand.size), dtype=np.float64)
        for c, (ox, oy, oz) in enumerate(_CORNER_OFFSETS):
            corner_vals[c] = values[ci + ox, cj + oy, ck + oz]
        base_idx = np.stack([ci, cj, ck], axis=1)

    triangles_xyz: List[np.ndarray] = []
    for tet in _CUBE_TETS:
        tet_vals = corner_vals[tet]  # (4, n_cells)
        inside = tet_vals > isovalue
        codes = (
            inside[0].astype(np.uint8)
            | (inside[1].astype(np.uint8) << 1)
            | (inside[2].astype(np.uint8) << 2)
            | (inside[3].astype(np.uint8) << 3)
        )
        active = np.nonzero((codes != 0) & (codes != 15))[0]
        if active.size == 0:
            continue
        active_codes = codes[active]
        present = [int(c) for c in np.unique(active_codes)]

        # interpolate the crossing point on every edge referenced by a
        # present case, for the whole active set at once — interpolation
        # is elementwise, so each cell's value is bit-identical whether
        # computed here or in a tiny per-case batch
        needed = sorted(
            {e for code in present for tri in _TET_TRIANGLES[code] for e in tri}
        )
        edge_points = np.empty((len(_TET_EDGES), active.size, 3), dtype=np.float64)
        for edge_id in needed:
            va_local, vb_local = _TET_EDGES[edge_id]
            ca, cb = tet[va_local], tet[vb_local]
            fa = corner_vals[ca][active]
            fb = corner_vals[cb][active]
            # cells whose case doesn't reference this edge may have both
            # corners at -inf (masked data); their rows are never
            # gathered, so silence the inf-inf=NaN they produce here
            with np.errstate(invalid="ignore", divide="ignore"):
                denom = fb - fa
                t = (isovalue - fa) / np.where(np.abs(denom) < 1e-300, 1.0, denom)
            t = np.clip(np.where(np.isfinite(t), t, 0.5), 0.0, 1.0)
            pa = base_idx[active] + _CORNER_OFFSETS[ca]
            pb = base_idx[active] + _CORNER_OFFSETS[cb]
            edge_points[edge_id] = pa + (pb - pa) * t[:, None]

        # assemble the tet's triangles with one gather, in the exact
        # order of the per-case loop: ascending case code, triangles in
        # table order, cells ascending
        pos_parts: List[np.ndarray] = []
        edge_parts: List[np.ndarray] = []
        for code in present:
            tris = _TET_TRIANGLES[code]
            if not tris:
                continue
            sel = np.nonzero(active_codes == code)[0]
            for tri_edges in tris:
                pos_parts.append(sel)
                edge_parts.append(
                    np.broadcast_to(
                        np.array(tri_edges, dtype=np.intp), (sel.size, 3)
                    )
                )
        if not pos_parts:
            continue
        pos_all = np.concatenate(pos_parts)
        edges_all = np.concatenate(edge_parts)
        triangles_xyz.append(edge_points[edges_all, pos_all[:, None]])  # (n, 3, 3)

    if not triangles_xyz:
        return np.zeros((0, 3, 3), dtype=np.float64)
    return np.concatenate(triangles_xyz)  # (n_tri, 3 corners, 3 index-coords)


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
