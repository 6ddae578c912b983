"""Marching tetrahedra as it was before its six tetrahedra were
classified in one pass — the reference the one-pass kernel in
:mod:`repro.rendering.isosurface` is compared against.

``_triangle_points`` and its four tables are moved here verbatim: one
pass per tetrahedron, a gather per present case.  Its raw triangle
corner points, in their order, are the contract (the
``deduplicate=False`` surface is those points), so the oracle shares no
table with what it checks.  Slow on purpose; never imported from
``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

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


def triangle_points(
    volume: ImageData, isovalue: float, accelerate: bool = True
) -> np.ndarray:
    """The raw ``(n_tri, 3, 3)`` index-space corners
    :func:`~repro.rendering.isosurface.marching_tetrahedra` starts from:
    NaN voxels mapped to ``-inf``, cells preselected by their min/max
    bounds when *accelerate*."""
    scalars = volume.get_array(volume.active_scalars_name)
    candidates = (
        volume.min_max_pyramid(volume.active_scalars_name).straddling(float(isovalue))
        if accelerate else None
    )
    values = np.where(np.isfinite(scalars), scalars, -np.inf).astype(np.float64)
    return _triangle_points(values, float(isovalue), candidates)


def raw_surface(volume: ImageData, isovalue: float, accelerate: bool = True) -> PolyData:
    """``marching_tetrahedra(volume, isovalue, deduplicate=False)`` as
    the reference computes it: every corner its own point, in order."""
    flat = triangle_points(volume, isovalue, accelerate).reshape(-1, 3)
    if flat.shape[0] == 0:
        return PolyData(np.zeros((0, 3)))
    triangles = np.arange(flat.shape[0], dtype=np.intp).reshape(-1, 3)
    return PolyData(volume.index_to_world(flat), triangles,
                    scalars=np.full(flat.shape[0], float(isovalue)))
