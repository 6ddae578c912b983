"""Z-buffered software rasterization of PolyData.

Triangles are filled with barycentric interpolation of per-vertex
colors and depths (Gouraud shading); polylines are drawn with a DDA
walk.  A call draws a *run* of like actors — in a frame, consecutive
actors that hold triangles only, or polylines of one point size only,
as :func:`runs` cuts them — so a frame costs one call per run, not one
per actor.  Each actor's
points are projected and coloured on their own; then the run's
primitives are numbered one after another, actor by actor, and drawn
as one list.  An actor whose points are read-only keeps its projection
for the last camera and size, and its triangles' and polylines'
fragments beside it, both taken in one lookup
(:meth:`PolyData.viewed`): a frame through an unchanged camera
projects and finds fragments only for the geometry that is new, and
only the depth test and the colour write run against each frame's
buffer.

Nothing here iterates over primitives in Python: a call
costs a fixed number of numpy operations per *batch* — a consecutive
run of triangles (or line segments) whose fragments fit a small budget.
Triangles take two halves.  Their fragments, found in one pass over
every mesh of a run that missed (:func:`_triangle_fragments`):

1. cull, area and box for every triangle at once — the pixel centres
   near its vertex bounds, or for an ill-conditioned triangle its
   ``floor(min)..ceil(max)`` box, clipped to the viewport;
2. expand each batch's boxes into one flat fragment list, row-major per
   box, evaluate the barycentric expressions elementwise and keep the
   covered centres with their weights and float32 depth.

Then the fill (:func:`_fill_triangles`), a batch of fragments at a time,
taking each batch the pass yields as it comes, so a mesh that keeps
nothing is never held whole:

3. resolve depth (:meth:`Framebuffer.resolve`, shared with the
   polylines, so the depth rule exists once);
4. shade only the fragments that won a pixel.

Polylines take the same route with samples in place of box pixels, and
sample a segment only where it can touch the viewport.  Each line is
written in its actor's flat ``line_color``, or interpolated between its
points' colours when the actor has none.

``resolve`` leaves what drawing its groups one after another would, so
a run leaves what drawing its actors one after another would.  The
arithmetic is, expression for expression, that of the per-triangle /
per-segment loops this replaced; those loops live on as the oracle in
``tests/rendering/reference_rasterizer.py`` and the differential tests
next to it hold color, depth and the returned count byte-identical, for
one actor and for runs of many.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.rendering.camera import Camera
from repro.rendering.framebuffer import Framebuffer
from repro.util.errors import RenderingError

if TYPE_CHECKING:
    from repro.rendering.geometry import PolyData
    from repro.rendering.scene import Actor


def shade_colors(
    base_colors: np.ndarray,
    normals: np.ndarray,
    light_direction: np.ndarray,
    ambient: float = 0.35,
    diffuse: float = 0.65,
) -> np.ndarray:
    """Lambertian shading of per-point colors (double-sided)."""
    light = np.asarray(light_direction, dtype=np.float64)
    light = light / max(np.linalg.norm(light), 1e-30)
    lambert = np.abs(normals @ light)  # double-sided surfaces
    factor = ambient + diffuse * lambert
    return np.clip(base_colors * factor[:, None], 0.0, 1.0).astype(np.float32)


def runs(actors: Sequence["Actor"]) -> List[List["Actor"]]:
    """The visible actors with points, in draw order, cut into runs of
    one kind: triangles only, or polylines of one point size only.  An
    actor holding both is a run of its own, so each run drawn as one
    :func:`rasterize` call leaves what drawing its actors one after
    another would."""
    cut: List[List["Actor"]] = []
    kinds: list = []
    for actor in actors:
        if not actor.visible or actor.poly.n_points == 0:
            continue
        if not actor.poly.lines:
            kind: object = "triangles"
        elif not actor.poly.n_triangles:
            kind = ("lines", actor.point_size)
        else:
            kind = None  # both: joins no run
        if kind is not None and kinds and kinds[-1] == kind:
            cut[-1].append(actor)
        else:
            cut.append([actor])
            kinds.append(kind)
    return cut


def rasterize(
    run: Sequence["Actor"],
    camera: Camera,
    framebuffer: Framebuffer,
    light_direction: Optional[np.ndarray] = None,
) -> int:
    """Draw a run of actors into *framebuffer* through *camera*; returns
    pixels written.

    The run's triangles are drawn first, actor by actor, then its
    polylines: what drawing the actors one after another leaves.  So a
    run in which an actor with lines comes before one with triangles,
    or whose lines differ in ``point_size``, is refused with
    :class:`RenderingError`; :func:`runs` cuts a frame's actors into
    runs that are not.  Actors without points are skipped.

    An actor's point colours are ``poly.colors`` (falling back to its
    ``color``), shaded by *light_direction* when it has ``lighting`` and
    triangles.  Its lines use its ``line_color``, or those point colours.
    """
    actors = [actor for actor in run if actor.poly.n_points]
    if not actors:
        return 0
    brushes = {actor.point_size for actor in actors if actor.poly.lines}
    if len(brushes) > 1:
        raise RenderingError(f"a run's polylines share one point size, got {sorted(brushes)}")
    first_lines = next((i for i, actor in enumerate(actors) if actor.poly.lines), len(actors))
    if any(actor.poly.n_triangles for actor in actors[first_lines + 1:]):
        raise RenderingError("a run's triangles come before its polylines")
    polys = [actor.poly for actor in actors]
    n_triangles = sum(poly.n_triangles for poly in polys)
    n_lines = sum(len(poly.lines) for poly in polys)
    with obs.span(
        "rasterizer.rasterize",
        points=sum(poly.n_points for poly in polys),
        triangles=n_triangles,
        lines=n_lines,
    ) as _span:
        width, height = framebuffer.width, framebuffer.height
        # the run numbers its points actor after actor
        offsets = list(accumulate((poly.n_points for poly in polys[:-1]), initial=0))
        # flat-coloured lines read no point colour: those rows stay unset
        colors = _joined([
            _point_colors(actor, light_direction)
            if poly.n_triangles or actor.line_color is None
            else np.empty((poly.n_points, 3), dtype=np.float32)
            for actor, poly in zip(actors, polys)
        ])

        written = 0
        if n_triangles:
            meshes = [(poly, offset) for poly, offset in zip(polys, offsets) if poly.n_triangles]
            corners = np.ascontiguousarray(_joined([
                poly.triangles + offset if offset else poly.triangles
                for poly, offset in meshes]).T)
            written += _fill_triangles(
                _mesh_fragments([poly for poly, _ in meshes], camera, width, height),
                corners, colors, framebuffer)
        if n_lines:
            brush = max(int(brushes.pop()), 1)
            lined = [(actor, poly, offset)
                     for actor, poly, offset in zip(actors, polys, offsets) if poly.lines]
            # each line geometry's fragments, kept beside its projection
            # (one lookup for both); those not kept are sampled in one pass
            key = ("line samples", brush)
            viewed = [poly.viewed(camera, width, height) for _, poly, _ in lined]
            samples = [None if memo is None else memo.get(key) for _, memo in viewed]
            missing = [i for i, found in enumerate(samples) if found is None]
            if missing:
                sampled = _line_samples(
                    [(lined[i][1].segments(), viewed[i][0]) for i in missing],
                    width, height, brush)
                for i, found in zip(missing, sampled):
                    samples[i] = found
                    memo = viewed[i][1]
                    if memo is not None:
                        memo[key] = found
            pieces = [(found, poly.segments(), offset, actor.line_color)
                      for found, (actor, poly, offset) in zip(samples, lined)]
            written += _rasterize_polylines(pieces, colors, framebuffer)
        if obs.enabled():
            obs.counter("rasterizer.triangles", n_triangles)
            obs.counter("rasterizer.pixels_written", int(written))
            _span.set(pixels=int(written))
    return written


def _joined(arrays: List[np.ndarray], axis: int = 0) -> np.ndarray:
    """The arrays one after another (the one array itself, uncopied)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _point_colors(actor: "Actor", light_direction: Optional[np.ndarray]) -> np.ndarray:
    """An actor's float32 point colours, lit when it has triangles."""
    poly = actor.poly
    if poly.colors is not None:
        base = poly.colors.astype(np.float64)
    else:
        base = np.tile(np.asarray(actor.color, dtype=np.float64), (poly.n_points, 1))
    if light_direction is not None and actor.lighting and poly.n_triangles:
        return shade_colors(base, poly.point_normals(), light_direction)
    return np.clip(base, 0.0, 1.0).astype(np.float32)


#: fragments one batch may materialise.  Measured: a 64x48 frame costs the
#: same from 2**10 to 2**15, a 59k-triangle 640x480 frame is 1.5x slower at
#: 2**11, and peak memory grows with the budget — so it stays this small.
_FRAGMENT_BUDGET = 1 << 13


def _batches(counts: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Consecutive primitive runs ``[start, stop)`` of about
    :data:`_FRAGMENT_BUDGET` fragments each; a primitive is never split."""
    if counts.size == 0:
        return iter(())
    first_fragment = np.cumsum(counts) - counts
    if first_fragment[-1] < _FRAGMENT_BUDGET:  # every primitive starts in batch 0
        return iter(((0, counts.size),))
    batch = first_fragment // _FRAGMENT_BUDGET
    cuts = (np.flatnonzero(batch[1:] != batch[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [counts.size])


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(owner, local)`` of every fragment when primitive *i* emits
    ``counts[i]`` of them: its index, and the fragment's rank inside it."""
    owner = np.repeat(np.arange(counts.size), counts)
    local = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, local


def _covered_fragments(
    box_area: np.ndarray,
    box_w: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    setup: Sequence[np.ndarray],
) -> Tuple[np.ndarray, ...]:
    """``(owner, gx, gy, w0, w1, w2)`` of the bounding-box pixels each
    triangle covers.  *setup* columns: ax, ay, bx, by, cx, cy, area."""
    # every box pixel of every triangle, row-major per box
    owner, local = _expand(box_area)
    gy, gx = np.divmod(local, box_w.take(owner))
    gx += x0.take(owner)
    gy += y0.take(owner)
    fx = gx.astype(np.float64)
    fy = gy.astype(np.float64)
    ax, ay, bx, by, cx, cy, area = (column.take(owner) for column in setup)
    w0 = ((bx - fx) * (cy - fy) - (cx - fx) * (by - fy)) / area
    w1 = ((cx - fx) * (ay - fy) - (ax - fx) * (cy - fy)) / area
    w2 = 1.0 - w0 - w1
    inside = np.flatnonzero((w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9))
    return owner[inside], gx[inside], gy[inside], w0[inside], w1[inside], w2[inside]


#: the view memo's key for a mesh's fragments (:func:`_triangle_fragments`)
_TRIANGLE_KEY = "triangle fragments"

#: A triangle's box holds the pixel centres within ``_BOX_MARGIN`` of its
#: vertex bounds when ``S * R**2 <= _WELL_CONDITIONED * |area|``, else
#: ``floor(min)..ceil(max)``.  Why no covered centre is lost:
#:
#: Let S be the unclipped span ``max(xmax - xmin, ymax - ymin)``, R = S + 1,
#: A the double area, u = 2**-53, K = R**2 / |A| (K >= 1: |A| <= S**2) and
#: k = 2 * gamma_4 * K ~ 8uK.  A centre p of the old box lies within R of
#: each vertex on each axis; take one the new box leaves out, say d left of
#: xmin, with d > _BOX_MARGIN / 2 (the rounding of ``xmin - _BOX_MARGIN``
#: is below u * (width + S)).  The other sides are alike.
#:
#: * Exact weights l_i (sum 1, p = sum l_i v_i): -d = sum l_i (v_ix - xmin)
#:   >= S * (sum of the negative l_i), and at most two are negative, so
#:   min l_i <= -delta with delta = d / (2S).
#: * Each numerator is two products of differences below R: computed within
#:   2 * gamma_4 * R**2 = k|A| of exact; the area within k|A| too; |l_i| <= 2K.
#: * If l_0 or l_1 <= -delta: w_i <= -(delta - k)(1 - u) / (1 + k).
#: * If l_2 <= -delta: w_0 + w_1 is within (2.6k + k(1 + |l_2|)) / (1 - k)
#:   of l_0 + l_1 = 1 + |l_2| (u|l_0| + u|l_1| <= k/2), and the two
#:   subtractions of ``1.0 - w0 - w1`` add below 0.4k, so
#:   w_2 <= -(delta(1 - 2k) - 5k)(1 - u).
#:
#: So the test ``w >= -1e-9`` rejects p when (1 - u)(delta(1 - 2k) - 5k) > 1e-9.
#: The condition gives K <= 1.01 L / S and S <= 1.01 L (L =
#: _WELL_CONDITIONED, 1.01 covering the rounding of S, R, the area and the
#: test itself), so k <= 2**-10 (|A| >= 1e-12 gives S >= 1e-6) and
#: delta(1 - 2k) - 5k >= (m/4 * (1 - 2**-9) - 41uL) / (1.01 L) = 1.8e-9 for
#: m = 2**-8, L = 2**19.  A triangle outside the condition (a sliver, or a
#: span beyond 5e5 px) keeps the old box.
_BOX_MARGIN = 2.0 ** -8
_WELL_CONDITIONED = 2.0 ** 19


def _mesh_fragments(
    meshes: List["PolyData"], camera: Camera, width: int, height: int
) -> Iterator[Tuple[Tuple[np.ndarray, ...], int]]:
    """Every triangle fragment of a run's *meshes*, in draw order, as
    ``(fragments, first triangle)`` chunks: ``fragments`` as
    :func:`_triangle_fragments` gives them, ``first triangle`` the run's
    number for the first triangle of the chunk's mesh.

    A mesh's kept fragments (in its view memo, taken with its projection
    in one lookup) come whole.  The others' are found in one pass and
    come a batch at a time, so a mesh with writable points is never held
    whole; a mesh with read-only points keeps its own copy of what the
    pass found for it.
    """
    viewed = [poly.viewed(camera, width, height) for poly in meshes]
    missing = [i for i, (_, memo) in enumerate(viewed)
               if memo is None or _TRIANGLE_KEY not in memo]
    found = _triangle_fragments(
        [(meshes[i].triangles, viewed[i][0]) for i in missing], width, height
    ) if missing else iter(())
    chunk = next(found, None)
    first, piece = 0, -1
    for poly, (_, memo) in zip(meshes, viewed):
        if memo is not None and _TRIANGLE_KEY in memo:
            yield memo[_TRIANGLE_KEY], first
        else:
            piece += 1
            parts = []
            while chunk is not None and chunk[0] == piece:
                if memo is not None:
                    parts.append(chunk[1])
                yield chunk[1], first
                chunk = next(found, None)
            if memo is not None:
                if parts:  # a copy: a batch's arrays may hold other meshes' fragments
                    kept = tuple(np.concatenate(column) for column in zip(*parts))
                else:
                    kept = (np.zeros(0, np.intp), np.zeros(0, np.intp),
                            np.zeros(0), np.zeros(0), np.zeros(0, np.float32))
                for array in kept:
                    array.flags.writeable = False
                memo[_TRIANGLE_KEY] = kept
        first += poly.n_triangles


def _triangle_fragments(
    pieces: List[Tuple[np.ndarray, np.ndarray]], width: int, height: int
) -> Iterator[Tuple[int, Tuple[np.ndarray, ...]]]:
    """The covered pixel centres of each mesh's triangles in a ``width ×
    height`` viewport, found in one pass over all *pieces*, a batch of
    triangles' boxes at a time: cull, area, box, barycentric weights and
    depth.

    *pieces* are one ``(triangles, projected)`` per mesh: its ``(n, 3)``
    point indices and its points' ``(x, y, depth)``.  Yields, batch after
    batch and piece after piece, ``(piece, (pixels, owner, w0, w1,
    depths))``: each fragment's flat pixel, triangle index in its piece,
    first two barycentric weights (the third is ``1.0 - w0 - w1``) and
    float32 depth, triangle after triangle and row-major inside each.  A
    piece's chunks, joined, are all its fragments.  Nothing here reads a
    depth buffer or a colour, so they can be kept beside the projection
    they came from.
    """
    sizes = [triangles.shape[0] for triangles, _ in pieces]
    point_first = accumulate((projected.shape[0] for _, projected in pieces[:-1]), initial=0)
    triangles = _joined([triangles + first if first else triangles
                         for (triangles, _), first in zip(pieces, point_first)])
    projected = _joined([projected for _, projected in pieces])
    # one 1-D column per corner and coordinate: px, py, depth of a, b, c
    corners = np.ascontiguousarray(triangles.T)  # (3 corners, n_tri)
    xs, ys, zs = (
        [column.take(corner) for corner in corners]
        for column in np.ascontiguousarray(projected.T)
    )
    finite = (
        np.isfinite(xs[0]) & np.isfinite(xs[1]) & np.isfinite(xs[2])
        & np.isfinite(ys[0]) & np.isfinite(ys[1]) & np.isfinite(ys[2])
        & (zs[0] > 0) & (zs[1] > 0) & (zs[2] > 0)
    )
    # cull triangles fully outside the viewport
    xmin = np.minimum(np.minimum(xs[0], xs[1]), xs[2])
    xmax = np.maximum(np.maximum(xs[0], xs[1]), xs[2])
    ymin = np.minimum(np.minimum(ys[0], ys[1]), ys[2])
    ymax = np.maximum(np.maximum(ys[0], ys[1]), ys[2])
    onscreen = (xmax >= 0) & (xmin <= width - 1) & (ymax >= 0) & (ymin <= height - 1)
    keep = np.flatnonzero(finite & onscreen)
    ax, bx, cx = (x.take(keep) for x in xs)
    ay, by, cy = (y.take(keep) for y in ys)
    # signed double area; degenerate triangles are skipped
    area = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    solid = np.flatnonzero(~(np.abs(area) < 1e-12))
    keep = keep.take(solid)
    setup = [column.take(solid) for column in (ax, ay, bx, by, cx, cy, area)]
    # boxes clipped to the viewport: the pixel centres near the vertex
    # bounds where that is proven to lose nothing, floor..ceil elsewhere
    lo_x, hi_x, lo_y, hi_y = (bound.take(keep) for bound in (xmin, xmax, ymin, ymax))
    span = np.maximum(hi_x - lo_x, hi_y - lo_y)
    tight = span * (span + 1.0) ** 2 <= _WELL_CONDITIONED * np.abs(setup[6])
    x0 = np.maximum(np.where(tight, np.ceil(lo_x - _BOX_MARGIN), np.floor(lo_x)), 0)
    y0 = np.maximum(np.where(tight, np.ceil(lo_y - _BOX_MARGIN), np.floor(lo_y)), 0)
    x1 = np.minimum(np.where(tight, np.floor(hi_x + _BOX_MARGIN), np.ceil(hi_x)), width - 1)
    y1 = np.minimum(np.where(tight, np.floor(hi_y + _BOX_MARGIN), np.ceil(hi_y)), height - 1)
    # a box without a centre covers nothing
    boxed = np.flatnonzero((x1 >= x0) & (y1 >= y0))
    keep = keep.take(boxed)
    setup = [column.take(boxed) for column in setup]
    x0, y0 = x0.take(boxed).astype(np.intp), y0.take(boxed).astype(np.intp)
    box_w = x1.take(boxed).astype(np.intp) - x0 + 1
    box_area = box_w * (y1.take(boxed).astype(np.intp) - y0 + 1)
    vertex_depth = [z.take(keep) for z in zs]

    if obs.enabled():
        obs.counter("rasterizer.fragments.tested", int(box_area.sum()))
    # each piece's triangles, and so its fragments, are one run of the joint ones
    tri_bounds = np.array(list(accumulate(sizes, initial=0)))
    covered = 0
    for start, stop in _batches(box_area):
        batch = slice(start, stop)
        owner, gx, gy, w0, w1, w2 = _covered_fragments(
            box_area[batch], box_w[batch], x0[batch], y0[batch],
            [column[batch] for column in setup],
        )
        owner += start
        da, db, dc = (d.take(owner) for d in vertex_depth)
        z = w0 * da + w1 * db + w2 * dc
        owner = keep.take(owner)
        pixels, depths = gy * width + gx, z.astype(np.float32)
        covered += owner.size
        if len(pieces) == 1:
            yield 0, (pixels, owner, w0, w1, depths)
            continue
        # a batch may end one piece and begin the next
        cuts = np.searchsorted(owner, tri_bounds).tolist()
        for piece in np.flatnonzero(np.diff(cuts)).tolist():
            frags = slice(cuts[piece], cuts[piece + 1])
            yield piece, (pixels[frags], owner[frags] - tri_bounds[piece],
                          w0[frags], w1[frags], depths[frags])
    if obs.enabled():
        obs.counter("rasterizer.fragments.covered", covered)


def _fill_triangles(
    chunks: Iterator[Tuple[Tuple[np.ndarray, ...], int]],
    corners: np.ndarray,
    colors: np.ndarray,
    fb: Framebuffer,
) -> int:
    """Depth-test and colour every triangle fragment of a run,
    :data:`_FRAGMENT_BUDGET` fragments at a time.

    *chunks* are ``(fragments, first triangle)`` in draw order, as
    :func:`_mesh_fragments` gives them; *corners* the run's ``(3, n)``
    point indices.  ``resolve`` takes each triangle as one group; a
    triangle holds one fragment per pixel, so a batch may end inside one
    and the run still leaves what drawing its triangles one after
    another would.  Only a batch of fragments is held at once, besides
    the chunk it is cut from.
    """
    color_flat = fb.color.reshape(-1, 3)
    written = 0
    for pixels, owner, w0, w1, depths in _rebatched(chunks):
        winners, passed = fb.resolve(pixels, owner, depths)
        written += passed
        # only fragments that reach the screen are shaded
        triangle = owner.take(winners)
        ia, ib, ic = (corner.take(triangle) for corner in corners)
        a, b = w0.take(winners), w1.take(winners)
        color_flat[pixels.take(winners)] = (
            a[:, None] * colors[ia]
            + b[:, None] * colors[ib]
            + (1.0 - a - b)[:, None] * colors[ic]
        )
    return written


def _rebatched(
    chunks: Iterator[Tuple[Tuple[np.ndarray, ...], int]]
) -> Iterator[Tuple[np.ndarray, ...]]:
    """The fragments of *chunks*, one after another, cut into batches of
    :data:`_FRAGMENT_BUDGET` (the last may be short), each chunk's owners
    offset by its first triangle."""
    pending: list = []
    room = _FRAGMENT_BUDGET
    for fragments, first in chunks:
        n, lo = fragments[0].size, 0
        while lo < n:
            hi = min(n, lo + room)
            part = [column[lo:hi] for column in fragments]
            if first:
                part[1] = part[1] + first
            pending.append(part)
            room -= hi - lo
            lo = hi
            if not room:
                yield tuple(_joined(list(column)) for column in zip(*pending))
                pending, room = [], _FRAGMENT_BUDGET
    if pending:
        yield tuple(_joined(list(column)) for column in zip(*pending))


def _line_samples(
    pieces: List[Tuple[np.ndarray, np.ndarray]], width: int, height: int, brush: int
) -> List[Tuple[np.ndarray, ...]]:
    """The fragments of each geometry's polylines that land in a
    ``width × height`` viewport: DDA samples of every segment, each
    stamped with a ``brush × brush`` square, in draw order (segment,
    sample, brush offset), sampled in one pass over all *pieces*.

    *pieces* are one ``(segments, projected)`` per geometry: its
    :meth:`PolyData.segments` and its points' ``(x, y, depth)``.
    Returns, per piece, read-only ``(pixels, depths, segment, t,
    counts)``: each fragment's flat pixel, float32 depth (nudged in
    front of faces), segment index and position ``t`` along it, and the
    fragments of each segment.  Nothing here reads a depth buffer or a
    colour, so each result is kept beside the projection it came from.
    """
    sizes = [segments.shape[1] for segments, _ in pieces]
    point_first = accumulate((projected.shape[0] for _, projected in pieces[:-1]), initial=0)
    segments = _joined([segments + first if first else segments
                        for (segments, _), first in zip(pieces, point_first)], axis=1)
    projected = _joined([projected for _, projected in pieces])
    n = segments.shape[1]
    # (x, y, depth) rows at both ends: a's in the first n columns, b's after
    p = projected.T.take(segments.reshape(-1), axis=1)
    ok = np.isfinite(p).all(axis=0) & (p[2] > 0)
    valid = ok[:n] & ok[n:]
    index = None
    if not valid.all():
        index = np.flatnonzero(valid)
        p = p[:, np.concatenate([index, n + index])]
        n = index.size
    # per segment, the rows a sample reads: last, step, base, a (3), b - a (3)
    table = np.empty((9, n))
    last, step, base, pa, d = table[0], table[1], table[2], table[3:6], table[6:9]
    pa[...] = p[:, :n]
    np.subtract(p[:, n:], pa, out=d)
    # np.linspace(0, 1, n) per segment is k * (1 / (n - 1)), last sample 1.0
    np.maximum(np.ceil(np.abs(d[:2]).max(axis=0)), 1.0, out=last)
    np.divide(1.0, last, out=step)
    # Sample only the k whose pixel can fall inside the viewport: clip the
    # segment against the viewport grown by the brush, widen by one sample.
    # A segment that projects to 10**6 px still costs what is visible of it.
    reach = float(brush)
    box = np.array([[[-0.5 - reach], [-0.5 - reach]],
                    [[width - 0.5 + reach], [height - 0.5 + reach]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (box - pa[:2]) / d[:2]  # (low/high side, x/y, segment)
        t_in = np.fmin(crossings[0], crossings[1]).max(axis=0)
        t_out = np.fmax(crossings[0], crossings[1]).min(axis=0)
        visible = np.maximum(t_in, 0.0) <= np.minimum(t_out, 1.0)
        # the first and one-past-last sample, read only where visible
        k_first = np.minimum(np.maximum(np.floor(t_in * last) - 1, 0), last)
        k_stop = np.minimum(np.maximum(np.ceil(t_out * last) + 1, 0), last) + 1
        counts = np.where(visible, k_stop - k_first, 0.0).astype(np.intp)
    # sample i of the pass is k = i - base of its segment: k_first + its rank
    first = np.cumsum(counts) - counts
    np.subtract(first, k_first, out=base, where=visible)

    if brush > 1:
        offsets = np.arange(brush) - brush // 2
        brush_xy = np.array([np.tile(offsets, offsets.size), np.repeat(offsets, offsets.size)])
    bound = np.array([[width], [height]], dtype=np.uintp)
    parts = []
    for start, stop in _batches(counts * (brush * brush)):
        owner = np.repeat(np.arange(start, stop), counts[start:stop])
        rows = table.take(owner, axis=1)
        # integer-valued floats below 2**53: exact, as k_first + rank was
        k = np.arange(first[start], first[start] + owner.size) - rows[2]
        t = np.where(k == rows[0], 1.0, k * rows[1])
        points = rows[3:6] + rows[6:9] * t  # x, y, depth
        zs = (points[2] - 1e-4).astype(np.float32)  # nudge lines in front of faces
        if brush > 1:
            xy = np.rint((points[:2, :, None] + brush_xy[:, None, :]).reshape(2, -1))
        else:
            xy = np.rint(points[:2])
        xy = xy.astype(np.intp)
        # negative pixels wrap to huge unsigned ones: one test per bound
        inside = np.flatnonzero((xy.view(np.uintp) < bound).all(axis=0))
        sample = inside // (brush * brush) if brush > 1 else inside
        parts.append((xy[1, inside] * width + xy[0, inside], zs[sample],
                      owner[sample], t[sample]))
    if parts:
        pixels, depths, segment, t = (_joined(list(column)) for column in zip(*parts))
    else:
        pixels, segment = np.zeros(0, np.intp), np.zeros(0, np.intp)
        depths, t = np.zeros(0, np.float32), np.zeros(0)
    if index is not None:
        segment = index.take(segment)
    counts = np.bincount(segment, minlength=segments.shape[1])
    # each piece's segments, and fragments, are one run of the joint ones
    seg_bounds = list(accumulate(sizes, initial=0))
    frag_bounds = np.concatenate(([0], np.cumsum(counts))).take(seg_bounds).tolist()
    out = []
    for i in range(len(pieces)):
        s0, s1 = seg_bounds[i], seg_bounds[i + 1]
        frags = slice(frag_bounds[i], frag_bounds[i + 1])
        samples = (pixels[frags], depths[frags],
                   segment[frags] - s0 if s0 else segment[frags], t[frags], counts[s0:s1])
        for array in samples:
            array.flags.writeable = False
        out.append(samples)
    return out


def _rasterize_polylines(
    pieces: List[Tuple[Tuple[np.ndarray, ...], np.ndarray, int, Optional[tuple]]],
    colors: np.ndarray,
    fb: Framebuffer,
) -> int:
    """Depth-test and write every line fragment of a run, a batch of
    whole segments at a time.

    *pieces* are one ``(samples, segments, first point, flat colour or
    None)`` per actor, in draw order: ``samples`` one of
    :func:`_line_samples`' results, ``segments`` as
    :meth:`PolyData.segments`.
    A line without a flat colour interpolates *colors* along each
    segment.  The run numbers its segments actor after actor, and
    ``resolve`` takes each segment as one group, so the run leaves what
    drawing its segments one after another would.
    """
    sizes = [segments.shape[1] for _, segments, _, _ in pieces]
    seg_first = list(accumulate(sizes[:-1], initial=0))
    pixels, depths, segment, t, counts = (
        _joined(list(column)) for column in zip(*(
            (samples[0], samples[1], samples[2] + first if first else samples[2],
             samples[3], samples[4])
            for (samples, _, _, _), first in zip(pieces, seg_first)
        ))
    )
    # each segment's flat colour, and whether it interpolates instead
    seg_flat = np.repeat(np.array([(0.0, 0.0, 0.0) if color is None else color
                                   for _, _, _, color in pieces], dtype=np.float32), sizes, axis=0)
    lerp = [color is None for _, _, _, color in pieces]
    if any(lerp):
        seg_lerp = np.repeat(lerp, sizes)
        ends = _joined([segments + offset if offset else segments
                        for _, segments, offset, _ in pieces], axis=1)
    color_flat = fb.color.reshape(-1, 3)
    fragment_stop = np.cumsum(counts)

    written = 0
    for start, stop in _batches(counts):
        lo = fragment_stop[start] - counts[start]
        hi = fragment_stop[stop - 1]
        if hi == lo:
            continue
        winners, passed = fb.resolve(pixels[lo:hi], segment[lo:hi], depths[lo:hi])
        written += passed
        winners += lo
        won = pixels[winners]
        owner = segment[winners]
        if not any(lerp):
            color_flat[won] = seg_flat[owner]
            continue
        lerped = seg_lerp[owner]
        color_flat[won[~lerped]] = seg_flat[owner[~lerped]]
        owner = owner[lerped]
        tw = t[winners[lerped]][:, None]
        color_flat[won[lerped]] = colors[ends[0, owner]] * (1 - tw) + colors[ends[1, owner]] * tw
    return written
