"""Streaming accumulator kernels behind the ``repro.cdat`` reductions.

Every reduction operator is written as a fold over the slabs of its
input — the slab-source protocol of :mod:`repro.cdms.slabs` — with
accumulator state sized by the *output*, not the input.  An eager
:class:`~repro.cdms.variable.Variable` arrives as one slab, a streamed
:class:`~repro.cdms.lazy.LazyVariable` as one slab per container chunk;
both drive the same kernel.

**The byte-identity contract.**  Eager and streamed inputs must produce
bit-for-bit identical results, which the kernels guarantee by making
the sequence of float operations independent of how the payload is
partitioned:

* numpy reduces axis 0 of a C-contiguous array *sequentially* (its
  pairwise summation applies only when the reduction axis is the
  innermost-contiguous one), so continuing a fold one in-place row add
  at a time (:func:`extend_sum`) reproduces the whole-array
  ``sum(axis=0)`` exactly, however the rows are split into slabs;
* masked means are ``(sum * 1.0) / count`` — ``* 1.0`` is an IEEE
  identity — so group means match ``np.ma.mean`` bitwise;
* a cumulative sum continued row by row from a carried last row
  reproduces the whole-axis ``np.cumsum`` exactly, which gives the
  windowed running mean its slab-boundary carry;
* reductions over *other* dimensions touch each row independently, so
  per-slab computation + concatenation (``repro.cdms.slabs.map_slabs``)
  is trivially identical;
* whole-array *scalar* statistics (pattern covariance and friends) are
  instead canonicalized to per-row term sums folded into Python floats
  — each row is always a whole row, so row sums are partition-
  independent, and the sequential fold across rows is too.

Operations that genuinely need the full series per point (percentiles
along the slab axis) gather explicitly through
:func:`repro.cdms.slabs.materialize`, observable as ``cdat.materialize``.

A fold that walks its input twice (moments, composites) reads through
:class:`BlockPasses`: when the whole input fits its streaming budget
beside the accumulators, the second pass replays the read-only blocks
the first pass verified instead of reading every chunk again.

Accounting: each kernel run counts the slabs it consumed
(``cdat.slabs``) and gauges the largest block-plus-accumulator resident
set it held (``cdat.peak_resident.bytes``), blocks kept for a later
pass included.  Accumulators exclude outputs shaped like the input (a
running mean's output is inherently full-size); the bounded-resident
guarantee is about reductions whose outputs are smaller than their
inputs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.cdms.lazy import LazyVariable
from repro.cdms.slabs import is_streamed, iter_aligned_slabs, materialize, slab_axis
from repro.cdms.variable import Variable
from repro.util.errors import CDATError


class SlabAccounting:
    """Slab count and peak resident-set bytes for one kernel run.

    A block a multi-pass fold keeps (:class:`BlockPasses`) stays
    resident until the kernel returns: :meth:`keep` adds it to every
    later :meth:`note`, which then does not count it a second time.
    """

    def __init__(self, op: str) -> None:
        self.op = op
        self.slabs = 0
        self.peak_bytes = 0
        self._kept_bytes = 0
        self._kept_ids: Set[int] = set()

    def keep(self, block: np.ndarray) -> None:
        if id(block) not in self._kept_ids:
            self._kept_ids.add(id(block))
            self._kept_bytes += _nbytes(block)

    def note(self, *arrays: object) -> None:
        self.slabs += 1
        resident = self._kept_bytes + sum(
            _nbytes(a) for a in arrays if id(a) not in self._kept_ids
        )
        if resident > self.peak_bytes:
            self.peak_bytes = resident

    def finish(self) -> None:
        if obs.enabled():
            obs.counter("cdat.slabs", float(self.slabs), op=self.op)
            obs.gauge(
                "cdat.peak_resident.bytes", float(self.peak_bytes), op=self.op
            )


def _nbytes(arr: object) -> int:
    total = int(getattr(arr, "nbytes", 0))
    mask = getattr(arr, "mask", None)
    if isinstance(mask, np.ndarray):
        total += int(mask.nbytes)
    return total


def extend_sum(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Continue a sequential axis-0 sum with more rows.

    Bitwise-identical to reducing all rows seen so far in one
    ``np.add.reduce(..., axis=0)`` call, because numpy reduces axis 0 of
    a C-contiguous array sequentially: a row costs one in-place add.  An
    accumulator of one element is the exception — numpy then reduces
    the one remaining axis pairwise — so it keeps that formulation.
    """
    if rows.shape[0] == 0:
        return acc
    if acc.size <= 1:
        return np.add.reduce(np.concatenate([acc[np.newaxis], rows], axis=0), axis=0)
    out = acc + rows[0]
    for row in rows[1:]:
        out += row
    return out


#: one ``(start, stop, block)`` item of :func:`iter_blocks`
Block = Tuple[int, int, np.ma.MaskedArray]


def iter_blocks(var: Variable, dim: int, op: str = "") -> Iterator[Block]:
    """Yield ``(start, stop, block)`` slabs with *dim* rotated to axis 0.

    Slabs arrive in storage order, so folding the yielded rows performs
    the same operation sequence regardless of partitioning.  A streamed
    variable chunked along a dimension *other* than *dim* is first
    gathered (observable as ``cdat.materialize``) — the chunked writer
    partitions along time, so this only happens for unusual containers.
    """
    if is_streamed(var) and slab_axis(var) != dim:
        var = materialize(var, op=op or f"axis{dim}")
    pos = 0
    for slab in var.iter_slabs():
        block = slab if dim == 0 else np.moveaxis(slab, dim, 0)
        yield pos, pos + block.shape[0], block
        pos += block.shape[0]


class BlockPasses:
    """:func:`iter_blocks` for a fold that walks its input more than once.

    The first pass reads through :func:`iter_blocks`.  It keeps the
    read-only blocks it yields when *var* fits its budget, and every
    later pass replays them, so each chunk comes off disk, and through
    the reader's sha256 check, once per fold.  A streamed variable fits
    when its decoded payload, a worst-case one-byte-per-value mask and
    the fold's *accumulators* (how many float64 arrays shaped like one
    row along *dim* it holds) fit its source's ``memory_budget_bytes``;
    one that does not is read again on every pass.  An eager variable
    always fits: its one slab is memory it already owns.  The kept
    blocks live as long as this object, which a kernel drops when it
    returns; each pass counts them resident in its kernel's
    :class:`SlabAccounting`.
    """

    def __init__(self, var: Variable, dim: int, accumulators: int) -> None:
        self.var = var
        self.dim = dim
        self._keeps = True
        if isinstance(var, LazyVariable):
            row = var.shape[:dim] + var.shape[dim + 1 :]
            held = var.layout.total_nbytes() + var.size
            held += accumulators * 8 * int(np.prod(row, dtype=np.int64))
            self._keeps = held <= var.source.config.memory_budget_bytes
        self._kept: Optional[List[Block]] = None

    def __call__(self, op: str, acct: SlabAccounting) -> Iterator[Block]:
        """One pass over the blocks, in storage order."""
        if self._kept is not None:
            for item in self._kept:
                acct.keep(item[2])
            yield from self._kept
            return
        kept: List[Block] = []
        for item in iter_blocks(self.var, self.dim, op=op):
            if self._keeps:
                kept.append(item)
                acct.keep(item[2])
            yield item
        if self._keeps:
            self._kept = kept


# -- grouped accumulators (climatologies, composites) ----------------------


def group_membership(groups: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Dense group id per index along the fold axis (−1 = no group)."""
    group_of = np.full(n, -1, dtype=np.int64)
    for g, idx in enumerate(groups):
        group_of[np.asarray(idx, dtype=np.intp)] = g
    return group_of


def fold_group_stats(
    var: Variable,
    dim: int,
    group_of: np.ndarray,
    n_groups: int,
    op: str = "group",
    passes: Optional[BlockPasses] = None,
    copy_to: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Per-group ``sums`` and ``counts`` along *dim* in one pass.

    Rows of each group are accumulated in ascending storage order, so
    the sums match ``np.ma.mean``'s internal ``add.reduce`` over the
    gathered group bitwise.  A caller that folds *var* again after this
    pass hands both folds the same *passes*.  *copy_to*, a data and a
    mask array shaped like *var* with *dim* first, receives each
    block's data and mask as the block passes.
    """
    acct = SlabAccounting(op)
    blocks = iter_blocks(var, dim, op=op) if passes is None else passes(op, acct)
    sums = counts = None
    for start, stop, block in blocks:
        if sums is None:
            sums = np.zeros((n_groups,) + block.shape[1:], dtype=np.float64)
            counts = np.zeros_like(sums)
        mask = np.ma.getmask(block)
        valid = None if mask is np.ma.nomask else ~mask
        if copy_to is not None:
            copy_to[0][start:stop] = np.ma.getdata(block)
            if valid is not None:
                copy_to[1][start:stop] = mask
        filled = np.asarray(block.filled(0.0), dtype=np.float64)
        acct.note(block, sums, counts)
        for g, rows in _group_rows(group_of[start:stop]):
            _add_rows(sums, g, rows, filled)
            _add_rows(counts, g, rows, valid)
    if sums is None:
        raise CDATError(f"fold_group_stats: variable {var.id!r} has no rows")
    acct.finish()
    return {"sums": sums, "counts": counts}


def _group_rows(local: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(group, ascending row indices)`` of each group in one slab."""
    for g in np.unique(local):
        if g >= 0:
            yield int(g), np.nonzero(local == g)[0]


def _add_rows(
    acc: np.ndarray, g: int, rows: np.ndarray, block: Optional[np.ndarray]
) -> None:
    """``acc[g] = extend_sum(acc[g], block[rows])``, adding row by row in place.

    Bit for bit the same, without gathering the rows into a copy.
    *block* ``None`` stands for rows of ones: the count of a slab with
    no mask.
    """
    target = acc[g]
    if target.size <= 1:  # extend_sum's one-element case reduces pairwise
        gathered = (
            np.ones((rows.size,) + acc.shape[1:]) if block is None else block[rows]
        )
        acc[g] = extend_sum(target, gathered)
    elif block is None:
        for _ in rows:
            target += 1.0
    else:
        for row in rows:
            np.add(target, block[row], out=target)


def group_means(sums: np.ndarray, counts: np.ndarray) -> np.ma.MaskedArray:
    """Masked per-group means, bitwise-matching ``np.ma.mean`` per group."""
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = (sums * 1.0) / counts
    return np.ma.MaskedArray(np.where(counts > 0, mean, 0.0), mask=(counts <= 0))


def fold_group_squared_deviations(
    var: Variable,
    dim: int,
    group_of: np.ndarray,
    means: np.ndarray,
    op: str = "group_ssq",
    passes: Optional[BlockPasses] = None,
) -> np.ndarray:
    """Σ (x − mean_g)² per group — the second pass of grouped moments.

    Given the *passes* the first pass (:func:`fold_group_stats`) read
    through, it replays the blocks that pass kept.
    """
    n_groups = means.shape[0]
    mean0 = np.asarray(np.ma.filled(means, 0.0), dtype=np.float64)
    acct = SlabAccounting(op)
    blocks = iter_blocks(var, dim, op=op) if passes is None else passes(op, acct)
    ssq: Optional[np.ndarray] = None
    for start, stop, block in blocks:
        if ssq is None:
            ssq = np.zeros((n_groups,) + block.shape[1:], dtype=np.float64)
        mask = np.ma.getmask(block)
        filled = np.asarray(block.filled(0.0), dtype=np.float64)
        acct.note(block, ssq)
        local = group_of[start:stop]
        # every row's deviation from its group mean (an ungrouped row's is unused)
        d = filled - mean0[local]
        if mask is not np.ma.nomask:
            d = np.where(mask, 0.0, d)
        d *= d
        for g, rows in _group_rows(local):
            _add_rows(ssq, g, rows, d)
    if ssq is None:
        raise CDATError(f"fold_group_squared_deviations: no rows in {var.id!r}")
    acct.finish()
    return ssq


# -- weighted sums along the fold axis (axis averages) ----------------------


def fold_weighted_sums(
    var: Variable, dim: int, weights: np.ndarray, op: str = "weighted_mean"
) -> Tuple[np.ndarray, np.ndarray]:
    """``(Σ valid·filled·w, Σ valid·w)`` along *dim*, in storage order."""
    weights = np.asarray(weights, dtype=np.float64)
    acct = SlabAccounting(op)
    num = wsum = None
    for start, stop, block in iter_blocks(var, dim, op=op):
        if num is None:
            num = np.zeros(block.shape[1:], dtype=np.float64)
            wsum = np.zeros(block.shape[1:], dtype=np.float64)
        valid = ~np.ma.getmaskarray(block)
        w = np.broadcast_to(
            weights[start:stop].reshape((-1,) + (1,) * (block.ndim - 1)),
            block.shape,
        )
        acct.note(block, num, wsum)
        wsum = extend_sum(wsum, np.where(valid, w, 0.0))
        num = extend_sum(
            num, np.where(valid, np.asarray(block.filled(0.0)) * w, 0.0)
        )
    if num is None:
        raise CDATError(f"fold_weighted_sums: variable {var.id!r} has no rows")
    acct.finish()
    return num, wsum


# -- two-pass moments along the fold axis (variance / standardize) ----------


def fold_moments(
    var: Variable, dim: int, op: str = "moments"
) -> Tuple[np.ndarray, np.ma.MaskedArray, np.ma.MaskedArray]:
    """Two-pass ``(count, mean, variance)`` along *dim*.

    Matches ``np.ma.mean`` / ``np.ma.var`` (ddof 0) bitwise: pass one
    accumulates sums and counts; pass two accumulates squared
    deviations from the pass-one mean.  Pass two replays the blocks
    pass one read when *var* fits its streaming budget beside the three
    accumulators (:class:`BlockPasses`), so each chunk is read once;
    otherwise it reads them again.
    """
    acct = SlabAccounting(op)
    passes = BlockPasses(var, dim, accumulators=3)  # sums, counts, ssq
    sums = counts = None
    for _start, _stop, block in passes(op + ".mean", acct):
        if sums is None:
            sums = np.zeros(block.shape[1:], dtype=np.float64)
            counts = np.zeros(block.shape[1:], dtype=np.float64)
        valid = ~np.ma.getmaskarray(block)
        acct.note(block, sums, counts)
        sums = extend_sum(sums, np.asarray(block.filled(0.0), dtype=np.float64))
        counts = extend_sum(counts, valid.astype(np.float64))
    if sums is None:
        raise CDATError(f"fold_moments: variable {var.id!r} has no rows")
    mean = group_means(sums, counts)
    mean0 = np.asarray(mean.filled(0.0))

    ssq = np.zeros_like(sums)
    for _start, _stop, block in passes(op + ".ssq", acct):
        valid = ~np.ma.getmaskarray(block)
        filled = np.asarray(block.filled(0.0), dtype=np.float64)
        acct.note(block, ssq)
        d = np.where(valid, filled - mean0, 0.0)
        ssq = extend_sum(ssq, d * d)
    with np.errstate(invalid="ignore", divide="ignore"):
        var_values = ssq / counts
    variance = np.ma.MaskedArray(
        np.where(counts > 0, var_values, 0.0), mask=(counts <= 0)
    )
    acct.finish()
    return counts, mean, variance


# -- least-squares trend sums ----------------------------------------------


def fold_trend_sums(
    var: Variable, dim: int, coords: np.ndarray, op: str = "trend"
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, Σt, Σy, Σt², Σty)`` along *dim* for per-point regression."""
    coords = np.asarray(coords, dtype=np.float64)
    acct = SlabAccounting(op)
    sums: Optional[List[np.ndarray]] = None
    for start, stop, block in iter_blocks(var, dim, op=op):
        valid = (~np.ma.getmaskarray(block)).astype(np.float64)
        y = np.asarray(block.filled(0.0), dtype=np.float64)
        tcol = coords[start:stop].reshape((-1,) + (1,) * (block.ndim - 1))
        if sums is None:
            sums = [np.zeros(block.shape[1:], dtype=np.float64) for _ in range(5)]
        acct.note(block, *sums)
        terms = (valid, valid * tcol, valid * y, valid * tcol * tcol, valid * tcol * y)
        sums = [extend_sum(acc, term) for acc, term in zip(sums, terms)]
    if sums is None:
        raise CDATError(f"fold_trend_sums: variable {var.id!r} has no rows")
    acct.finish()
    return tuple(sums)  # type: ignore[return-value]


# -- windowed running mean with slab-boundary carry ------------------------


def fold_running_mean(
    var: Variable, dim: int, window: int, op: str = "running_mean"
) -> np.ma.MaskedArray:
    """Centred running mean along *dim* (window odd, edges masked).

    The cumulative sums are continued across slab boundaries from a
    carried last row, reproducing the whole-axis ``np.cumsum``
    formulation bitwise; only ``window + 1`` cumulative rows are live
    at any time.  The result has *dim* at axis 0.
    """
    n = var.shape[dim]
    half = window // 2
    acct = SlabAccounting(op)
    out_data = out_mask = None
    carry_s = carry_v = None
    live: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for start, _stop, block in iter_blocks(var, dim, op=op):
        valid = (~np.ma.getmaskarray(block)).astype(np.float64)
        filled = np.asarray(block.filled(0.0), dtype=np.float64)
        if out_data is None:
            spatial = block.shape[1:]
            out_data = np.zeros((n,) + spatial, dtype=np.float64)
            out_mask = np.ones((n,) + spatial, dtype=bool)
            carry_s = np.zeros(spatial, dtype=np.float64)
            carry_v = np.zeros(spatial, dtype=np.float64)
            live[0] = (carry_s, carry_v)
        # the whole-axis cumsum continued from the carried row, one add per row
        local_s = np.empty((filled.shape[0] + 1,) + spatial, dtype=np.float64)
        local_v = np.empty_like(local_s)
        local_s[0], local_v[0] = carry_s, carry_v
        for j in range(filled.shape[0]):
            local_s[j + 1] = local_s[j] + filled[j]
            local_v[j + 1] = local_v[j] + valid[j]
        acct.note(block, local_s, local_v)
        for j in range(1, local_s.shape[0]):
            hi = start + j  # cumulative-sum index: covers the first `hi` rows
            live[hi] = (local_s[j], local_v[j])
            lo = hi - window
            if lo < 0:
                continue
            s_lo, v_lo = live.pop(lo)
            core_valid = local_v[j] - v_lo
            with np.errstate(invalid="ignore", divide="ignore"):
                core = (local_s[j] - s_lo) / core_valid
            out_data[half + lo] = np.where(core_valid > 0, core, 0.0)
            out_mask[half + lo] = core_valid <= 0
        carry_s, carry_v = local_s[-1], local_v[-1]
    if out_data is None:
        raise CDATError(f"fold_running_mean: variable {var.id!r} has no rows")
    acct.finish()
    return np.ma.MaskedArray(out_data, mask=out_mask)


# -- weighted scalar statistics (pattern covariance and friends) ------------


class ScalarStats:
    """Weighted scalar moments over jointly valid (conditioned) points.

    The canonical kernel behind ``covariance`` / ``correlation`` /
    ``rms_difference`` / ``compare_where``: per-row term sums (each row
    is a whole row, so its internal pairwise sum is partition-
    independent) folded sequentially into Python floats, with weight
    normalisation applied once at the end.  Eager and streamed inputs
    therefore produce identical bits; versus the former whole-array
    formulation the values may drift by ~1 ulp.

    Weights are the area weights of *a*'s grid when present, else ones;
    points where any participating variable is masked — or where
    *condition* is falsy or masked — carry zero weight.
    """

    def __init__(
        self,
        a: Variable,
        b: Optional[Variable] = None,
        condition: Optional[Variable] = None,
        op: str = "scalar_stats",
    ) -> None:
        self.a, self.b, self.condition = a, b, condition
        self.op = op
        present = [v for v in (a, b, condition) if v is not None]
        driver = max(present, key=lambda v: v.slab_count())
        self.dim = slab_axis(driver)
        self._weights_full = self._build_weights(a)
        self._second: Optional[Tuple[float, float, float]] = None

        acct = SlabAccounting(op)
        wtot = count = swa = swb = sdd = sdiff = 0.0
        pos = 0
        for slabs in iter_aligned_slabs(*present):
            blocks = [np.moveaxis(s.data, self.dim, 0) for s in slabs]
            k = blocks[0].shape[0]
            wblock = self._weight_block(pos, pos + k, blocks[0].ndim)
            fa = np.asarray(blocks[0].filled(0.0), dtype=np.float64)
            va = ~np.ma.getmaskarray(blocks[0])
            fb = vb = None
            idx = 1
            if b is not None:
                fb = np.asarray(blocks[idx].filled(0.0), dtype=np.float64)
                vb = ~np.ma.getmaskarray(blocks[idx])
                idx += 1
            truth = None
            if condition is not None:
                cblock = blocks[idx]
                truth = np.asarray(cblock.filled(0.0)) != 0.0
                truth &= ~np.ma.getmaskarray(cblock)
            acct.note(*blocks)
            for j in range(k):
                valid = va[j]
                if vb is not None:
                    valid = valid & vb[j]
                if truth is not None:
                    valid = valid & truth[j]
                w = np.where(valid, wblock[j], 0.0)
                wtot += float(w.sum())
                count += float(valid.sum())
                swa += float((w * fa[j]).sum())
                if fb is not None:
                    swb += float((w * fb[j]).sum())
                    diff = np.where(valid, fa[j] - fb[j], 0.0)
                    sdd += float((w * diff * diff).sum())
                    sdiff += float(diff.sum())
            pos += k
        acct.finish()
        if wtot <= 0:
            raise CDATError("no jointly valid data points")
        self.wtot = wtot
        self.count = count
        self.mean_a = swa / wtot
        self.mean_b = swb / wtot if b is not None else self.mean_a
        self._sdd = sdd
        self._sdiff = sdiff

    # -- weights -----------------------------------------------------------

    @staticmethod
    def _build_weights(a: Variable) -> Optional[np.ndarray]:
        grid = a.get_grid()
        if grid is None:
            return None
        w2 = grid.area_weights()
        shape = [1] * a.ndim
        shape[a.axis_index("latitude")] = a.shape[a.axis_index("latitude")]
        shape[a.axis_index("longitude")] = a.shape[a.axis_index("longitude")]
        return np.broadcast_to(w2.reshape(shape), a.shape)

    def _weight_block(self, start: int, stop: int, ndim: int) -> np.ndarray:
        if self._weights_full is None:
            return np.ones((stop - start,) + (1,) * (ndim - 1))
        return np.moveaxis(self._weights_full, self.dim, 0)[start:stop]

    # -- second pass (centered products) ------------------------------------

    def _second_moments(self) -> Tuple[float, float, float]:
        if self._second is not None:
            return self._second
        a, b, condition = self.a, self.b, self.condition
        present = [v for v in (a, b, condition) if v is not None]
        acct = SlabAccounting(self.op + ".centered")
        saa = sbb = sab = 0.0
        ma, mb = self.mean_a, self.mean_b
        pos = 0
        for slabs in iter_aligned_slabs(*present):
            blocks = [np.moveaxis(s.data, self.dim, 0) for s in slabs]
            k = blocks[0].shape[0]
            wblock = self._weight_block(pos, pos + k, blocks[0].ndim)
            fa = np.asarray(blocks[0].filled(0.0), dtype=np.float64)
            va = ~np.ma.getmaskarray(blocks[0])
            fb = vb = None
            idx = 1
            if b is not None:
                fb = np.asarray(blocks[idx].filled(0.0), dtype=np.float64)
                vb = ~np.ma.getmaskarray(blocks[idx])
                idx += 1
            truth = None
            if condition is not None:
                cblock = blocks[idx]
                truth = np.asarray(cblock.filled(0.0)) != 0.0
                truth &= ~np.ma.getmaskarray(cblock)
            acct.note(*blocks)
            for j in range(k):
                valid = va[j]
                if vb is not None:
                    valid = valid & vb[j]
                if truth is not None:
                    valid = valid & truth[j]
                w = np.where(valid, wblock[j], 0.0)
                da = fa[j] - ma
                saa += float((w * da * da).sum())
                if fb is not None:
                    db = fb[j] - mb
                    sbb += float((w * db * db).sum())
                    sab += float((w * da * db).sum())
            pos += k
        acct.finish()
        if b is None:
            sbb = sab = saa
        self._second = (saa, sbb, sab)
        return self._second

    # -- derived statistics --------------------------------------------------

    def variance_a(self) -> float:
        return self._second_moments()[0] / self.wtot

    def covariance(self) -> float:
        return self._second_moments()[2] / self.wtot

    def rms_difference(self) -> float:
        if self.b is None:
            raise CDATError("rms_difference needs two variables")
        return float(np.sqrt(self._sdd / self.wtot))

    def mean_difference(self) -> float:
        if self.b is None:
            raise CDATError("mean_difference needs two variables")
        return self._sdiff / self.count
