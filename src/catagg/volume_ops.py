"""Spatial ops over 4D correlation volumes: conv4d, bilinear up/resampling.

Volumes are laid out ``[n1, n2, n3, n4, c]`` with the first axis pair
belonging to one image and the second pair to the other. conv4d uses
zero "same" padding so that stride-1 output matches the input extents;
with stride s the output extent per axis is ceil(n/s).
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, _make

__all__ = ["conv4d", "upsample4d_bilinear", "resize_bilinear2d", "interp_matrix"]


def _same_padding(n: int, k: int, s: int) -> tuple[int, int, int]:
    """(out_extent, pad_before, pad_after) for ceil-mode same padding."""
    out = -(-n // s)
    total = max((out - 1) * s + k - n, 0)
    before = total // 2
    return out, before, total - before


# Byte budget of one conv4d block: its folded input plus its accumulator and
# product rows (see _Plan). A block always holds at least one output row,
# whatever that costs.
_FOLD_BYTES = 1 << 19


def _span(e0: int, count: int, base: int, s: int, n: int):
    """Entries [e0, e0 + count) of a run whose entry e holds input index
    s*e + base: (slice into the run, slice into the input) for the entries
    that fall inside [0, n), or None if none do."""
    lo = max(e0, -(base // s))
    hi = min(e0 + count, (n - 1 - base) // s + 1)
    if hi <= lo:
        return None
    return slice(lo - e0, hi - e0), slice(s * lo + base, s * (hi - 1) + base + 1, s)


class _Block(NamedTuple):
    """What the passes over one block of axis-0 output rows [r0, r0 + r) run."""
    r0: int
    r: int
    grid_rows: int  # rows of the extended output grid that the r rows span
    moves: tuple    # (phase, slot, from slot): entries kept from the block before
    kept: tuple     # (phase, end phase, slots kept) per axis-0 phase
    fill: tuple     # (block index, input index): the input folded in
    views: tuple    # columns (tap, phase, start, stop, out start, out stop): the GEMMs
    unfold: tuple   # (block index, input index): the gradient added into dx


class _Plan:
    """How conv4d folds one geometry for GEMMs, one block of axis-0 output
    rows at a time. Built once per geometry by _plan and only read after.

    Tap t of an axis with stride s and leading pad pb reads input s*i + t - pb
    for output i. The last kernel axis folds into the channels: entry
    [..., i3, t3*cin + c] holds input column s3*i3 + t3 - pb3, so a GEMM
    contracts over k3*cin. Axes 0-2 are stored phase-major: with
    t - pb = s*(q0 + d) + p, entry [p][e] holds input s*(q0 + e) + p, and tap
    t reads the unit-stride run e = i + d of phase p. Flattened to rows
    (e0, e1, e2, i3), a phase block then serves each tap as one contiguous
    row range, shifted by (d1*E2 + d2)*o3 within an axis-0 entry. Its
    products land on an extended E1 x E2 grid of which the first o1 x o2 are
    kept. Along axes 1-3 entries outside the volume stay zero; along axis 0 a
    block stores only the entries inside it, and each tap skips the output
    rows whose entry lies outside. No padded copy of the input is made.

    The block buffer (see _Fold) is [phase, slot, E1, E2, o3, k3*cin], with
    the phases (p0, p1, p2) in row-major order. Per block, `blocks` holds
    every slot move, copy, GEMM view and add of a pass as ints and index
    tuples, so a pass only walks them. The per-tap and last-axis tables
    these come from are not kept: cold plans are built inside the forward
    whose peak c7 compares.
    """

    def __init__(self, ns, cin, cout, ks, stride, outs, pb, dtype, budget):
        self.ns, self.stride, self.outs, self.dtype = ns, stride, outs, dtype
        self.width = ks[3] * cin
        self.split = (ks[3], cin)
        self.bases, ext, axis_taps = [], [], []
        for k, s, o, b in zip(ks[:3], stride, outs, pb):
            q0 = -b // s
            pd = [((t - b) % s, (t - b) // s - q0) for t in range(k)]
            phases = sorted({p for p, _ in pd})
            axis_taps.append([(phases.index(p), d) for p, d in pd])
            self.bases.append([s * q0 + p for p in phases])
            ext.append(o + pd[-1][1])
        self.ext = tuple(ext)
        self.halo = ext[0] - outs[0]
        # axis-0 entries [lo, hi) that lie inside the volume, per phase
        self.inside = [(-(b // stride[0]), (ns[0] - 1 - b) // stride[0] + 1)
                       for b in self.bases[0]]
        e2, o3 = ext[2], outs[3]
        self.plane = ext[1] * e2 * o3  # GEMM rows per axis-0 entry
        self.tail = ((outs[1] - 1) * e2 + outs[2]) * o3  # of them, rows an output row reads
        n1, n2 = len(self.bases[1]), len(self.bases[2])
        self.per0 = n1 * n2  # phases per axis-0 phase
        # per tap, in kernel order: (phase, axis-0 run offset, row shift)
        taps = [((a[0] * n1 + b[0]) * n2 + c[0], a[1], (b[1] * e2 + c[1]) * o3)
                for a, b, c in itertools.product(*axis_taps)]
        # per output row: one axis-0 entry of folded input, plus an
        # accumulator row and a product row of the extended output grid
        item = np.dtype(dtype).itemsize
        nph = len(self.bases[0]) * self.per0
        entry = nph * self.plane * self.width * item
        per_row = entry + 2 * self.plane * cout * item
        self.rows = min(outs[0], max(1, (budget - self.halo * entry) // per_row))
        slots = min(self.rows + self.halo, max(hi - lo for lo, hi in self.inside))
        self.shape = (nph, slots) + self.ext[1:] + (o3, self.width)
        # axis 3: per tap, the output columns that read the volume and their
        # input columns
        cols = [(t3,) + sp for t3 in range(ks[3])
                if (sp := _span(0, o3, t3 - pb[3], stride[3], ns[3])) is not None]
        # a unit-stride conv's dx is a folded conv of its own, so only
        # strided plans unfold
        unit = stride == (1, 1, 1, 1)
        blocks = []
        for r0 in range(0, outs[0], self.rows):
            r = min(self.rows, outs[0] - r0)
            fill = (r0 + self.halo if r0 else 0, r0 + r + self.halo)
            unfold = (r0, r0 + r + (self.halo if r0 + r == outs[0] else 0))
            pieces = self._pieces(cols, r0, *fill)
            blocks.append(_Block(
                r0, r, (r - 1) * self.plane + self.tail, *self._shift(r0), pieces,
                self._views(taps, r0, r),
                () if unit else pieces if unfold == fill else self._pieces(cols, r0, *unfold)))
        self.blocks = tuple(blocks)

    def _views(self, taps: list, r0: int, r: int) -> tuple:
        """(tap, phase, start, stop, out start, out stop) for every tap that
        reads the volume, as six int64 columns (compact, and read with zip):
        rows [start, stop) of its phase's flattened block feed rows
        [out start, out stop) of the extended output grid."""
        views = tuple(array("q") for _ in range(6))
        for k, (ph, d0, shift) in enumerate(taps):
            lo, hi = self.inside[ph // self.per0]
            a, b = max(r0, lo - d0), min(r0 + r, hi - d0)
            if a < b:
                start = (a + d0 - max(r0, lo)) * self.plane + shift
                out0, n = (a - r0) * self.plane, (b - a - 1) * self.plane + self.tail
                for column, v in zip(views, (k, ph, start, start + n, out0, out0 + n)):
                    column.append(v)
        return views

    def _pieces(self, cols: list, r0: int, e_lo: int, e_hi: int) -> tuple:
        """(block index, input index) pairs that cover axis-0 entries
        [e_lo, e_hi) of the block of output rows from r0, one per phase and
        last-axis tap, each over the entries inside the volume."""
        pieces = []
        for p, ph in enumerate(itertools.product(*(range(len(b)) for b in self.bases))):
            spans = [
                _span(e0, count, bases[i], s, n)
                for e0, count, bases, i, s, n in zip(
                    (e_lo, 0, 0), (e_hi - e_lo,) + self.ext[1:],
                    self.bases, ph, self.stride, self.ns)
            ]
            if None in spans:
                continue
            slot0 = e_lo - max(r0, self.inside[ph[0]][0])
            rows = spans[0][0]
            dst = (p, slice(rows.start + slot0, rows.stop + slot0)) + tuple(
                sp[0] for sp in spans[1:])
            src = tuple(sp[1] for sp in spans)
            for t3, run, xrun in cols:
                pieces.append((dst + (run, t3), src + (xrun,)))
        return tuple(pieces)

    def _shift(self, r0: int) -> tuple[tuple, tuple]:
        """For the block of output rows from r0, in a pass that walks the
        blocks in order: the moves that bring the entries it shares with the
        block before to the front of each phase's slots, one slot at a time
        so that no copy overlaps its source; and per axis-0 phase, its range
        of phases and how many slots moved."""
        moves, kept = [], []
        for i, (lo, hi) in enumerate(self.inside):
            first, before = max(r0, lo), max(r0 - self.rows, lo)
            n = max(0, min(r0 + self.halo, hi) - first) if r0 else 0
            phases = range(i * self.per0, (i + 1) * self.per0)
            moves += [(p, j, j + first - before) for p in phases for j in range(n)]
            kept.append((phases.start, phases.stop, n))
        return tuple(moves), tuple(kept)


@lru_cache(maxsize=128)
def _plan(ns, cin, cout, ks, stride, outs, pb, dtype, budget) -> _Plan:
    """The cached _Plan of one geometry, dtype and block budget."""
    return _Plan(ns, cin, cout, ks, stride, outs, pb, dtype, budget)


class _Fold:
    """One call's zeroed block buffer for a _Plan: a [rows, k3*cin] view per
    phase, and a view with the last axis split into (k3, cin) for copies."""

    def __init__(self, plan: _Plan):
        self.buf = np.zeros(plan.shape, plan.dtype)
        self.flat = [b.reshape(-1, plan.width) for b in self.buf]
        self.taps3 = self.buf.reshape(plan.shape[:-1] + plan.split)
        self.width = plan.width

    def kernel_taps(self, kd: np.ndarray) -> list:
        """The [k3*cin, cout] kernel matrix of each tap, in tap order, in the
        block's dtype."""
        kf = np.ascontiguousarray(kd, dtype=self.buf.dtype)
        return list(kf.reshape((-1, self.width, kd.shape[5])))

    def _move(self, blk: _Block):
        buf = self.buf
        for p, j, i in blk.moves:
            buf[p, j] = buf[p, i]

    def fill(self, x: np.ndarray, blk: _Block):
        """Fold the input windows of the block's output rows into the buffer.
        Fill only writes entries inside the volume, so it is the first pass
        over a fresh, zeroed buffer."""
        self._move(blk)
        taps3 = self.taps3
        for dst, src in blk.fill:
            taps3[dst] = x[src]

    def start(self, blk: _Block):
        """Begin a block in a pass that accumulates a gradient of the folded
        input: shared entries move, the rest is zeroed."""
        self._move(blk)
        for a, b, n in blk.kept:
            self.buf[a:b, n:] = 0

    def unfold_add(self, dx: np.ndarray, blk: _Block):
        """Add the buffer, read as a gradient of the folded input, into dx:
        the entries that no later block of the pass touches (all, at the
        last)."""
        taps3 = self.taps3
        for dst, src in blk.unfold:
            dx[src] += taps3[dst]


def _folded_conv(x: np.ndarray, kd: np.ndarray, plan: _Plan) -> np.ndarray:
    """Cross-correlation of x with kernel kd on the plan's output grid and
    leading pads, block by block."""
    cout, outs = kd.shape[5], plan.outs
    fold = _Fold(plan)
    kts, flat = fold.kernel_taps(kd), fold.flat
    acc = np.empty((plan.rows * plan.plane, cout), dtype=x.dtype)
    prod = np.empty_like(acc)
    out = np.empty(outs + (cout,), dtype=x.dtype)
    for blk in plan.blocks:
        fold.fill(x, blk)
        acc[: blk.grid_rows] = 0
        for k, p, a, b, o0, o1 in zip(*blk.views):
            z = prod[: b - a]
            np.dot(flat[p][a:b], kts[k], out=z)
            acc[o0:o1] += z
        r0, r = blk.r0, blk.r
        grid = acc[: r * plan.plane].reshape((r,) + plan.ext[1:] + (outs[3], cout))
        out[r0 : r0 + r] = grid[:, : outs[1], : outs[2]]
    return out


def conv4d(x: Tensor, kernel: Tensor, stride=(1, 1, 1, 1)) -> Tensor:
    """Cross-correlate a [n1,n2,n3,n4,cin] volume with a [k1,k2,k3,k4,cin,cout] kernel.

    Kernel extents must be odd; strides >= 1. The last kernel axis is folded
    into the GEMM's inner extent (k4*cin), and the input is folded that way
    one block of axis-0 output rows at a time (see _Plan), so each of the
    k1*k2*k3 remaining taps is one GEMM on a view of the block. Each
    geometry's plan (its blocks, copies and GEMM views) is built once and
    cached, keyed by shapes, stride, dtype and the block budget; a call only
    walks it. The VJP runs dk through the same blocks. For stride 1, dx is
    the same folded conv of the output gradient with the flipped,
    channel-swapped kernel and leading pads k-1-pb; otherwise each block's
    gradient is a GEMM against the transposed kernel, added back into dx
    slice by slice.
    """
    if x.ndim != 5:
        raise DimensionError(f"conv4d: input must be rank 5, got {x.shape}")
    if kernel.ndim != 6:
        raise DimensionError(f"conv4d: kernel must be rank 6, got {kernel.shape}")
    ks = kernel.shape[:4]
    cin, cout = kernel.shape[4], kernel.shape[5]
    if x.shape[4] != cin:
        raise DimensionError(f"conv4d: channels {x.shape[4]} vs kernel cin {cin}")
    if any(k % 2 == 0 or k < 1 for k in ks):
        raise DimensionError(f"conv4d: kernel extents must be odd, got {ks}")
    stride = tuple(int(s) for s in stride)
    if len(stride) != 4 or any(s < 1 for s in stride):
        raise DimensionError(f"conv4d: bad stride {stride}")

    ns = x.shape[:4]
    outs, pb, _ = zip(*(_same_padding(n, k, s) for n, k, s in zip(ns, ks, stride)))
    xd, kd = x.data, kernel.data
    plan = _plan(ns, cin, cout, ks, stride, outs, pb, xd.dtype, _FOLD_BYTES)
    out = _folded_conv(xd, kd, plan)

    unit = stride == (1, 1, 1, 1)

    def vjp(g):
        g = g.astype(xd.dtype, copy=False)
        if unit:
            flipped = kd[::-1, ::-1, ::-1, ::-1].swapaxes(4, 5)
            dx = _folded_conv(g, flipped, _plan(
                ns, cout, cin, ks, stride, ns, tuple(k - 1 - b for k, b in zip(ks, pb)),
                xd.dtype, _FOLD_BYTES))
        else:
            dx = np.zeros_like(xd)
        fold = _Fold(plan)
        flat = fold.flat
        dk = np.zeros(ks[:3] + (plan.width, cout), dtype=xd.dtype)
        dks = dk.reshape(-1, plan.width, cout)
        dkt = np.empty((plan.width, cout), dtype=xd.dtype)
        gext = np.zeros((plan.rows,) + plan.ext[1:] + (outs[3], cout), dtype=xd.dtype)
        gm = gext.reshape(-1, cout)
        for blk in plan.blocks:
            gext[: blk.r, : outs[1], : outs[2]] = g[blk.r0 : blk.r0 + blk.r]
            fold.fill(xd, blk)
            for k, p, a, b, o0, o1 in zip(*blk.views):
                np.dot(flat[p][a:b].T, gm[o0:o1], out=dkt)
                dks[k] += dkt
        if not unit:
            kts = fold.kernel_taps(kd)
            dzt = np.empty((plan.rows * plan.plane, plan.width), dtype=xd.dtype)
            for blk in plan.blocks:
                gext[: blk.r, : outs[1], : outs[2]] = g[blk.r0 : blk.r0 + blk.r]
                fold.start(blk)
                for k, p, a, b, o0, o1 in zip(*blk.views):
                    d = dzt[: b - a]
                    np.dot(gm[o0:o1], kts[k].T, out=d)
                    z = flat[p][a:b]
                    z += d
                fold.unfold_add(dx, blk)
        return dx, dk.reshape(kd.shape).astype(kd.dtype, copy=False)

    return _make(out, "conv4d", (x, kernel), vjp)


def _linear_taps(src: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Border-clamped linear taps on an axis of extent n: the value at
    fractional position src is (1 - t) * f[lo] + t * f[hi]."""
    src = np.clip(src, 0.0, n - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    return lo, hi, src - lo


@lru_cache(maxsize=256)
def _interp_rows(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-pixel-center linear interpolation taps mapping n_in -> n_out."""
    return _linear_taps((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, n_in)


def interp_matrix(n_out: int, n_in: int, dtype=np.float32) -> np.ndarray:
    """Dense [n_out, n_in] linear interpolation matrix (rows sum to 1)."""
    lo, hi, t = _interp_rows(n_out, n_in)
    m = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    np.add.at(m, (rows, lo), 1.0 - t)
    np.add.at(m, (rows, hi), t)
    return m.astype(dtype)


def _apply_axis(data: np.ndarray, m: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(m, data, axes=(1, axis))
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


def _resize_axes(x: Tensor, targets: dict[int, int], op_name: str) -> Tensor:
    dt = x.data.dtype
    mats = {ax: interp_matrix(n_out, x.shape[ax], dt) for ax, n_out in targets.items()}
    out = x.data
    for ax, m in mats.items():
        out = _apply_axis(out, m, ax)

    def vjp(g):
        d = g
        for ax, m in mats.items():
            d = _apply_axis(d, m.T, ax)
        return (d,)

    return _make(out, op_name, (x,), vjp)


def upsample4d_bilinear(x: Tensor, factor: int) -> Tensor:
    """Separable bilinear upsampling of all four spatial axes of a volume."""
    if x.ndim != 5:
        raise DimensionError(f"upsample4d: input must be rank 5, got {x.shape}")
    factor = int(factor)
    if factor < 1:
        raise DimensionError(f"upsample4d: factor must be >= 1, got {factor}")
    targets = {ax: x.shape[ax] * factor for ax in range(4)}
    return _resize_axes(x, targets, "upsample4d")


def resize_bilinear2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Bilinear resize of the leading (h, w) axes of an [h, w, ...] tensor."""
    if x.ndim < 2:
        raise DimensionError(f"resize2d: input must be rank >= 2, got {x.shape}")
    h, w = int(out_hw[0]), int(out_hw[1])
    if h < 1 or w < 1:
        raise DimensionError(f"resize2d: bad target {out_hw}")
    return _resize_axes(x, {0: h, 1: w}, "resize2d")
