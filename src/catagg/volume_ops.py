"""Spatial ops over 4D correlation volumes: conv4d, bilinear up/resampling.

Volumes are laid out ``[n1, n2, n3, n4, c]`` with the first axis pair
belonging to one image and the second pair to the other. conv4d uses
zero "same" padding so that stride-1 output matches the input extents;
with stride s the output extent per axis is ceil(n/s).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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
# product rows (see _Fold). A block always holds at least one output row,
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


class _Fold:
    """A conv4d input folded for GEMMs, one block of axis-0 output rows at a time.

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
    """

    def __init__(self, ns, cin, cout, ks, stride, outs, pb, dtype):
        self.ns, self.stride, self.outs = ns, stride, outs
        self.width = ks[3] * cin
        self.bases, self.ext, axis_taps = [], [], []
        for k, s, o, b in zip(ks[:3], stride, outs, pb):
            q0 = -b // s
            pd = [((t - b) % s, (t - b) // s - q0) for t in range(k)]
            phases = sorted({p for p, _ in pd})
            axis_taps.append([(phases.index(p), d) for p, d in pd])
            self.bases.append([s * q0 + p for p in phases])
            self.ext.append(o + pd[-1][1])
        self.halo = self.ext[0] - outs[0]
        # axis-0 entries [lo, hi) that lie inside the volume, per phase
        self.inside = [(-(b // stride[0]), (ns[0] - 1 - b) // stride[0] + 1)
                       for b in self.bases[0]]
        e2, o3 = self.ext[2], outs[3]
        self.plane = self.ext[1] * e2 * o3  # GEMM rows per axis-0 entry
        self.tail = ((outs[1] - 1) * e2 + outs[2]) * o3  # of them, rows an output row reads
        self.taps = [
            (t, (a[0], b[0], c[0]), a[1], (b[1] * e2 + c[1]) * o3)
            for t, (a, b, c) in zip(itertools.product(*map(range, ks[:3])),
                                    itertools.product(*axis_taps))
        ]
        nph = [len(b) for b in self.bases]
        # per output row: one axis-0 entry of folded input, plus an
        # accumulator row and a product row of the extended output grid
        item = np.dtype(dtype).itemsize
        entry = int(np.prod(nph)) * self.plane * self.width * item
        per_row = entry + 2 * self.plane * cout * item
        self.rows = min(outs[0], max(1, (_FOLD_BYTES - self.halo * entry) // per_row))
        slots = min(self.rows + self.halo, max(hi - lo for lo, hi in self.inside))
        self.buf = np.zeros(nph + [slots] + self.ext[1:] + [o3, self.width], dtype)
        self.flat = {ph: self.buf[ph].reshape(-1, self.width)
                     for ph in itertools.product(*map(range, nph))}
        self.taps3 = self.buf.reshape(self.buf.shape[:-1] + (ks[3], cin))
        # axis 3: per tap, the output columns that read the volume and their
        # input columns
        self.cols = [(t3,) + sp for t3 in range(ks[3])
                     if (sp := _span(0, o3, t3 - pb[3], stride[3], ns[3])) is not None]

    def kernel_taps(self, kd: np.ndarray) -> list:
        """The [k3*cin, cout] kernel matrix of each tap, in tap order, in the
        block's dtype."""
        kf = np.ascontiguousarray(kd, dtype=self.buf.dtype)
        kf = kf.reshape(kd.shape[:3] + (self.width, kd.shape[5]))
        return [kf[t] for t, _, _, _ in self.taps]

    def blocks(self):
        for r0 in range(0, self.outs[0], self.rows):
            yield r0, min(self.rows, self.outs[0] - r0)

    def grid_rows(self, r: int) -> int:
        """Rows of the extended output grid that r output rows span."""
        return (r - 1) * self.plane + self.tail

    def views(self, r0: int, r: int):
        """(tap number, its [n, k3*cin] view of the block, the n rows of the
        extended output grid it feeds) for every tap that reads the volume."""
        for k, (_, ph, d0, shift) in enumerate(self.taps):
            lo, hi = self.inside[ph[0]]
            a, b = max(r0, lo - d0), min(r0 + r, hi - d0)
            if a < b:
                start, n = (a + d0 - max(r0, lo)) * self.plane + shift, self.grid_rows(b - a)
                out0 = (a - r0) * self.plane
                yield k, self.flat[ph][start : start + n], slice(out0, out0 + n)

    def _pieces(self, r0: int, e_lo: int, e_hi: int):
        """(block index, input index) pairs that cover axis-0 entries
        [e_lo, e_hi) of the block of output rows from r0, one per phase and
        last-axis tap, each over the entries inside the volume."""
        for ph in itertools.product(*(range(len(b)) for b in self.bases)):
            spans = [
                _span(e0, count, bases[i], s, n)
                for e0, count, bases, i, s, n in zip(
                    (e_lo, 0, 0), (e_hi - e_lo,) + tuple(self.ext[1:]),
                    self.bases, ph, self.stride, self.ns)
            ]
            if None in spans:
                continue
            slot0 = e_lo - max(r0, self.inside[ph[0]][0])
            rows = spans[0][0]
            dst = ph + (slice(rows.start + slot0, rows.stop + slot0),) + tuple(
                sp[0] for sp in spans[1:])
            src = tuple(sp[1] for sp in spans)
            for t3, cols, xcols in self.cols:
                yield dst + (cols, t3), src + (xcols,)

    def _shift(self, r0: int) -> list:
        """For the block of output rows from r0, in a pass that walks the blocks
        in order: move the entries it shares with the block before to the front
        of each axis-0 phase's slots, one slot at a time so that no copy
        overlaps its source. Returns how many moved, per axis-0 phase."""
        kept = []
        for i, (lo, hi) in enumerate(self.inside):
            first, before = max(r0, lo), max(r0 - self.rows, lo)
            n = max(0, min(r0 + self.halo, hi) - first) if r0 else 0
            for ph in self.flat:
                if ph[0] == i:
                    slots = self.buf[ph]
                    for j in range(n):
                        slots[j] = slots[j + first - before]
            kept.append(n)
        return kept

    def fill(self, x: np.ndarray, r0: int, r: int):
        """Fold the input windows of output rows [r0, r0 + r) into the block.
        Fill only writes entries inside the volume, so it is the first pass
        over a fresh, zeroed block."""
        self._shift(r0)
        for dst, src in self._pieces(r0, r0 + self.halo if r0 else 0, r0 + r + self.halo):
            self.taps3[dst] = x[src]

    def start(self, r0: int):
        """Begin the block of output rows from r0 in a pass that accumulates a
        gradient of the folded input: shared entries move, the rest is zeroed."""
        for block, n in zip(self.buf, self._shift(r0)):
            block[:, :, n:] = 0

    def unfold_add(self, dx: np.ndarray, r0: int, r: int):
        """Add the block, read as a gradient of the folded input, into dx: the
        entries that no later block of the pass touches (all, at the last)."""
        e_hi = r0 + r if r0 + r < self.outs[0] else r0 + r + self.halo
        for dst, src in self._pieces(r0, r0, e_hi):
            dx[src] += self.taps3[dst]


def _folded_conv(x: np.ndarray, kd: np.ndarray, stride, outs, pb) -> np.ndarray:
    """Cross-correlation of x with kernel kd on the given output grid and
    leading pads, block by block through one _Fold."""
    cout = kd.shape[5]
    fold = _Fold(x.shape[:4], x.shape[4], cout, kd.shape[:4], stride, outs, pb, x.dtype)
    kts = fold.kernel_taps(kd)
    acc = np.empty((fold.rows * fold.plane, cout), dtype=x.dtype)
    prod = np.empty_like(acc)
    out = np.empty(tuple(outs) + (cout,), dtype=x.dtype)
    for r0, r in fold.blocks():
        fold.fill(x, r0, r)
        acc[: fold.grid_rows(r)] = 0
        for k, z, rows in fold.views(r0, r):
            p = prod[: len(z)]
            np.dot(z, kts[k], out=p)
            acc[rows] += p
        grid = acc[: r * fold.plane].reshape((r,) + tuple(fold.ext[1:]) + (outs[3], cout))
        out[r0 : r0 + r] = grid[:, : outs[1], : outs[2]]
    return out


def conv4d(x: Tensor, kernel: Tensor, stride=(1, 1, 1, 1)) -> Tensor:
    """Cross-correlate a [n1,n2,n3,n4,cin] volume with a [k1,k2,k3,k4,cin,cout] kernel.

    Kernel extents must be odd; strides >= 1. The last kernel axis is folded
    into the GEMM's inner extent (k4*cin), and the input is folded that way
    one block of axis-0 output rows at a time (see _Fold), so each of the
    k1*k2*k3 remaining taps is one GEMM on a view of the block. The VJP runs
    dk through the same blocks. For stride 1, dx is the same folded conv of
    the output gradient with the flipped, channel-swapped kernel and leading
    pads k-1-pb; otherwise each block's gradient is a GEMM against the
    transposed kernel, added back into dx slice by slice.
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
    out = _folded_conv(xd, kd, stride, outs, pb)

    unit = stride == (1, 1, 1, 1)

    def vjp(g):
        g = g.astype(xd.dtype, copy=False)
        if unit:
            flipped = kd[::-1, ::-1, ::-1, ::-1].swapaxes(4, 5)
            dx = _folded_conv(g, flipped, stride, ns,
                              tuple(k - 1 - b for k, b in zip(ks, pb)))
        else:
            dx = np.zeros_like(xd)
        fold = _Fold(ns, cin, cout, ks, stride, outs, pb, xd.dtype)
        kts = fold.kernel_taps(kd)
        dk = np.zeros(ks[:3] + (fold.width, cout), dtype=xd.dtype)
        dkt = np.empty((fold.width, cout), dtype=xd.dtype)
        gext = np.zeros((fold.rows,) + tuple(fold.ext[1:]) + (outs[3], cout), dtype=xd.dtype)
        gm = gext.reshape(-1, cout)
        for r0, r in fold.blocks():
            gext[:r, : outs[1], : outs[2]] = g[r0 : r0 + r]
            fold.fill(xd, r0, r)
            for k, z, rows in fold.views(r0, r):
                np.dot(z.T, gm[rows], out=dkt)
                dk[fold.taps[k][0]] += dkt
        if not unit:
            dzt = np.empty((fold.rows * fold.plane, fold.width), dtype=xd.dtype)
            for r0, r in fold.blocks():
                gext[:r, : outs[1], : outs[2]] = g[r0 : r0 + r]
                fold.start(r0)
                for k, z, rows in fold.views(r0, r):
                    p = dzt[: len(z)]
                    np.dot(gm[rows], kts[k].T, out=p)
                    z += p
                fold.unfold_add(dx, r0, r)
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
