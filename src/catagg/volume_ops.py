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


def conv4d(x: Tensor, kernel: Tensor, stride=(1, 1, 1, 1)) -> Tensor:
    """Cross-correlate a [n1,n2,n3,n4,cin] volume with a [k1,k2,k3,k4,cin,cout] kernel.

    Kernel extents must be odd; strides >= 1. Implemented as a
    shift-and-accumulate over kernel offsets so each tap is one GEMM.
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
    outs, pb, pa = zip(*(_same_padding(n, k, s) for n, k, s in zip(ns, ks, stride)))
    pad = [(pb[i], pa[i]) for i in range(4)] + [(0, 0)]
    xp = np.pad(x.data, pad)
    kd = kernel.data

    out = np.zeros((int(np.prod(outs)), cout), dtype=x.data.dtype)
    offsets = list(itertools.product(*(range(k) for k in ks)))
    slices = {}
    for off in offsets:
        sl = tuple(
            slice(o, o + (outs[i] - 1) * stride[i] + 1, stride[i])
            for i, o in enumerate(off)
        )
        patch = xp[sl]
        slices[off] = sl
        out += patch.reshape(-1, cin) @ kd[off]
    out = out.reshape(outs + (cout,))
    xd = x.data  # the padded copy is rebuilt in backward rather than held

    def vjp(g):
        xp = np.pad(xd, pad)
        gm = g.reshape(-1, cout)
        dk = np.zeros_like(kd)
        dxp = np.zeros(xp.shape, dtype=g.dtype)
        for off in offsets:
            sl = slices[off]
            patch = xp[sl].reshape(-1, cin)
            dk[off] = patch.T @ gm
            dxp[sl] += (gm @ kd[off].T).reshape(outs + (cin,))
        crop = tuple(slice(pb[i], pb[i] + ns[i]) for i in range(4))
        return np.ascontiguousarray(dxp[crop]), dk

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
