"""Soft-argmax flow extraction, keypoint transfer, AEPE loss, PCK metric.

A correlation row is turned into a displacement by taking the probability-
weighted centroid of target grid positions and subtracting the source
position. Displacements live in grid cells with (dx, dy) ordering; pixel
conversions use the cell-center convention px = (g + 0.5) * W / w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ArgumentError, DimensionError, NumericError, read_lines
from .tensor import Tensor
from .tensor_io import atomic_write
from .volume_ops import _linear_taps

__all__ = ["FlowField", "KeypointSet", "soft_argmax_flow", "hard_argmax_flow",
           "transfer_keypoints", "aepe", "pck", "read_keypoints",
           "write_keypoints", "pixel_to_grid", "grid_to_pixel"]


@dataclass
class FlowField:
    """Dense displacement field in grid cells, channels ordered (dx, dy)."""

    grid: Tensor

    def __post_init__(self):
        if self.grid.ndim != 3 or self.grid.shape[-1] != 2:
            raise DimensionError(
                f"flow field must be [h, w, 2], got {self.grid.shape}")

    @property
    def resolution(self) -> tuple[int, int]:
        return self.grid.shape[:2]


@dataclass
class KeypointSet:
    """(x, y) pixel annotations on an image of extents (H, W)."""

    points: np.ndarray
    extents: tuple[int, int]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise DimensionError(
                f"keypoints must be [n, 2], got {self.points.shape}")
        h, w = self.extents
        x, y = self.points[:, 0], self.points[:, 1]
        if np.any((x < 0) | (x >= w) | (y < 0) | (y >= h)):
            raise ArgumentError(
                f"keypoints must lie inside [0,{w})x[0,{h})")

    def __len__(self) -> int:
        return len(self.points)


def pixel_to_grid(px: np.ndarray, n_px: int, n_cells: int) -> np.ndarray:
    """Pixel coordinate -> fractional grid coordinate (cell centers)."""
    return np.asarray(px, dtype=np.float64) * n_cells / n_px - 0.5


def grid_to_pixel(g: np.ndarray, n_px: int, n_cells: int) -> np.ndarray:
    return (np.asarray(g, dtype=np.float64) + 0.5) * n_px / n_cells


def _positions(h: int, w: int, dtype) -> np.ndarray:
    """[h*w, 2] grid coordinates in (x, y) order, row-major token layout."""
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(dtype)


def _as_square_map(c: Tensor) -> tuple[Tensor, int, int]:
    """[h, w, h, w] volume -> [h*w, h*w] rows of one source cell each."""
    if c.ndim != 4 or c.shape[:2] != c.shape[2:]:
        raise DimensionError(
            f"flow needs a [h, w, h, w] volume, got {c.shape}")
    h, w = c.shape[:2]
    return tt.reshape(c, (h * w, h * w)), h, w


def soft_argmax_flow(c: Tensor, beta: float = 20.0) -> FlowField:
    """Displacement per source cell: softmax(beta*row)-weighted target centroid.

    `c` is an [h, w, h, w] volume scoring every source cell (first axis
    pair) against every target cell (second pair) of one h x w grid.
    Differentiable in c; each output lies in the convex hull of grid
    coordinates by construction.
    """
    if beta <= 0:
        raise ArgumentError(f"beta must be positive, got {beta}")
    if not np.isfinite(c.data).all():
        raise NumericError("soft_argmax_flow: non-finite correlation scores")
    flat, h, w = _as_square_map(c)
    pos = Tensor(_positions(h, w, flat.data.dtype))
    probs = tt.softmax(tt.scale(flat, float(beta)), axis=-1)
    expected = tt.matmul(probs, pos)
    return FlowField(tt.reshape(tt.sub(expected, pos), (h, w, 2)))


def hard_argmax_flow(c: Tensor) -> FlowField:
    """Winner-take-all displacement over an [h, w, h, w] volume: argmax
    target cell minus source cell."""
    flat, h, w = _as_square_map(c)
    pos = _positions(h, w, np.float64)
    best = np.argmax(flat.data, axis=-1)
    disp = (pos[best] - pos).reshape(h, w, 2)
    return FlowField(Tensor(disp.astype(flat.data.dtype)))


def _sample_bilinear(field: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Border-clamped bilinear read of [h,w,c] at fractional grid coords."""
    h, w = field.shape[:2]
    x0, x1, fx = _linear_taps(gx, w)
    y0, y1, fy = _linear_taps(gy, h)
    fx, fy = fx[:, None], fy[:, None]
    top = field[y0, x0] * (1 - fx) + field[y0, x1] * fx
    bot = field[y1, x0] * (1 - fx) + field[y1, x1] * fx
    return top * (1 - fy) + bot * fy


def transfer_keypoints(flow: FlowField, kps: KeypointSet) -> KeypointSet:
    """Map source keypoints through the flow field into the target image.

    Keypoints scale to grid coordinates, the field is read bilinearly, the
    displacement is added, and the result scales back to pixels (clamped
    inside the image so the output is a valid keypoint set).
    """
    hp, wp = kps.extents
    h, w = flow.resolution
    gx = pixel_to_grid(kps.points[:, 0], wp, w)
    gy = pixel_to_grid(kps.points[:, 1], hp, h)
    disp = _sample_bilinear(np.asarray(flow.grid.data, dtype=np.float64), gx, gy)
    px = grid_to_pixel(gx + disp[:, 0], wp, w)
    py = grid_to_pixel(gy + disp[:, 1], hp, h)
    eps = 1e-6
    out = np.stack([np.clip(px, 0.0, wp - eps), np.clip(py, 0.0, hp - eps)], axis=1)
    return KeypointSet(out, kps.extents)


def aepe(pred: FlowField, gt: FlowField) -> Tensor:
    """Mean Euclidean distance between displacement fields (differentiable)."""
    if pred.resolution != gt.resolution:
        raise DimensionError(
            f"resolution mismatch {pred.resolution} vs {gt.resolution}")
    return tt.tmean(tt.l2norm_last(tt.sub(pred.grid, gt.grid)))


def pck(pred: KeypointSet, gt: KeypointSet, alpha: float = 0.1) -> float:
    """Fraction of keypoints within alpha * max image extent of their annotation."""
    if alpha <= 0:
        raise ArgumentError(f"alpha must be positive, got {alpha}")
    if len(pred) != len(gt):
        raise ArgumentError(
            f"keypoint count mismatch {len(pred)} vs {len(gt)}")
    if len(gt) == 0:
        raise ArgumentError("empty keypoint sets")
    ref = float(max(gt.extents))
    d = np.sqrt(((pred.points - gt.points) ** 2).sum(axis=1))
    return float((d <= alpha * ref).mean())


def write_keypoints(path, kps: KeypointSet):
    """Text format: header `H W`, then one `x y` line per point."""
    h, w = kps.extents
    lines = [f"{h} {w}"]
    for x, y in kps.points:
        lines.append(f"{float(x)!r} {float(y)!r}")
    with atomic_write(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_keypoints(path) -> KeypointSet:
    raw = [ln.strip() for ln in read_lines(path, ArgumentError) if ln.strip()]
    if not raw:
        raise ArgumentError(f"empty keypoint file {path}")
    head = raw[0].split()
    if len(head) != 2:
        raise ArgumentError(f"bad keypoint header {raw[0]!r}")
    try:
        extents = (int(head[0]), int(head[1]))
        pts = [[float(v) for v in ln.split()] for ln in raw[1:]]
    except ValueError as e:
        raise ArgumentError(f"malformed keypoint file {path}") from e
    if any(len(p) != 2 for p in pts):
        raise ArgumentError(f"malformed keypoint line in {path}")
    return KeypointSet(np.array(pts, dtype=np.float64).reshape(-1, 2), extents)
