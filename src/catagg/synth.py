"""Synthetic correspondence pairs with exact dense ground truth.

A smooth random image is warped by a bounded random affine; because the
warp is analytic, the true displacement field is known exactly at every
grid resolution (sampled at cell centers, never resampled from a finer
flow). Bounds keep scale in [0.8, 1.25], rotation within 20 degrees and
translation within 10% of the image, shrinking toward identity as the
magnitude parameter goes to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .flow import FlowField, _sample_bilinear, grid_to_pixel
from .tensor import Tensor

__all__ = ["SyntheticPair", "random_affine", "smooth_image", "warp_image",
           "affine_gt_flow", "generate_pair"]

IMAGE_SIZE = 128
IMAGE_CHANNELS = 3


@dataclass
class SyntheticPair:
    """Source/target images, the affine that relates them, and its seed.

    `warp` maps source pixel coordinates to target pixel coordinates as
    [x', y']ᵀ = A[:, :2] @ [x, y]ᵀ + A[:, 2]. Ground-truth flow at any grid
    resolution comes from `gt_flow`, evaluated analytically at cell centers.
    """

    source: Tensor          # [H, W, 3]
    target: Tensor          # [H, W, 3]
    warp: np.ndarray        # [2, 3] affine, pixel coords
    seed: int

    @property
    def extents(self) -> tuple[int, int]:
        return self.source.shape[:2]

    def gt_flow(self, grid: tuple[int, int], dtype=np.float64) -> FlowField:
        return affine_gt_flow(self.warp, self.extents, grid, dtype=dtype)


def random_affine(rng: np.random.Generator, magnitude: float,
                  extents: tuple[int, int]) -> np.ndarray:
    """Bounded random affine about the image center, in pixel coordinates."""
    h, w = extents
    m = float(magnitude)
    scale = 1.0 + rng.uniform(-0.2, 0.25) * m
    theta = rng.uniform(-np.pi / 9, np.pi / 9) * m
    tx = rng.uniform(-0.1, 0.1) * m * w
    ty = rng.uniform(-0.1, 0.1) * m * h
    c, s = np.cos(theta), np.sin(theta)
    lin = scale * np.array([[c, -s], [s, c]])
    center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
    shift = center - lin @ center + np.array([tx, ty])
    return np.concatenate([lin, shift[:, None]], axis=1)


def smooth_image(rng: np.random.Generator, size: int = IMAGE_SIZE,
                 channels: int = IMAGE_CHANNELS) -> np.ndarray:
    """Low-frequency random field plus a faint repetitive texture (f32).

    The smooth part makes bilinear warping nearly exact; the periodic part
    gives hard-argmax matching something to get wrong, so aggregation has
    measurable headroom.
    """
    coarse = rng.normal(size=(size // 16, size // 16, channels))
    ys = (np.arange(size) + 0.5) * coarse.shape[0] / size - 0.5
    xs = ys.copy()
    y0 = np.clip(np.floor(ys).astype(int), 0, coarse.shape[0] - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, coarse.shape[1] - 1)
    y1 = np.minimum(y0 + 1, coarse.shape[0] - 1)
    x1 = np.minimum(x0 + 1, coarse.shape[1] - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = coarse[y0][:, x0] * (1 - fx) + coarse[y0][:, x1] * fx
    bot = coarse[y1][:, x0] * (1 - fx) + coarse[y1][:, x1] * fx
    img = top * (1 - fy) + bot * fy
    gy, gx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    phase = rng.uniform(0, 2 * np.pi, size=channels)
    tex = 0.15 * np.sin(2 * np.pi * (gx + gy)[:, :, None] / 16.0 + phase)
    return (img + tex).astype(np.float32)


def warp_image(img: np.ndarray, warp: np.ndarray) -> np.ndarray:
    """Inverse-warp resampling: target(y) = source(warp^-1(y)), border clamp."""
    h, w = img.shape[:2]
    lin, shift = warp[:, :2], warp[:, 2]
    inv = np.linalg.inv(lin)
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    tgt = np.stack([gx.ravel(), gy.ravel()], axis=1)
    src = (tgt - shift) @ inv.T
    field = img.reshape(h, w, -1).astype(np.float64)
    out = _sample_bilinear(field, src[:, 0], src[:, 1])
    return out.reshape(img.shape).astype(img.dtype)


def _cell_centres(warp: np.ndarray, extents: tuple[int, int],
                  grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """[h*w, 2] pixel positions of `grid`'s cell centres, and their images."""
    hp, wp = extents
    h, w = grid
    gy, gx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    pts = np.stack([grid_to_pixel(gx.ravel(), wp, w),
                    grid_to_pixel(gy.ravel(), hp, h)], axis=1)
    return pts, pts @ warp[:, :2].T + warp[:, 2]


def affine_gt_flow(warp: np.ndarray, extents: tuple[int, int],
                   grid: tuple[int, int], dtype=np.float64) -> FlowField:
    """Exact displacement in grid cells at the cell centers of `grid`."""
    hp, wp = extents
    h, w = grid
    pts, mapped = _cell_centres(warp, extents, grid)
    dx = (mapped[:, 0] - pts[:, 0]) * w / wp
    dy = (mapped[:, 1] - pts[:, 1]) * h / hp
    disp = np.stack([dx, dy], axis=1).reshape(h, w, 2)
    return FlowField(Tensor(disp.astype(dtype, copy=False)))


def _inbound_fraction(warp: np.ndarray, extents: tuple[int, int],
                      grid: tuple[int, int]) -> float:
    hp, wp = extents
    _, mapped = _cell_centres(warp, extents, grid)
    ok = ((mapped[:, 0] >= 0) & (mapped[:, 0] < wp)
          & (mapped[:, 1] >= 0) & (mapped[:, 1] < hp))
    return float(ok.mean())


def generate_pair(seed: int, grid: tuple[int, int] = (16, 16),
                  warp_magnitude: float = 1.0,
                  size: int = IMAGE_SIZE) -> SyntheticPair:
    """Smooth random image plus an affine-warped copy with exact GT.

    Affines that collapse (near-singular) or push more than 20% of the
    grid's cell centers out of bounds are rejected and redrawn from the
    seed's stream, at most 10 times.
    """
    rng = np.random.default_rng(seed)
    img = smooth_image(rng, size=size)
    extents = (size, size)
    for _ in range(10):
        warp = random_affine(rng, warp_magnitude, extents)
        if abs(np.linalg.det(warp[:, :2])) < 0.25:
            continue
        if _inbound_fraction(warp, extents, grid) < 0.8:
            continue
        target = warp_image(img, warp)
        return SyntheticPair(source=Tensor(img), target=Tensor(target),
                             warp=warp, seed=seed)
    raise ArgumentError(
        f"seed {seed}: no usable affine after 10 draws "
        f"(magnitude {warp_magnitude} too aggressive)")
