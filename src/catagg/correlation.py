"""Correlation construction: multi-level stacks, hypercorrelations, swapping.

A CorrelationStack holds L maps of matching scores between two images on a
shared working grid, with a token_axis flag recording which image indexes
rows. A Hypercorrelation groups same-resolution correlation maps of one
pyramid layer on a trailing channel axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import tensor as tt
from .errors import ArgumentError, DimensionError
from .tensor import Tensor
from .volume_ops import resize_bilinear2d

__all__ = [
    "FeatureMap", "CorrelationStack", "Hypercorrelation",
    "cosine_correlation", "build_stack", "build_hypercorrelation",
    "swap", "resize_features",
]

SOURCE = "source"
TARGET = "target"


@dataclass
class FeatureMap:
    """One backbone feature grid: level index l, pyramid layer q, [h,w,c] data."""

    level: int
    layer: int
    grid: Tensor

    def __post_init__(self):
        if self.grid.ndim != 3:
            raise DimensionError(f"feature grid must be [h,w,c], got {self.grid.shape}")
        h, w, c = self.grid.shape
        if h < 2 or w < 2 or c < 1:
            raise DimensionError(f"feature grid too small: {self.grid.shape}")

    @property
    def hw(self) -> tuple[int, int]:
        return self.grid.shape[:2]


@dataclass
class CorrelationStack:
    """L stacked [hw x hw] correlation maps plus row-ownership bookkeeping."""

    maps: Tensor  # [L, hw, hw]
    grid: tuple[int, int]
    token_axis: str = SOURCE

    def __post_init__(self):
        if self.maps.ndim != 3:
            raise DimensionError(f"stack must be [L,hw,hw], got {self.maps.shape}")
        if self.token_axis not in (SOURCE, TARGET):
            raise ArgumentError(f"bad token_axis '{self.token_axis}'")


@dataclass
class Hypercorrelation:
    """Same-layer correlation maps stacked on a channel axis."""

    vol: Tensor  # [h_s, w_s, h_t, w_t, |levels|]
    layer: int
    levels: tuple[int, ...]

    def __post_init__(self):
        if self.vol.ndim != 5:
            raise DimensionError(f"hypercorrelation must be rank 5, got {self.vol.shape}")
        if self.vol.shape[4] != len(self.levels):
            raise DimensionError(
                f"channel extent {self.vol.shape[4]} != level count {len(self.levels)}")


def cosine_correlation(ds: FeatureMap, dt: FeatureMap) -> Tensor:
    """ReLU-clamped cosine similarity between all position pairs, [hw_s x hw_t].

    Zero-norm feature vectors yield zero rows/columns rather than NaN.
    """
    if ds.grid.shape[-1] != dt.grid.shape[-1]:
        raise DimensionError(
            f"channel mismatch {ds.grid.shape[-1]} vs {dt.grid.shape[-1]}")
    if ds.hw != dt.hw:
        raise DimensionError(f"spatial mismatch {ds.hw} vs {dt.hw}")
    c = ds.grid.shape[-1]
    a = tt.l2_normalize_last(ds.grid)
    b = tt.l2_normalize_last(dt.grid)
    am = tt.reshape(a, (-1, c))
    bm = tt.reshape(b, (-1, c))
    return tt.relu(tt.matmul(am, tt.transpose(bm, (1, 0))))


def resize_features(features: list[FeatureMap], hw: tuple[int, int]) -> list[FeatureMap]:
    """Bilinearly resize every feature grid to the working extents."""
    out = []
    for fm in features:
        grid = fm.grid if fm.hw == tuple(hw) else resize_bilinear2d(fm.grid, hw)
        out.append(replace(fm, grid=grid))
    return out


def build_stack(features_s: list[FeatureMap], features_t: list[FeatureMap],
                target_hw: tuple[int, int] = (16, 16)) -> CorrelationStack:
    """Resize both feature lists to target_hw and stack per-level correlations.

    Rows of every map index source positions (token_axis = source).
    """
    if not features_s or not features_t:
        raise ArgumentError("build_stack: empty feature list")
    if len(features_s) != len(features_t):
        raise ArgumentError(
            f"level count mismatch {len(features_s)} vs {len(features_t)}")
    fs = resize_features(features_s, target_hw)
    ft = resize_features(features_t, target_hw)
    hw = target_hw[0] * target_hw[1]
    levels = [
        tt.reshape(cosine_correlation(a, b), (1, hw, hw)) for a, b in zip(fs, ft)
    ]
    return CorrelationStack(maps=tt.concat(levels, axis=0), grid=tuple(target_hw),
                            token_axis=SOURCE)


def build_hypercorrelation(features_s: list[FeatureMap], features_t: list[FeatureMap],
                           layers: tuple[int, ...] = (3, 4, 5)) -> list[Hypercorrelation]:
    """Group per-level correlations by pyramid layer on a channel axis.

    Every member of layer q keeps its native spatial extents, so the result
    is a list ordered as `layers`, each [h_s, w_s, h_t, w_t, |levels of q|].
    """
    if len(features_s) != len(features_t):
        raise ArgumentError(
            f"level count mismatch {len(features_s)} vs {len(features_t)}")
    by_layer: dict[int, list[tuple[FeatureMap, FeatureMap]]] = {q: [] for q in layers}
    for a, b in zip(features_s, features_t):
        if a.layer != b.layer or a.level != b.level:
            raise ArgumentError(f"feature lists misaligned at level {a.level}")
        if a.layer in by_layer:
            by_layer[a.layer].append((a, b))
    out = []
    for q in layers:
        members = by_layer[q]
        if not members:
            raise ArgumentError(f"pyramid layer {q} has no member maps")
        hs, ws = members[0][0].hw
        ht, wt = members[0][1].hw
        slices = []
        levels = []
        for a, b in members:
            if a.hw != (hs, ws) or b.hw != (ht, wt):
                raise DimensionError(f"layer {q} mixes spatial extents")
            corr = cosine_correlation(a, b)
            slices.append(tt.reshape(corr, (hs, ws, ht, wt, 1)))
            levels.append(a.level)
        out.append(Hypercorrelation(vol=tt.concat(slices, axis=4), layer=q,
                                    levels=tuple(levels)))
    return out


def swap(c: CorrelationStack | Hypercorrelation):
    """Exchange source and target roles: per-level transpose / axis-pair swap."""
    if isinstance(c, CorrelationStack):
        if c.maps.shape[1] != c.maps.shape[2]:
            raise DimensionError(
                f"cannot swap non-square stacked maps {c.maps.shape}")
        flipped = TARGET if c.token_axis == SOURCE else SOURCE
        return CorrelationStack(
            maps=tt.transpose(c.maps, (0, 2, 1)), grid=c.grid, token_axis=flipped)
    if isinstance(c, Hypercorrelation):
        return Hypercorrelation(
            vol=tt.transpose(c.vol, (2, 3, 0, 1, 4)), layer=c.layer, levels=c.levels)
    raise ArgumentError(f"swap: unsupported type {type(c).__name__}")

