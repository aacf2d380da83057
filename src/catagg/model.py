"""Toy feature backbone and end-to-end matching models.

The backbone is a small patch-merging stack emitting two feature maps per
pyramid layer at strides 4, 8 and 16 (extents 32/16/8 for 128-px input).
The model wrappers wire backbone features through an aggregator and the
soft-argmax head, and expose the raw-correlation winner-take-all baseline
on the same grid for comparison.
"""

from __future__ import annotations

from . import tensor as tt
from .cats import CATS_PREFIX, CatsAggregator, CatsConfig
from .catspp import (CATSPP_PREFIX, CatsPPAggregator, EfficientConfig,
                     EmbedConfig, LayerSpec)
from .correlation import FeatureMap, build_hypercorrelation, build_stack
from .errors import ArgumentError, DimensionError
from .flow import FlowField, hard_argmax_flow, soft_argmax_flow
from .params import ParamStore
from .tensor import Tensor

__all__ = ["ToyBackbone", "CatsModel", "CatsPPModel", "raw_correlation_mean",
           "BACKBONE_STRIDES", "BACKBONE_CHANNELS"]

BACKBONE_STRIDES = {3: 4, 4: 8, 5: 16}
BACKBONE_CHANNELS = (16, 24, 32)
BACKBONE_PREFIX = "backbone"


def _patch_merge(x: Tensor, k: int) -> Tensor:
    """[h, w, c] -> [h/k, w/k, k*k*c] by folding k x k blocks into channels."""
    h, w, c = x.shape
    if h % k or w % k:
        raise DimensionError(f"extent {(h, w)} not divisible by patch size {k}")
    t = tt.reshape(x, (h // k, k, w // k, k, c))
    t = tt.transpose(t, (0, 2, 1, 3, 4))
    return tt.reshape(t, (h // k, w // k, k * k * c))


class ToyBackbone:
    """Three patch-merge stages, two maps per pyramid layer, zero-bias init."""

    def __init__(self, store: ParamStore):
        self.store = store
        cin = 3
        for q, c, k in zip((3, 4, 5), BACKBONE_CHANNELS, (4, 2, 2)):
            base = f"{BACKBONE_PREFIX}.stage{q}"
            store.add(f"{base}.patch.w", (k * k * cin, c))
            store.add(f"{base}.patch.b", (c,), init="zeros")
            store.add(f"{base}.mix.w", (c, c))
            store.add(f"{base}.mix.b", (c,), init="zeros")
            cin = c

    def _p(self, name: str) -> Tensor:
        return self.store[f"{BACKBONE_PREFIX}.{name}"]

    def forward(self, image: Tensor) -> list[FeatureMap]:
        """[H, W, 3] image-like tensor -> six feature maps, levels 0..5."""
        if image.ndim != 3:
            raise DimensionError(f"image must be [h, w, c], got {image.shape}")
        if image.shape[0] % 16 or image.shape[1] % 16:
            raise DimensionError(
                f"image extents {image.shape[:2]} must divide by 16")
        feats = []
        x = image
        level = 0
        for q, k in zip((3, 4, 5), (4, 2, 2)):
            merged = _patch_merge(x, k)
            hq, wq, cm = merged.shape
            flat = tt.reshape(merged, (hq * wq, cm))
            a = tt.gelu(tt.linear(flat, self._p(f"stage{q}.patch.w"),
                                  self._p(f"stage{q}.patch.b")))
            b = tt.gelu(tt.linear(a, self._p(f"stage{q}.mix.w"),
                                  self._p(f"stage{q}.mix.b")))
            c = a.shape[-1]
            a_grid = tt.reshape(a, (hq, wq, c))
            feats.append(FeatureMap(level=level, layer=q, grid=a_grid))
            feats.append(FeatureMap(level=level + 1, layer=q,
                                    grid=tt.reshape(b, (hq, wq, c))))
            level += 2
            x = a_grid
        return feats


def _select(feats: list[FeatureMap], layers) -> list[FeatureMap]:
    out = [f for f in feats if f.layer in layers]
    if not out:
        raise ArgumentError(f"no backbone features for layers {layers}")
    return out


def raw_correlation_mean(feats_s: list[FeatureMap], feats_t: list[FeatureMap],
                         grid: tuple[int, int]) -> Tensor:
    """Level-averaged cosine correlation at `grid`: the no-aggregation map,
    as the [h, w, h, w] volume the flow readout takes."""
    stack = build_stack(feats_s, feats_t, grid)
    return tt.reshape(tt.tmean(stack.maps, axis=0), grid + grid)


class CatsModel:
    """Backbone + stack aggregation + soft-argmax on a fixed working grid."""

    def __init__(self, store: ParamStore, cfg: CatsConfig, layers=(4, 5),
                 beta: float = 20.0):
        self.backbone = ToyBackbone(store)
        self.layers = tuple(layers)
        self.cfg = cfg
        self.beta = beta
        self.store = store
        feat_channels = [c for q, c in zip((3, 4, 5), BACKBONE_CHANNELS)
                         if q in self.layers for _ in range(2)]
        self.agg = CatsAggregator(cfg, store, feat_channels)

    @property
    def flow_grid(self) -> tuple[int, int]:
        return self.cfg.grid

    @property
    def lr_prefixes(self) -> tuple[str, str]:
        return (f"{CATS_PREFIX}.", f"{BACKBONE_PREFIX}.")

    def features(self, image: Tensor) -> list[FeatureMap]:
        return _select(self.backbone.forward(image), self.layers)

    def flow(self, source: Tensor, target: Tensor) -> FlowField:
        return self.flow_from_features(self.features(source),
                                       self.features(target))

    def flow_from_features(self, fs: list[FeatureMap],
                           ft: list[FeatureMap]) -> FlowField:
        stack = build_stack(fs, ft, self.cfg.grid)
        out = self.agg.aggregate(stack, fs, ft)
        corr = tt.reshape(tt.tmean(out.maps, axis=0), self.cfg.grid + self.cfg.grid)
        return soft_argmax_flow(corr, beta=self.beta)

    def wta(self, source: Tensor, target: Tensor) -> FlowField:
        with tt.no_grad():
            return self.wta_from_features(self.features(source),
                                          self.features(target))

    def wta_from_features(self, fs: list[FeatureMap],
                          ft: list[FeatureMap]) -> FlowField:
        with tt.no_grad():
            return hard_argmax_flow(
                raw_correlation_mean(fs, ft, self.cfg.grid))


class CatsPPModel:
    """Backbone + pyramidal volume aggregation + soft-argmax at the finest level."""

    def __init__(self, store: ParamStore, embed_cfg: EmbedConfig,
                 eff_cfg: EfficientConfig, layers=(4, 5),
                 image_size: int = 128, beta: float = 20.0):
        self.backbone = ToyBackbone(store)
        self.layers = tuple(sorted(layers))
        self.beta = beta
        self.store = store
        self.image_size = image_size
        by_layer = dict(zip((3, 4, 5), BACKBONE_CHANNELS))
        specs = []
        for q in self.layers:
            n = image_size // BACKBONE_STRIDES[q]
            specs.append(LayerSpec(q=q, n_levels=2, extents=(n, n, n, n),
                                   app_channels=by_layer[q]))
        self.agg = CatsPPAggregator(embed_cfg, eff_cfg, store, specs)
        finest = min(self.layers)
        self._grid = self.agg.spec_for(finest).embedded(embed_cfg)[:2]

    @property
    def flow_grid(self) -> tuple[int, int]:
        return self._grid

    @property
    def lr_prefixes(self) -> tuple[str, str]:
        return (f"{CATSPP_PREFIX}.", f"{BACKBONE_PREFIX}.")

    def features(self, image: Tensor) -> list[FeatureMap]:
        if image.shape[:2] != (self.image_size, self.image_size):
            raise DimensionError(
                f"model built for {self.image_size}-px images, got {image.shape}")
        return _select(self.backbone.forward(image), self.layers)

    def flow(self, source: Tensor, target: Tensor) -> FlowField:
        return self.flow_from_features(self.features(source),
                                       self.features(target))

    def flow_from_features(self, fs: list[FeatureMap],
                           ft: list[FeatureMap]) -> FlowField:
        hypers = build_hypercorrelation(fs, ft, layers=self.layers)
        vol = self.agg.aggregate(hypers, fs, ft)
        corr = tt.tmean(vol, axis=-1)
        return soft_argmax_flow(corr, beta=self.beta)

    def wta(self, source: Tensor, target: Tensor) -> FlowField:
        with tt.no_grad():
            return self.wta_from_features(self.features(source),
                                          self.features(target))

    def wta_from_features(self, fs: list[FeatureMap],
                          ft: list[FeatureMap]) -> FlowField:
        with tt.no_grad():
            return hard_argmax_flow(raw_correlation_mean(fs, ft, self._grid))
