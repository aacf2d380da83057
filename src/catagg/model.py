"""Toy feature backbone and end-to-end matching models.

The backbone is a small patch-merging stack emitting two feature maps per
pyramid layer at strides 4, 8 and 16 (extents 32/16/8 for 128-px input).
One matching model, subclassed per aggregator, wires the features through
the aggregator and the soft-argmax head, and exposes the raw-correlation
winner-take-all baseline on the same grid for comparison.
"""

from __future__ import annotations

from . import tensor as tt
from .cats import CATS_PREFIX, CatsAggregator, CatsConfig
from .catspp import (CATSPP_PREFIX, CatsPPAggregator, EfficientConfig,
                     EmbedConfig, LayerSpec)
from .correlation import FeatureMap, build_hypercorrelation, build_stack
from .errors import ConfigError, DimensionError
from .flow import FlowField, hard_argmax_flow, soft_argmax_flow
from .params import ParamStore
from .tensor import Tensor

__all__ = ["ToyBackbone", "CatsModel", "CatsPPModel", "raw_correlation_mean",
           "check_layers", "BACKBONE_STRIDES", "BACKBONE_CHANNELS"]

BACKBONE_STRIDES = {3: 4, 4: 8, 5: 16}
BACKBONE_CHANNELS = (16, 24, 32)
BACKBONE_PREFIX = "backbone"


def check_layers(layers) -> tuple[int, ...]:
    """`layers` as a tuple, in the given order, if it names distinct
    pyramid layers from 3, 4 and 5; a `ConfigError` otherwise."""
    layers = tuple(layers)
    bad = [q for q in layers if q not in (3, 4, 5)]
    if bad or not layers:
        raise ConfigError(f"layers must come from 3,4,5, got {layers}")
    if len(set(layers)) != len(layers):
        raise ConfigError(f"layers must be distinct, got {layers}")
    return layers


def _patch_merge(x: Tensor, k: int) -> Tensor:
    """[h, w, c] -> [h/k, w/k, k*k*c] by folding k x k blocks into channels."""
    h, w, c = x.shape
    if h % k or w % k:
        raise DimensionError(f"extent {(h, w)} not divisible by patch size {k}")
    t = tt.reshape(x, (h // k, k, w // k, k, c))
    t = tt.transpose(t, (0, 2, 1, 3, 4))
    return tt.reshape(t, (h // k, w // k, k * k * c))


class ToyBackbone:
    """Three patch-merge stages, two maps per pyramid layer, zero-bias init.
    Every stage is registered, so `layers` moves no initial value."""

    def __init__(self, store: ParamStore, layers):
        self.store = store
        self.layers = tuple(sorted(check_layers(layers)))
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
        """[H, W, 3] image-like tensor -> the selected layers' maps, at their
        full-pyramid levels; no stage past the highest selected layer runs."""
        if image.ndim != 3:
            raise DimensionError(f"image must be [h, w, c], got {image.shape}")
        if image.shape[0] % 16 or image.shape[1] % 16:
            raise DimensionError(
                f"image extents {image.shape[:2]} must divide by 16")
        feats = []
        x = image
        for level, q, k in zip((0, 2, 4), (3, 4, 5), (4, 2, 2)):
            if q > self.layers[-1]:
                break
            merged = _patch_merge(x, k)
            hq, wq, cm = merged.shape
            flat = tt.reshape(merged, (hq * wq, cm))
            a = tt.gelu(tt.linear(flat, self._p(f"stage{q}.patch.w"),
                                  self._p(f"stage{q}.patch.b")))
            x = tt.reshape(a, (hq, wq, a.shape[-1]))
            if q in self.layers:
                b = tt.gelu(tt.linear(a, self._p(f"stage{q}.mix.w"),
                                      self._p(f"stage{q}.mix.b")))
                feats.append(FeatureMap(level=level, layer=q, grid=x))
                feats.append(FeatureMap(level=level + 1, layer=q,
                                        grid=tt.reshape(b, x.shape)))
        return feats


def raw_correlation_mean(feats_s: list[FeatureMap], feats_t: list[FeatureMap],
                         grid: tuple[int, int]) -> Tensor:
    """Level-averaged cosine correlation at `grid`: the no-aggregation map,
    as the [h, w, h, w] volume the flow readout takes."""
    stack = build_stack(feats_s, feats_t, grid)
    return tt.reshape(tt.tmean(stack.maps, axis=0), grid + grid)


class _MatchingModel:
    """What CATs and CATs++ share. A subclass sets `agg_prefix`, builds its
    aggregator, and gives `flow_grid` and the [h, w, h, w] `_scores`."""

    def __init__(self, store: ParamStore, layers, beta: float):
        self.store = store
        self.beta = beta
        self.backbone = ToyBackbone(store, layers)
        self.layers = self.backbone.layers

    @property
    def lr_prefixes(self) -> tuple[str, str]:
        return (f"{self.agg_prefix}.", f"{BACKBONE_PREFIX}.")

    def features(self, image: Tensor) -> list[FeatureMap]:
        return self.backbone.forward(image)

    def flow(self, source: Tensor, target: Tensor) -> FlowField:
        return self.flow_from_features(self.features(source),
                                       self.features(target))

    def flow_from_features(self, fs: list[FeatureMap],
                           ft: list[FeatureMap]) -> FlowField:
        return soft_argmax_flow(self._scores(fs, ft), beta=self.beta)

    def wta(self, source: Tensor, target: Tensor) -> FlowField:
        with tt.no_grad():
            return self.wta_from_features(self.features(source),
                                          self.features(target))

    def wta_from_features(self, fs: list[FeatureMap],
                          ft: list[FeatureMap]) -> FlowField:
        with tt.no_grad():
            return hard_argmax_flow(
                raw_correlation_mean(fs, ft, self.flow_grid))


class CatsModel(_MatchingModel):
    """Backbone + stack aggregation + soft-argmax on a fixed working grid."""

    agg_prefix = CATS_PREFIX
    # bound per class: perfbench/spans.py times `vars(cls)["wta"]`
    wta = _MatchingModel.wta

    def __init__(self, store: ParamStore, cfg: CatsConfig, layers=(4, 5),
                 beta: float = 20.0):
        super().__init__(store, layers, beta)
        self.cfg = cfg
        feat_channels = [c for q, c in zip((3, 4, 5), BACKBONE_CHANNELS)
                         if q in self.layers for _ in range(2)]
        self.agg = CatsAggregator(cfg, store, feat_channels)
        self.flow_grid = cfg.grid

    def _scores(self, fs: list[FeatureMap], ft: list[FeatureMap]) -> Tensor:
        stack = build_stack(fs, ft, self.flow_grid)
        out = self.agg.aggregate(stack, fs, ft)
        return tt.reshape(tt.tmean(out.maps, axis=0), self.flow_grid * 2)


class CatsPPModel(_MatchingModel):
    """Backbone + pyramidal volume aggregation + soft-argmax at the finest level."""

    agg_prefix = CATSPP_PREFIX
    wta = _MatchingModel.wta

    def __init__(self, store: ParamStore, embed_cfg: EmbedConfig,
                 eff_cfg: EfficientConfig, layers=(4, 5),
                 image_size: int = 128, beta: float = 20.0):
        super().__init__(store, layers, beta)
        self.image_size = image_size
        channels = dict(zip((3, 4, 5), BACKBONE_CHANNELS))
        specs = [LayerSpec(q=q, n_levels=2, app_channels=channels[q],
                           extents=(image_size // BACKBONE_STRIDES[q],) * 4)
                 for q in self.layers]
        self.agg = CatsPPAggregator(embed_cfg, eff_cfg, store, specs)
        # the finest selected layer, embedded
        self.flow_grid = self.agg.spec_for(self.layers[0]).embedded(embed_cfg)[:2]

    def features(self, image: Tensor) -> list[FeatureMap]:
        if image.shape[:2] != (self.image_size, self.image_size):
            raise DimensionError(
                f"model built for {self.image_size}-px images, got {image.shape}")
        return super().features(image)

    def _scores(self, fs: list[FeatureMap], ft: list[FeatureMap]) -> Tensor:
        hypers = build_hypercorrelation(fs, ft, layers=self.layers)
        return tt.tmean(self.agg.aggregate(hypers, fs, ft), axis=-1)
