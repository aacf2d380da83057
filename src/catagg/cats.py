"""Standard transformer cost aggregator.

Tokens are appearance-augmented correlation rows [C^l, P^l(D^l)] of extent
hw+p. Each encoder applies self-attention twice: intra (over the hw spatial
positions of one level, batched over levels) and inter (over the L levels at
one position, batched over positions). A per-level linear projection restores
the token extent to hw, and the aggregated residual is added to the input
correlation. The two swapped passes share one parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as tt
from .correlation import SOURCE, CorrelationStack, FeatureMap, resize_features, swap
from .errors import ArgumentError, ConfigError, DimensionError
from .params import ParamStore
from .tensor import Tensor

__all__ = ["CatsConfig", "CatsAggregator"]

MODES = ("serial", "parallel", "both")
CATS_PREFIX = "cats"  # parameter-name prefix of every aggregator parameter


@dataclass
class CatsConfig:
    grid: tuple[int, int] = (16, 16)
    n_encoders: int = 1
    n_heads: int = 8
    p: int = 32
    ffn_ratio: int = 4
    mode: str = "serial"

    @property
    def hw(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def feat(self) -> int:
        return self.hw + self.p

    def validate(self):
        if self.n_encoders < 1:
            raise ConfigError(f"n_encoders must be >= 1, got {self.n_encoders}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.feat % self.n_heads != 0:
            raise ConfigError(
                f"token extent {self.feat} not divisible by {self.n_heads} heads")


class CatsAggregator:
    """Owns the aggregator parameters and runs the swapped two-pass forward."""

    def __init__(self, cfg: CatsConfig, store: ParamStore,
                 feat_channels: list[int]):
        cfg.validate()
        if not feat_channels:
            raise ArgumentError("feat_channels must list one channel count per level")
        self.cfg = cfg
        self.store = store
        self.n_levels = len(feat_channels)
        f = cfg.feat
        hw = cfg.hw

        for l, c in enumerate(feat_channels):
            store.add(f"{CATS_PREFIX}.appear{l}.w", (c, cfg.p))
            store.add(f"{CATS_PREFIX}.appear{l}.b", (cfg.p,), init="zeros")
        store.add(f"{CATS_PREFIX}.pos", (hw, f), init="zeros")
        for e in range(cfg.n_encoders):
            for kind in ("intra", "inter"):
                base = f"{CATS_PREFIX}.enc{e}.{kind}"
                for nm in ("wq", "wk", "wv", "wo"):
                    store.add(f"{base}.{nm}", (f, f))
                for nm in ("bq", "bk", "bv", "bo"):
                    store.add(f"{base}.{nm}", (f,), init="zeros")
                store.add(f"{base}.ln1g", (f,), init="ones")
                store.add(f"{base}.ln1b", (f,), init="zeros")
                store.add(f"{base}.ln2g", (f,), init="ones")
                store.add(f"{base}.ln2b", (f,), init="zeros")
                store.add(f"{base}.ffn_w1", (f, cfg.ffn_ratio * f))
                store.add(f"{base}.ffn_b1", (cfg.ffn_ratio * f,), init="zeros")
                store.add(f"{base}.ffn_w2", (cfg.ffn_ratio * f, f))
                store.add(f"{base}.ffn_b2", (f,), init="zeros")
        # zero start: the aggregator begins as the identity on C
        store.add(f"{CATS_PREFIX}.restore.w", (self.n_levels, f, hw), init="zeros")
        store.add(f"{CATS_PREFIX}.restore.b", (self.n_levels, 1, hw), init="zeros")

    def _p(self, name: str) -> Tensor:
        return self.store[f"{CATS_PREFIX}.{name}"]

    def zero_output_projections(self):
        """Zero every path that writes into a residual sum (identity mode)."""
        for e in range(self.cfg.n_encoders):
            for kind in ("intra", "inter"):
                for nm in ("wo", "bo", "ffn_w2", "ffn_b2"):
                    self._p(f"enc{e}.{kind}.{nm}").data[...] = 0.0
        self._p("restore.w").data[...] = 0.0
        self._p("restore.b").data[...] = 0.0

    # ---- forward pieces -------------------------------------------------

    def _appearance(self, feats: list[FeatureMap]) -> Tensor:
        """Per-level linear projection of [hw, c_l] features to [L, hw, p]."""
        if len(feats) != self.n_levels:
            raise DimensionError(
                f"expected {self.n_levels} feature levels, got {len(feats)}")
        hw, p = self.cfg.hw, self.cfg.p
        rows = []
        for l, fm in enumerate(feats):
            if fm.hw != self.cfg.grid:
                raise DimensionError(
                    f"level {l} grid {fm.hw} != working grid {self.cfg.grid}")
            flat = tt.reshape(fm.grid, (hw, fm.grid.shape[-1]))
            emb = tt.linear(flat, self._p(f"appear{l}.w"), self._p(f"appear{l}.b"))
            rows.append(tt.reshape(emb, (1, hw, p)))
        return tt.concat(rows, axis=0)

    def _mha(self, z: Tensor, base: str) -> Tensor:
        """Multi-head scaled dot-product self-attention over axis 1 of [B,T,F]."""
        b, t, f = z.shape
        h = self.cfg.n_heads
        dh = f // h

        def heads(x: Tensor) -> Tensor:
            return tt.transpose(tt.reshape(x, (b, t, h, dh)), (0, 2, 1, 3))

        q = heads(tt.linear(z, self._p(f"{base}.wq"), self._p(f"{base}.bq")))
        k = heads(tt.linear(z, self._p(f"{base}.wk"), self._p(f"{base}.bk")))
        v = heads(tt.linear(z, self._p(f"{base}.wv"), self._p(f"{base}.bv")))
        mixed = tt.attention(q, k, v)
        merged = tt.reshape(tt.transpose(mixed, (0, 2, 1, 3)), (b, t, f))
        return tt.linear(merged, self._p(f"{base}.wo"), self._p(f"{base}.bo"))

    def _block(self, x: Tensor, base: str, pos: Tensor | None) -> Tensor:
        """Pre-LN encoder block: attention then FFN, residual around each.
        Locals are released once dead, so a no_grad pass does not hold them."""
        h = tt.add(x, pos) if pos is not None else x
        zn = tt.layer_norm(h, self._p(f"{base}.ln1g"), self._p(f"{base}.ln1b"))
        z = tt.add(self._mha(zn, base), h)
        del h, zn
        xn = tt.layer_norm(z, self._p(f"{base}.ln2g"), self._p(f"{base}.ln2b"))
        ffn = tt.ffn(xn, *(self._p(f"{base}.ffn_{nm}") for nm in ("w1", "b1", "w2", "b2")))
        del xn
        return tt.add(ffn, z)

    def transform(self, maps: Tensor, feats: list[FeatureMap]) -> Tensor:
        """Aggregate an oriented [L, hw, hw] stack; rows own the appearance."""
        hw = self.cfg.hw
        if maps.shape[1] != hw or maps.shape[2] != hw:
            raise DimensionError(f"stack {maps.shape} does not match hw={hw}")
        x = tt.concat([maps, self._appearance(feats)], axis=2)
        del maps  # a stack the caller passed as a temporary dies here, not after the encoders
        pos = self._p("pos")
        for e in range(self.cfg.n_encoders):
            x = self._block(x, f"enc{e}.intra", pos)
            x = tt.transpose(x, (1, 0, 2))
            x = self._block(x, f"enc{e}.inter", None)
            x = tt.transpose(x, (1, 0, 2))
        return tt.add(tt.matmul(x, self._p("restore.w")), self._p("restore.b"))

    # ---- public entry ----------------------------------------------------

    def aggregate(self, stack: CorrelationStack, feats_s: list[FeatureMap],
                  feats_t: list[FeatureMap]) -> CorrelationStack:
        """Two-pass swapped aggregation with a single residual connection,
        in the pass order `cfg.mode` names."""
        if stack.grid != self.cfg.grid:
            raise DimensionError(f"stack grid {stack.grid} != config {self.cfg.grid}")
        if stack.token_axis != SOURCE:
            stack = swap(stack)
        fs = resize_features(feats_s, self.cfg.grid)
        ft = resize_features(feats_t, self.cfg.grid)

        if self.cfg.mode == "serial":
            out = self._serial(stack.maps, fs, ft)
        elif self.cfg.mode == "parallel":
            out = self._parallel(stack.maps, fs, ft)
        else:
            mid = self._serial(stack.maps, fs, ft)
            out = self._parallel(mid, fs, ft)
        return CorrelationStack(maps=out, grid=stack.grid, token_axis=SOURCE)

    def _serial(self, c_src: Tensor, fs, ft) -> Tensor:
        c_tgt = tt.transpose(c_src, (0, 2, 1))
        s = tt.add(self.transform(c_tgt, ft), c_tgt)
        del c_tgt
        return tt.add(self.transform(tt.transpose(s, (0, 2, 1)), fs), c_src)

    def _parallel(self, c_src: Tensor, fs, ft) -> Tensor:
        a = self.transform(c_src, fs)
        b = self.transform(tt.transpose(c_src, (0, 2, 1)), ft)
        return tt.add(tt.add(a, tt.transpose(b, (0, 2, 1))), c_src)
