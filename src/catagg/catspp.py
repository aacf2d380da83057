"""Efficient convolution+transformer cost aggregator over 4D volumes.

A hypercorrelation per pyramid layer is conv-embedded to d channels, then
aggregated by an attention block whose Q/K are built from stride-s
convolutional projections over the source spatial pair (plus appearance
and a learnable positional embedding) and whose V keeps the full extent
(stride 1) so the residual z = zhat + M type-checks. The FFN is two 4D
convolutions around a GELU. Layers run coarse to fine; each aggregated
volume is bilinearly upsampled and added into the next finer embedding.
The two swapped branches of a layer share parameters and are averaged so
that zeroed projections reduce the whole cascade to exact residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as tt
from .correlation import FeatureMap, Hypercorrelation, resize_features
from .errors import ArgumentError, ConfigError, DimensionError
from .params import ParamStore
from .tensor import Tensor
from .volume_ops import conv4d, upsample4d_bilinear

__all__ = ["EmbedConfig", "EfficientConfig", "LayerSpec", "CatsPPAggregator"]

CATSPP_PREFIX = "catspp"  # parameter-name prefix of every aggregator parameter


def _ceil_div(n: int, s: int) -> int:
    return -(-n // s)


@dataclass
class EmbedConfig:
    kernel: int = 3
    stride: int = 2
    d: int = 8
    n_stages: int = 1


@dataclass
class EfficientConfig:
    s: int = 2            # Q/K source-pair reduction stride
    a: int = 32           # attention feature extent
    r: int = 2            # FFN channel expansion
    n_encoders: int = 1
    p: int = 16           # appearance embedding extent
    proj_kernel: int = 3  # Q/K/V convolutional projection kernel
    ffn_kernel: int = 3


@dataclass
class LayerSpec:
    """Static shape info for one pyramid layer q."""

    q: int
    n_levels: int                      # |L^q|, channel extent of the raw volume
    extents: tuple[int, int, int, int]  # native (h_s, w_s, h_t, w_t)
    app_channels: int                  # feature channels used for appearance

    def embedded(self, cfg: EmbedConfig) -> tuple[int, int, int, int]:
        e = self.extents
        for _ in range(cfg.n_stages):
            e = tuple(_ceil_div(n, cfg.stride) for n in e)
        return e


class CatsPPAggregator:
    """Owns per-layer parameters and runs the coarse-to-fine aggregation."""

    def __init__(self, embed_cfg: EmbedConfig, eff_cfg: EfficientConfig,
                 store: ParamStore, layers: list[LayerSpec]):
        if not layers:
            raise ArgumentError("need at least one pyramid layer")
        if eff_cfg.n_encoders < 1:
            raise ConfigError(f"n_encoders must be >= 1, got {eff_cfg.n_encoders}")
        self.embed_cfg = embed_cfg
        self.eff = eff_cfg
        self.store = store
        self.layers = sorted(layers, key=lambda ls: ls.q, reverse=True)
        for ls in self.layers:
            if min(ls.extents) < embed_cfg.kernel:
                raise ConfigError(
                    f"layer {ls.q} extents {ls.extents} smaller than "
                    f"embed kernel {embed_cfg.kernel}")
            if ls.extents[:2] != ls.extents[2:]:
                raise ConfigError(
                    f"layer {ls.q}: swapped-branch processing needs matching "
                    f"source/target extents, got {ls.extents}")
            self._register_layer(ls)

    def _register_layer(self, ls: LayerSpec):
        st = self.store
        m, d = self.embed_cfg.kernel, self.embed_cfg.d
        kp, kf = self.eff.proj_kernel, self.eff.ffn_kernel
        a, r, p, s = self.eff.a, self.eff.r, self.eff.p, self.eff.s
        base = f"{CATSPP_PREFIX}.q{ls.q}"
        cin = ls.n_levels
        for i in range(self.embed_cfg.n_stages):
            st.add(f"{base}.embed{i}.k", (m, m, m, m, cin, d))
            st.add(f"{base}.embed{i}.b", (d,), init="zeros")
            cin = d
        hs, ws, ht, wt = ls.embedded(self.embed_cfg)
        red = _ceil_div(hs, s) * _ceil_div(ws, s) * d
        st.add(f"{base}.appear.w", (ls.app_channels, p))
        st.add(f"{base}.appear.b", (p,), init="zeros")
        st.add(f"{base}.pos", (ht * wt, a), init="zeros")
        for e in range(self.eff.n_encoders):
            eb = f"{base}.enc{e}"
            st.add(f"{eb}.ln_in.g", (d,), init="ones")
            st.add(f"{eb}.ln_in.b", (d,), init="zeros")
            for nm in ("qq", "kk", "qv"):
                st.add(f"{eb}.{nm}.k", (kp, kp, kp, kp, d, d))
                st.add(f"{eb}.{nm}.b", (d,), init="zeros")
            for nm in ("ln_q", "ln_k", "ln_v"):
                st.add(f"{eb}.{nm}.g", (d,), init="ones")
                st.add(f"{eb}.{nm}.b", (d,), init="zeros")
            st.add(f"{eb}.pq.w", (red + p, a))
            st.add(f"{eb}.pq.b", (a,), init="zeros")
            st.add(f"{eb}.pk.w", (red + p, a))
            st.add(f"{eb}.pk.b", (a,), init="zeros")
            st.add(f"{eb}.ffn_ln.g", (d,), init="ones")
            st.add(f"{eb}.ffn_ln.b", (d,), init="zeros")
            st.add(f"{eb}.f1.k", (kf, kf, kf, kf, d, r * d))
            st.add(f"{eb}.f1.b", (r * d,), init="zeros")
            st.add(f"{eb}.f2.k", (kf, kf, kf, kf, r * d, d))
            st.add(f"{eb}.f2.b", (d,), init="zeros")

    def _p(self, name: str) -> Tensor:
        return self.store[f"{CATSPP_PREFIX}.{name}"]

    def spec_for(self, q: int) -> LayerSpec:
        for ls in self.layers:
            if ls.q == q:
                return ls
        raise ArgumentError(f"no layer q={q} registered")

    def zero_output_projections(self):
        """Silence every residual contribution: the model becomes the cascade."""
        for ls in self.layers:
            for e in range(self.eff.n_encoders):
                eb = f"q{ls.q}.enc{e}"
                for nm in (f"{eb}.qv.k", f"{eb}.qv.b", f"{eb}.ln_v.g",
                           f"{eb}.ln_v.b", f"{eb}.f2.k", f"{eb}.f2.b"):
                    self._p(nm).data[...] = 0.0

    # ---- forward pieces --------------------------------------------------

    def conv_embed(self, hc: Hypercorrelation) -> Tensor:
        """Strided conv4d + GELU stack squeezing the raw volume to d channels."""
        ls = self.spec_for(hc.layer)
        if hc.vol.shape[4] != ls.n_levels:
            raise DimensionError(
                f"layer {hc.layer}: channel extent {hc.vol.shape[4]} != {ls.n_levels}")
        if hc.vol.shape[:4] != ls.extents:
            raise DimensionError(
                f"layer {hc.layer}: extents {hc.vol.shape[:4]} != {ls.extents}")
        x = hc.vol
        s = self.embed_cfg.stride
        for i in range(self.embed_cfg.n_stages):
            k = self._p(f"q{hc.layer}.embed{i}.k")
            b = self._p(f"q{hc.layer}.embed{i}.b")
            x = tt.gelu(tt.add(conv4d(x, k, stride=(s, s, s, s)), b))
        return x

    def _tokens_last_pair(self, vol: Tensor) -> Tensor:
        """[h_s,w_s,h_t,w_t,d] -> [h_t*w_t, h_s*w_s*d] with target rows."""
        hs, ws, ht, wt, d = vol.shape
        moved = tt.transpose(vol, (2, 3, 0, 1, 4))
        return tt.reshape(moved, (ht * wt, hs * ws * d))

    def _qk_branch(self, mn: Tensor, which: str, base: str, app: Tensor) -> Tensor:
        s = self.eff.s
        conv = tt.add(
            conv4d(mn, self._p(f"{base}.{which}.k"), stride=(s, s, 1, 1)),
            self._p(f"{base}.{which}.b"))
        ln = "ln_q" if which == "qq" else "ln_k"
        normed = tt.layer_norm(conv, self._p(f"{base}.{ln}.g"), self._p(f"{base}.{ln}.b"))
        flat = self._tokens_last_pair(normed)
        proj = "pq" if which == "qq" else "pk"
        return tt.linear(tt.concat([flat, app], axis=1),
                         self._p(f"{base}.{proj}.w"), self._p(f"{base}.{proj}.b"))

    def _encoder(self, m: Tensor, app: Tensor, q: int, e: int) -> Tensor:
        """One attention round on the volume; locals are released once dead,
        so a no_grad pass does not hold them."""
        base = f"q{q}.enc{e}"
        hs, ws, ht, wt, d = m.shape
        mn = tt.layer_norm(m, self._p(f"{base}.ln_in.g"), self._p(f"{base}.ln_in.b"))
        pos = self._p(f"q{q}.pos")
        qmat = tt.add(self._qk_branch(mn, "qq", base, app), pos)
        kmat = tt.add(self._qk_branch(mn, "kk", base, app), pos)
        vconv = tt.add(conv4d(mn, self._p(f"{base}.qv.k")), self._p(f"{base}.qv.b"))
        del mn
        vnorm = tt.layer_norm(vconv, self._p(f"{base}.ln_v.g"), self._p(f"{base}.ln_v.b"))
        del vconv
        vmat = self._tokens_last_pair(vnorm)
        del vnorm
        zhat = tt.attention(qmat, kmat, vmat)
        del qmat, kmat, vmat
        z = tt.add(tt.transpose(tt.reshape(zhat, (ht, wt, hs, ws, d)), (2, 3, 0, 1, 4)), m)
        del zhat
        return self.volumetric_ffn(z, q, e)

    def volumetric_ffn(self, z: Tensor, q: int, e: int = 0) -> Tensor:
        """Channel-LN then two 4D convolutions (d -> r*d -> d) around a GELU."""
        base = f"q{q}.enc{e}"
        xn = tt.layer_norm(z, self._p(f"{base}.ffn_ln.g"), self._p(f"{base}.ffn_ln.b"))
        h1 = tt.gelu(tt.add(conv4d(xn, self._p(f"{base}.f1.k")), self._p(f"{base}.f1.b")))
        del xn
        x2 = tt.add(conv4d(h1, self._p(f"{base}.f2.k")), self._p(f"{base}.f2.b"))
        del h1
        return tt.add(x2, z)

    def _appearance(self, feat: FeatureMap, q: int, grid: tuple[int, int]) -> Tensor:
        resized = resize_features([feat], grid)[0]
        c = resized.grid.shape[-1]
        flat = tt.reshape(resized.grid, (grid[0] * grid[1], c))
        return tt.linear(flat, self._p(f"q{q}.appear.w"), self._p(f"q{q}.appear.b"))

    def efficient_block(self, m: Tensor, d_app: FeatureMap, q: int) -> Tensor:
        """n_encoders rounds of affinity attention + volumetric FFN."""
        hs, ws, ht, wt, _ = m.shape
        app = self._appearance(d_app, q, (ht, wt))
        x = m
        for e in range(self.eff.n_encoders):
            x = self._encoder(x, app, q, e)
        return x

    # ---- public entry ----------------------------------------------------

    def aggregate(self, hypers: list[Hypercorrelation],
                  feats_s: list[FeatureMap], feats_t: list[FeatureMap]) -> Tensor:
        """Coarse-to-fine aggregation; returns the finest aggregated volume."""
        if not hypers:
            raise ArgumentError("no hypercorrelations given")
        ordered = sorted(hypers, key=lambda h: h.layer, reverse=True)
        carry: Tensor | None = None
        out: Tensor | None = None
        for hc in ordered:
            m = self.conv_embed(hc)
            if carry is not None:
                # adjacent layers differ by exactly 2x in every spatial extent
                up = upsample4d_bilinear(carry, 2)
                if up.shape != m.shape:
                    raise ConfigError(
                        f"pyramid chain broken at layer {hc.layer}: "
                        f"upsampled {up.shape} vs embedded {m.shape}")
                m = tt.add(up, m)
            out = self._layer_parallel(m, hc.layer, feats_s, feats_t)
            carry = out
        return out

    def _layer_parallel(self, m: Tensor, q: int,
                        feats_s: list[FeatureMap], feats_t: list[FeatureMap]) -> Tensor:
        ds = _layer_feature(feats_s, q)
        dt = _layer_feature(feats_t, q)
        a = self.efficient_block(m, dt, q)
        b = self.efficient_block(_swap_vol(m), ds, q)
        return tt.scale(tt.add(a, _swap_vol(b)), 0.5)


def _swap_vol(v: Tensor) -> Tensor:
    return tt.transpose(v, (2, 3, 0, 1, 4))


def _layer_feature(feats: list[FeatureMap], q: int) -> FeatureMap:
    members = [f for f in feats if f.layer == q]
    if not members:
        raise ArgumentError(f"no features tagged layer {q}")
    return max(members, key=lambda f: f.level)
