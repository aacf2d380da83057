"""Parameter, memory, and timing instrumentation.

The headline comparison puts the reduced-token efficient encoder next to a
standard transformer encoder given the same token count and per-token
feature extent (flattened correlation row plus appearance). The standard
block here exists only to be measured: its parameters follow the usual
4F^2 attention + 2rF^2 FFN + norms + positional table layout.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np

from . import tensor as tt
from .catspp import CATSPP_PREFIX, CatsPPAggregator
from .correlation import FeatureMap
from .flow import aepe
from .model import CatsPPModel
from .params import ParamStore
from .tensor import Tensor

__all__ = ["standard_block_params", "efficient_block_params",
           "matched_dims", "StandardBlock", "peak_forward_bytes",
           "compare_blocks", "time_model", "param_table"]


def standard_block_params(tokens: int, feat: int, ffn_ratio: int = 4) -> int:
    """Learnable scalars in a standard pre-LN encoder at [tokens, feat].

    QKVO projections with biases, two layer norms, the FFN pair, and a
    positional table covering every token.
    """
    attn = 4 * (feat * feat + feat)
    norms = 4 * feat
    ffn = 2 * ffn_ratio * feat * feat + (ffn_ratio + 1) * feat
    pos = tokens * feat
    return attn + norms + ffn + pos


def matched_dims(agg: CatsPPAggregator, q: int) -> tuple[int, int]:
    """(tokens, feat) a standard encoder would need for layer q's volume."""
    spec = agg.spec_for(q)
    hs, ws, ht, wt = spec.embedded(agg.embed_cfg)
    return ht * wt, hs * ws * agg.embed_cfg.d + agg.eff.p


def efficient_block_params(agg: CatsPPAggregator, q: int) -> int:
    """One encoder's learnables plus the layer's positional table."""
    per_enc = agg.store.n_params(f"{CATSPP_PREFIX}.q{q}.enc0")
    pos = agg.store[f"{CATSPP_PREFIX}.q{q}.pos"].size
    return per_enc + pos


class StandardBlock:
    """Throwaway standard encoder used as the measurement baseline."""

    def __init__(self, store: ParamStore, tokens: int, feat: int,
                 ffn_ratio: int = 4, prefix: str = "std"):
        self.store = store
        self.prefix = prefix
        self.feat = feat
        self.ffn_ratio = ffn_ratio
        add = store.add
        add(f"{prefix}.pos", (tokens, feat), init="zeros")
        for nm in ("wq", "wk", "wv", "wo"):
            add(f"{prefix}.{nm}", (feat, feat))
            add(f"{prefix}.b{nm[1]}", (feat,), init="zeros")
        add(f"{prefix}.ln1.g", (feat,), init="ones")
        add(f"{prefix}.ln1.b", (feat,), init="zeros")
        add(f"{prefix}.ln2.g", (feat,), init="ones")
        add(f"{prefix}.ln2.b", (feat,), init="zeros")
        add(f"{prefix}.ffn.w1", (feat, ffn_ratio * feat))
        add(f"{prefix}.ffn.b1", (ffn_ratio * feat,), init="zeros")
        add(f"{prefix}.ffn.w2", (ffn_ratio * feat, feat))
        add(f"{prefix}.ffn.b2", (feat,), init="zeros")

    def _p(self, name: str) -> Tensor:
        return self.store[f"{self.prefix}.{name}"]

    def forward(self, x: Tensor) -> Tensor:
        """Single-head pre-LN encoder on [tokens, feat]."""
        x = tt.add(x, self._p("pos"))
        h = tt.layer_norm(x, self._p("ln1.g"), self._p("ln1.b"))
        qm = tt.linear(h, self._p("wq"), self._p("bq"))
        km = tt.linear(h, self._p("wk"), self._p("bk"))
        vm = tt.linear(h, self._p("wv"), self._p("bv"))
        ctx = tt.attention(qm, km, vm)
        x = tt.add(x, tt.linear(ctx, self._p("wo"), self._p("bo")))
        h = tt.layer_norm(x, self._p("ln2.g"), self._p("ln2.b"))
        h = tt.gelu(tt.linear(h, self._p("ffn.w1"), self._p("ffn.b1")))
        return tt.add(x, tt.linear(h, self._p("ffn.w2"), self._p("ffn.b2")))


def peak_forward_bytes(fn) -> int:
    """`tracemalloc` peak above the starting level while fn() runs under
    no_grad: tensor buffers, op temporaries and padded copies alike.

    A tracer the caller started keeps running (its peak is reset); otherwise
    one is started for the call and stopped after it.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with tt.no_grad():
            fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def compare_blocks(model: CatsPPModel, q: int) -> dict:
    """Params and peak forward bytes: efficient encoder vs standard block."""
    agg = model.agg
    tokens, feat = matched_dims(agg, q)
    spec = agg.spec_for(q)
    hs, ws, ht, wt = spec.embedded(agg.embed_cfg)
    d = agg.embed_cfg.d

    rng = np.random.default_rng(0)
    m = Tensor(rng.normal(size=(hs, ws, ht, wt, d)).astype(np.float32))
    # appearance source: the layer's native target-side feature map
    n = spec.extents[2]
    fmap = FeatureMap(level=0, layer=q, grid=Tensor(
        rng.normal(size=(n, n, spec.app_channels)).astype(np.float32)))

    std_store = ParamStore(rng=np.random.default_rng(0), dtype=np.float32)
    std = StandardBlock(std_store, tokens, feat)
    x = Tensor(rng.normal(size=(tokens, feat)).astype(np.float32))

    eff_params = efficient_block_params(agg, q)
    std_params = std_store.n_params("std")
    assert std_params == standard_block_params(tokens, feat), \
        "standard block drifted from its own formula"
    return {
        "q": q,
        "tokens": tokens,
        "feat": feat,
        "efficient.params": eff_params,
        "standard.params": std_params,
        "ratio": eff_params / std_params,
        "efficient.peak_bytes": peak_forward_bytes(
            lambda: agg.efficient_block(m, fmap, q)),
        "standard.peak_bytes": peak_forward_bytes(lambda: std.forward(x)),
    }


def time_model(model, pair) -> dict:
    """Wall time for one forward and one forward+backward, in milliseconds."""
    with tt.no_grad():
        model.flow(pair.source, pair.target)  # warm any lazy setup
    t0 = time.perf_counter()
    with tt.no_grad():
        model.flow(pair.source, pair.target)
    fwd = time.perf_counter() - t0

    gt = pair.gt_flow(model.flow_grid, dtype=model.store.dtype)
    t0 = time.perf_counter()
    pred = model.flow(pair.source, pair.target)
    loss = aepe(pred, gt)
    model.store.zero_grad()
    tt.backward(loss)
    both = time.perf_counter() - t0
    return {"forward_ms": fwd * 1e3, "forward_backward_ms": both * 1e3}


def param_table(store: ParamStore) -> dict[str, int]:
    """Scalar counts per top-level prefix plus the total."""
    tops = sorted({name.split(".", 1)[0] for name in store.names()})
    table = {top: store.n_params(top) for top in tops}
    table["total"] = store.n_params()
    return table
