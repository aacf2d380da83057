"""Central-difference verification of every differentiable op.

Each registered check builds small f64 inputs and a forward closure.
The analytic gradient of sum(out * w) (fixed random cotangent w) is
compared elementwise against central differences with step 1e-4. The
relative error uses max(1, |fd|) in the denominator so near-zero
entries are judged on absolute terms, and an op passes below 1e-4.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as tt
from .errors import ArgumentError
from .tensor import Tensor, backward, no_grad, tsum
from .volume_ops import conv4d, resize_bilinear2d, upsample4d_bilinear

__all__ = ["CHECKS", "check_op", "run_all", "finite_diff"]

F64 = np.float64

CHECKS: dict[str, Callable] = {}


def _register(name: str):
    def deco(fn):
        CHECKS[name] = fn
        return fn

    return deco


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.normal(size=shape), dtype=F64, requires_grad=True)


@_register("add")
def _chk_add(rng):
    a, b = _t(rng, 3, 4), _t(rng, 4)
    return [a, b], lambda: tt.add(a, b)


@_register("sub")
def _chk_sub(rng):
    a, b = _t(rng, 3, 4), _t(rng, 3, 1)
    return [a, b], lambda: tt.sub(a, b)


@_register("mul")
def _chk_mul(rng):
    a, b = _t(rng, 2, 5), _t(rng, 2, 5)
    return [a, b], lambda: tt.mul(a, b)


@_register("scale")
def _chk_scale(rng):
    a = _t(rng, 3, 3)
    return [a], lambda: tt.scale(a, -1.7)


@_register("reshape")
def _chk_reshape(rng):
    a = _t(rng, 2, 6)
    return [a], lambda: tt.reshape(a, (3, 4))


@_register("transpose")
def _chk_transpose(rng):
    a = _t(rng, 2, 3, 4)
    return [a], lambda: tt.transpose(a, (2, 0, 1))


@_register("concat")
def _chk_concat(rng):
    ts = [_t(rng, 2, 3), _t(rng, 2, 1), _t(rng, 2, 2)]
    return ts, lambda: tt.concat(ts, axis=1)


@_register("sum")
def _chk_sum(rng):
    a = _t(rng, 3, 4)
    return [a], lambda: tsum(a, axis=1)


@_register("mean")
def _chk_mean(rng):
    a = _t(rng, 4, 3)
    return [a], lambda: tt.tmean(a, axis=0)


@_register("matmul")
def _chk_matmul(rng):
    a, b = _t(rng, 4, 3), _t(rng, 3, 2)
    return [a, b], lambda: tt.matmul(a, b)


@_register("matmul_batched")
def _chk_matmul_batched(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 2, 4, 2)
    return [a, b], lambda: tt.matmul(a, b)


@_register("matmul_shared")
def _chk_matmul_shared(rng):
    a, b = _t(rng, 2, 3, 4), _t(rng, 4, 2)
    return [a, b], lambda: tt.matmul(a, b)


@_register("linear")
def _chk_linear(rng):
    x, w, b = _t(rng, 5, 3), _t(rng, 3, 2), _t(rng, 2)
    return [x, w, b], lambda: tt.linear(x, w, b)


@_register("ffn")
def _chk_ffn(rng):
    x, w1, b1 = _t(rng, 2, 3, 4), _t(rng, 4, 6), _t(rng, 6)
    w2, b2 = _t(rng, 6, 3), _t(rng, 3)
    return [x, w1, b1, w2, b2], lambda: tt.ffn(x, w1, b1, w2, b2)


@_register("attention")
def _chk_attention(rng):
    q, k, v = _t(rng, 2, 3, 4), _t(rng, 2, 5, 4), _t(rng, 2, 5, 3)
    return [q, k, v], lambda: tt.attention(q, k, v)


@_register("softmax")
def _chk_softmax(rng):
    x = _t(rng, 4, 5)
    return [x], lambda: tt.softmax(x, axis=-1)


@_register("relu")
def _chk_relu(rng):
    x = _t(rng, 3, 4)
    # keep samples away from the kink so FD is meaningful
    x.data += 0.1 * np.sign(x.data)
    return [x], lambda: tt.relu(x)


@_register("gelu")
def _chk_gelu(rng):
    x = _t(rng, 3, 4)
    return [x], lambda: tt.gelu(x)


@_register("layer_norm")
def _chk_layer_norm(rng):
    x = _t(rng, 4, 6)
    g = Tensor(1.0 + 0.1 * rng.normal(size=6), dtype=F64, requires_grad=True)
    b = _t(rng, 6)
    return [x, g, b], lambda: tt.layer_norm(x, g, b)


@_register("l2norm_last")
def _chk_l2norm(rng):
    x = _t(rng, 5, 3)
    low = np.linalg.norm(x.data, axis=-1) < 0.3
    x.data[low] += 1.0
    return [x], lambda: tt.l2norm_last(x)


@_register("l2_normalize_last")
def _chk_l2_normalize(rng):
    x = _t(rng, 5, 3)
    low = np.linalg.norm(x.data, axis=-1) < 0.3
    x.data[low] += 1.0
    return [x], lambda: tt.l2_normalize_last(x)


@_register("conv4d")
def _chk_conv4d(rng):
    x = _t(rng, 2, 3, 2, 2, 2)
    k = _t(rng, 3, 1, 3, 1, 2, 2)
    return [x, k], lambda: conv4d(x, k)


@_register("conv4d_strided")
def _chk_conv4d_strided(rng):
    x = _t(rng, 3, 3, 2, 2, 1)
    k = _t(rng, 3, 3, 1, 1, 1, 2)
    return [x, k], lambda: conv4d(x, k, stride=(2, 2, 1, 1))


@_register("conv4d_embed")
def _chk_conv4d_embed(rng):
    # the folded last kernel axis and a stride on every axis, as catspp's embed
    x = _t(rng, 3, 3, 3, 3, 2)
    k = _t(rng, 3, 3, 3, 3, 2, 2)
    return [x, k], lambda: conv4d(x, k, stride=(2, 2, 2, 2))


@_register("upsample4d")
def _chk_upsample(rng):
    x = _t(rng, 2, 2, 2, 2, 1)
    return [x], lambda: upsample4d_bilinear(x, 2)


@_register("resize2d")
def _chk_resize(rng):
    x = _t(rng, 3, 4, 2)
    return [x], lambda: resize_bilinear2d(x, (5, 3))


def finite_diff(f: Callable[[], float], t: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. every entry of t."""
    flat = t.data.reshape(-1)
    g = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(t.data.shape)


def check_op(name: str, seeds: int = 5) -> float:
    """Max relative error |analytic - fd| / max(1, |fd|) over all seeds."""
    if name not in CHECKS:
        raise ArgumentError(f"unknown op '{name}'; known: {sorted(CHECKS)}")
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        inputs, fwd = CHECKS[name](rng)
        out = fwd()
        w = rng.normal(size=out.shape)
        wt = Tensor(w, dtype=F64)

        def scalar() -> float:
            return float(np.sum(fwd().data * w))

        for t in inputs:
            t.grad = None
        backward(tsum(tt.mul(out, wt)))
        for t in inputs:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            fd = finite_diff(scalar, t)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
    return worst


def run_all(ops="all", seeds: int = 5):
    """Check the named ops (or all); returns rows (name, max_rel_err, ok)."""
    names = sorted(CHECKS) if ops in ("all", None) else [ops]
    rows = []
    for name in names:
        err = check_op(name, seeds=seeds)
        rows.append((name, err, err < 1e-4))
    return rows
