"""Dense tensor engine with reverse-mode differentiation.

Tensors wrap contiguous numpy arrays (f32 by default, f64 for gradient
checking). Every differentiable op hangs a small graph node on its output:
the op name, a vector-Jacobian closure, and the nodes of its inputs (a leaf
input appears as its own tensor). Nodes never hold interior tensors, so an
activation stays alive only while some closure captured it. ``backward``
consumes the graph: it walks the nodes in reverse topological order, drops
each node's closure and inputs once it has run, and writes ``.grad`` on
leaves only. Under ``no_grad`` nothing is recorded, so pure inference
retains no activations.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError, NumericError, StateError

F32 = np.float32
F64 = np.float64
_ALLOWED = (np.dtype(F32), np.dtype(F64))

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


def _check_finite() -> bool:
    return getattr(_state, "check_finite", False)


@contextmanager
def no_grad():
    """Inference mode: ops record no graph and retain no activations."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextmanager
def finite_check():
    """Debug mode: every op output is checked for NaN/Inf."""
    prev = _check_finite()
    _state.check_finite = True
    try:
        yield
    finally:
        _state.check_finite = prev


class _MemMeter:
    """Tracks bytes held by live tensor buffers (views excluded).

    A buffer counts while its `Tensor` lives; arrays that VJP closures
    captured and op temporaries are not counted. Its one reader is the
    benchmark's traced one-step decomposition (`tensor.meter_peak_bytes`);
    the package itself reports `tracemalloc` peaks.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def alloc(self, n: int):
        with self._lock:
            self.current += n
            if self.current > self.peak:
                self.peak = self.current

    def free(self, n: int):
        with self._lock:
            self.current -= n

    def reset_peak(self):
        with self._lock:
            self.peak = self.current


MEM = _MemMeter()


class Tensor:
    """A shaped array of f32/f64 scalars with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED:
            arr = arr.astype(F32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        if self.data.base is None:
            n = self.data.nbytes
            MEM.alloc(n)
            weakref.finalize(self, MEM.free, n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        """Drop the gradient; the next backward that reaches this tensor
        writes a fresh one."""
        self.grad = None

    def __repr__(self):
        op = "leaf" if self._node is None else self._node.op
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={op})"


class _Node:
    """One recorded op. Each entry of `parents` is the input's own node, the
    input tensor itself when it is a leaf that requires grad, or None for a
    constant input; `backward` clears `vjp` and `parents` once it has run."""

    __slots__ = ("op", "vjp", "parents")

    def __init__(self, op: str, vjp, parents: tuple):
        self.op = op
        self.vjp = vjp
        self.parents = parents


def _graph_entry(t: Tensor):
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _make(out_data: np.ndarray, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording a graph node when grad mode is on."""
    if _check_finite() and not np.all(np.isfinite(out_data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    t = Tensor(out_data, requires_grad=track)
    if track:
        t._node = _Node(op, vjp, tuple(_graph_entry(p) for p in parents))
    return t


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_same_dtype(*ts: Tensor):
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise DimensionError(f"mixed dtypes {d0} vs {t.data.dtype}")


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def _binary(op: str, ufunc, a: Tensor, b: Tensor, vjp) -> Tensor:
    """ufunc(a, b) under numpy broadcasting, recorded as `op`."""
    _check_same_dtype(a, b)
    try:
        out = ufunc(a.data, b.data)
    except ValueError as e:
        raise DimensionError(f"{op}: shapes {a.shape} vs {b.shape}") from e
    return _make(out, op, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _binary("add", np.add, a, b,
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    return _binary("sub", np.subtract, a, b,
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return _binary("mul", np.multiply, a, b,
                   lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    """A view of a's buffer, which is contiguous like every tensor's."""
    shape = tuple(int(x) for x in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape {a.shape} -> {shape}") from e
    in_shape = a.shape
    return _make(out, "reshape", (a,), lambda g: (g.reshape(in_shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: bad axes {axes} for ndim {a.ndim}")
    inv = tuple(np.argsort(axes))
    out = np.ascontiguousarray(a.data.transpose(axes))
    return _make(out, "transpose", (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis: int) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise DimensionError("concat: empty tensor list")
    _check_same_dtype(*ts)
    axis = axis if axis >= 0 else ts[0].ndim + axis
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise DimensionError("concat: incompatible shapes") from e
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(out, "concat", tuple(ts), vjp)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)
    in_shape = a.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(np.asarray(out), "sum", (a,), vjp)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    if n == 0:
        raise DimensionError("mean over empty axis")
    return scale(tsum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; batched when both operands carry equal leading dims,
    or when b is a 2-D shared weight.

    With a shared weight, a's leading axes fold into one row axis, so the
    forward and both gradients each run as a single 2-D GEMM instead of one
    small GEMM per leading index.
    """
    _check_same_dtype(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul requires rank >= 2 operands")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents {a.shape} x {b.shape}")
    if a.ndim != b.ndim and b.ndim != 2:
        raise DimensionError(f"matmul: batch ranks {a.shape} x {b.shape}")
    if a.ndim == b.ndim and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch extents {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    if bd.ndim == 2 and ad.ndim > 2:
        rows, (k, n) = math.prod(ad.shape[:-1]), bd.shape
        # a fresh buffer, so the output owns its memory and MEM counts it
        out = np.empty(ad.shape[:-1] + (n,), dtype=ad.dtype)
        np.matmul(ad.reshape(rows, k), bd, out=out.reshape(rows, n))

        def vjp(g):
            g2 = g.reshape(rows, n)  # copies when g arrives as a view
            return (g2 @ bd.T).reshape(ad.shape), ad.reshape(rows, k).T @ g2
    else:
        out = ad @ bd

        def vjp(g):
            return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _make(out, "matmul", (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x."""
    return add(matmul(x, w), b)


_ATTN_BLOCK = 1 << 21  # logits bytes per attention block: about one core's L2


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q @ kᵀ / sqrt(d)) @ v over the last two axes, d = q.shape[-1].

    One recorded op. The leading axes are walked in blocks whose logits fit
    in `_ATTN_BLOCK` bytes, and the VJP recomputes each block's
    probabilities instead of keeping them, so neither pass holds the full
    [..., Tq, Tk] logits. Both passes run the numpy operations of transpose,
    matmul, scale, softmax and matmul in the same order, bit for bit.
    """
    _check_same_dtype(q, k, v)
    if not q.ndim == k.ndim == v.ndim >= 2:
        raise DimensionError(f"attention: ranks {q.shape}, {k.shape}, {v.shape}")
    lead = q.shape[:-2]
    if k.shape[:-2] != lead or v.shape[:-2] != lead:
        raise DimensionError(f"attention: lead extents {q.shape}, {k.shape}, {v.shape}")
    (tq, d), (tk, dv) = q.shape[-2:], v.shape[-2:]
    if k.shape[-2:] != (tk, d):
        raise DimensionError(f"attention: k {k.shape} does not match q {q.shape}, v {v.shape}")
    if d == 0 or tk == 0:
        raise DimensionError(f"attention: empty feature or token axis in k {k.shape}")
    n = math.prod(lead)
    qd, vd = q.data.reshape(n, tq, d), v.data.reshape(n, tk, dv)
    kt = np.ascontiguousarray(k.data.reshape(n, tk, d).transpose(0, 2, 1))
    s = q.data.dtype.type(d ** -0.5)
    step = max(1, _ATTN_BLOCK // max(1, tq * tk * q.data.itemsize))
    blocks = [slice(i, i + step) for i in range(0, n, step)]

    def probs(blk):
        p = qd[blk] @ kt[blk]
        p *= s
        return _softmax_into(p, p, -1)

    out = np.empty(lead + (tq, dv), dtype=qd.dtype)
    out3 = out.reshape(n, tq, dv)
    for blk in blocks:
        np.matmul(probs(blk), vd[blk], out=out3[blk])

    def vjp(g):
        g = g.reshape(n, tq, dv)
        gq = np.empty(lead + (tq, d), dtype=qd.dtype)
        gkt = np.empty(lead + (d, tk), dtype=qd.dtype)
        gv = np.empty(lead + (tk, dv), dtype=qd.dtype)
        gq3, gkt3, gv3 = gq.reshape(n, tq, d), gkt.reshape(n, d, tk), gv.reshape(n, tk, dv)
        for blk in blocks:
            p = probs(blk)
            gp = g[blk] @ vd[blk].swapaxes(-1, -2)
            np.matmul(p.swapaxes(-1, -2), g[blk], out=gv3[blk])
            dot = (gp * p).sum(axis=-1, keepdims=True)
            gp -= dot
            gp *= p  # the softmax VJP, p * (gp - dot)
            gp *= s
            np.matmul(gp, kt[blk].swapaxes(-1, -2), out=gq3[blk])
            np.matmul(qd[blk].swapaxes(-1, -2), gp, out=gkt3[blk])
        return gq, gkt.swapaxes(-1, -2), gv

    return _make(out, "attention", (q, k, v), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def _softmax_into(src: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of `src` along `axis`, written into `out` (which may be `src`)."""
    np.subtract(src, src.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def softmax(x: Tensor, axis: int) -> Tensor:
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= ax < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for {x.shape}")
    if x.shape[ax] == 0:
        raise DimensionError("softmax over empty axis")
    out = _softmax_into(x.data, np.empty_like(x.data), ax)

    def vjp(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, "softmax", (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0), "relu", (x,), lambda g: (g * mask,))


# Phi(-z) = exp(-z^2/2) * N(z) / D(z) below _GELU_CF_FROM, with Hart's (1968)
# rational as given by West (2005), "Better approximations to cumulative
# normal functions"; West's continued fraction takes the tail beyond it.
_HART_N = (3.52624965998911e-02, 0.700383064443688, 6.37396220353165,
           33.912866078383, 112.079291497871, 221.213596169931, 220.206867912376)
_HART_D = (8.83883476483184e-02, 1.75566716318264, 16.064177579207,
           86.7807322029461, 296.564248779674, 637.333633378831,
           793.826512519948, 440.413735824752)
_GELU_CF_FROM = 7.07106781186547
_GELU_BLOCK = 1 << 15  # elements per block: keeps the scratch cache-sized


def _horner(coeffs, z, acc):
    np.multiply(z, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= z
    acc += coeffs[-1]
    return acc


def _gelu_block(x, out, dydx, z, e, q, d):
    """x * Phi(x) of one flat block into `out`, and its derivative into
    `dydx` unless None; z, e, q and d are scratch of x's size. `out` may be
    `x` when `dydx` is None, and `dydx` may be `x`."""
    np.abs(x, out=z)
    np.minimum(z, 40.0, out=z)  # exp(-z^2/2) is 0 by then; z^2 stays finite
    np.multiply(z, z, out=e)
    e *= -0.5
    np.exp(e, out=e)
    _horner(_HART_N, z, q)
    q *= e
    q /= _horner(_HART_D, z, d)
    if z.max() >= _GELU_CF_FROM:
        far = np.flatnonzero(z >= _GELU_CF_FROM)
        zf = z[far]
        b = zf + 0.65
        for k in (4.0, 3.0, 2.0, 1.0):
            b = zf + k / b
        q[far] = e[far] / b / math.sqrt(2.0 * math.pi)
    # x * Phi(x) = max(x, 0) - z * Phi(-z): no cancellation for either sign
    np.maximum(x, 0.0, out=out)
    out -= np.multiply(z, q, out=d)
    if dydx is not None:  # Phi(x) + x * phi(x); x is read before dydx may overwrite it
        np.subtract(0.5, q, out=d)
        np.copysign(d, x, out=d)
        d += 0.5
        np.multiply(x, e, out=dydx)
        dydx *= 1.0 / math.sqrt(2.0 * math.pi)
        dydx += d


def _gelu_into(x: np.ndarray, out: np.ndarray, dydx: np.ndarray | None):
    """GELU of contiguous `x` into `out` (and its derivative into `dydx`),
    block by block so that temporaries stay small; aliasing as `_gelu_block`."""
    flat, oflat = x.reshape(-1), out.reshape(-1)
    dflat = dydx.reshape(-1) if dydx is not None else None
    scratch = [np.empty(min(_GELU_BLOCK, flat.size), dtype=x.dtype) for _ in range(4)]
    for i in range(0, flat.size, _GELU_BLOCK):
        blk = slice(i, i + _GELU_BLOCK)
        m = len(flat[blk])
        _gelu_block(flat[blk], oflat[blk], dflat[blk] if dflat is not None else None,
                    *(s[:m] for s in scratch))


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF, computed in
    x's dtype."""
    xd = x.data
    out = np.empty_like(xd)
    dydx = np.empty_like(xd) if _grad_enabled() and x.requires_grad else None
    _gelu_into(xd, out, dydx)
    # the graph is consumed once, so the VJP may write into dydx
    return _make(out, "gelu", (x,), lambda g: (np.multiply(g, dydx, out=dydx),))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 over the last axis of x, as one recorded op.

    x's leading axes fold into one row axis, so each product is a single 2-D
    GEMM, as in `matmul`'s shared-weight branch. The hidden buffer is reused:
    the bias is added in place, gelu writes its derivative over it (or, under
    no_grad, its output), and the VJP multiplies the hidden gradient into it.
    The node keeps x, the gelu output and its derivative and no other
    hidden-sized array. Every result is bit for bit that of linear, gelu,
    linear.
    """
    _check_same_dtype(x, w1, b1, w2, b2)
    if x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2:
        raise DimensionError(f"ffn: ranks {x.shape}, {w1.shape}, {w2.shape}")
    (k, m), n = w1.shape, w2.shape[1]
    if x.shape[-1] != k or w2.shape[0] != m or b1.shape != (m,) or b2.shape != (n,):
        raise DimensionError(f"ffn: extents {x.shape}, {w1.shape}, {b1.shape}, "
                             f"{w2.shape}, {b2.shape}")
    lead = x.shape[:-1]
    rows = math.prod(lead)
    xd, w1d, w2d = x.data.reshape(rows, k), w1.data, w2.data
    h = np.empty((rows, m), dtype=xd.dtype)
    np.matmul(xd, w1d, out=h)
    h += b1.data
    grad = _grad_enabled() and any(t.requires_grad for t in (x, w1, b1, w2, b2))
    y, dydx = (np.empty_like(h), h) if grad else (h, None)
    _gelu_into(h, y, dydx)
    out = np.empty(lead + (n,), dtype=xd.dtype)
    np.matmul(y, w2d, out=out.reshape(rows, n))
    out += b2.data

    def vjp(g):
        nonlocal y
        gb2 = _unbroadcast(g, (n,))
        g2 = g.reshape(rows, n)  # copies when g arrives as a view
        gw2 = y.T @ g2
        y = None  # the graph is consumed once: its slot goes to dy
        ga = np.multiply(g2 @ w2d.T, dydx, out=dydx)
        gb1 = _unbroadcast(ga.reshape(lead + (m,)), (m,))
        gw1 = xd.T @ ga
        return (ga @ w1d.T).reshape(x.shape), gw1, gb1, gw2, gb2

    return _make(out, "ffn", (x, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (feature) axis with eps 1e-5, then apply gamma/beta."""
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise DimensionError("layer_norm: empty feature axis")
    if gamma.shape != (n,) or beta.shape != (n,):
        raise DimensionError(f"layer_norm: gamma/beta must have extent {n}")
    _check_same_dtype(x, gamma, beta)
    dt = x.data.dtype
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dt.type(1e-5))
    xhat = xc * inv
    out = xhat * gamma.data + beta.data
    gd = gamma.data

    def vjp(g):
        red = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        gg = g * gd
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        # dx = (gg - m1 - xhat * m2) * inv, built in gg with xhat as scratch
        # (the graph is consumed once)
        gg -= m1
        gg -= np.multiply(xhat, m2, out=xhat)
        gg *= inv
        return gg.astype(dt, copy=False), dgamma, dbeta

    return _make(out.astype(dt, copy=False), "layer_norm", (x, gamma, beta), vjp)


def l2norm_last(x: Tensor) -> Tensor:
    """Euclidean norm over the last axis; zero subgradient at zero vectors."""
    xd = x.data
    sq = (xd * xd).sum(axis=-1)
    n = np.sqrt(sq)
    safe = np.where(n > 0, n, 1.0)

    def vjp(g):
        return ((g / safe)[..., None] * xd * (n > 0)[..., None],)

    return _make(n, "l2norm_last", (x,), vjp)


def l2_normalize_last(x: Tensor) -> Tensor:
    """x / ||x|| over the last axis; zero vectors stay exactly zero."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    inv = np.where(n > 0, 1.0 / np.where(n > 0, n, 1.0), 0.0).astype(x.data.dtype)
    y = x.data * inv

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) * inv,)

    return _make(y, "l2_normalize_last", (x,), vjp)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into the leaves it depends on.

    Visits each recorded node exactly once in reverse topological order and
    consumes the graph as it goes: a node's closure and inputs are dropped
    once its VJP has run, and only leaves receive ``.grad``. Every VJP
    returns its inputs' gradients in their shapes and dtypes, and they are
    accumulated as returned. A second backward through a consumed node is
    a StateError.
    """
    if loss.size != 1:
        raise DimensionError(f"backward: loss must be scalar, got shape {loss.shape}")
    root = _graph_entry(loss)
    if root is None:
        raise StateError("backward: loss carries no graph (built in infer mode?)")

    topo: list[_Node | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            if node.vjp is None:
                raise StateError(f"backward: graph through op '{node.op}' was "
                                 f"already consumed by an earlier backward")
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if isinstance(node, Tensor):
            if g is not None:
                node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        if g is not None:
            parent_grads = node.vjp(g)
            for p, pg in zip(node.parents, parent_grads):
                if p is None or pg is None:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
        node.vjp = None
        node.parents = ()
