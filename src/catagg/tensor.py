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
from scipy.special import erf

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

    A buffer counts while its `Tensor` lives. Arrays that VJP closures
    captured outlive their tensors and are not counted, nor are op
    temporaries, so the figure describes `no_grad` forwards, not train steps.
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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        op = "leaf" if self._node is None else self._node.op
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={op})"

    # operator sugar (scalars or same-dtype tensors)
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class _Node:
    """One recorded op. Each entry of `parents` is the input's own node, the
    input tensor itself when it is a leaf that requires grad, or None for a
    constant input; `backward` clears `vjp` and `parents` once it has run."""

    __slots__ = ("op", "vjp", "parents", "parent_shapes")

    def __init__(self, op: str, vjp, parents: tuple, parent_shapes: tuple):
        self.op = op
        self.vjp = vjp
        self.parents = parents
        self.parent_shapes = parent_shapes


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
        t._node = _Node(op, vjp, tuple(_graph_entry(p) for p in parents),
                        tuple(p.shape for p in parents))
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


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        out = a.data + a.data.dtype.type(b)
        return _make(out, "add_scalar", (a,), lambda g: (g,))
    _check_same_dtype(a, b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise DimensionError(f"add: shapes {a.shape} vs {b.shape}") from e

    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(out, "add", (a, b), vjp)


def sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return add(a, -b)
    _check_same_dtype(a, b)
    try:
        out = a.data - b.data
    except ValueError as e:
        raise DimensionError(f"sub: shapes {a.shape} vs {b.shape}") from e

    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _make(out, "sub", (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        return scale(a, b)
    _check_same_dtype(a, b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise DimensionError(f"mul: shapes {a.shape} vs {b.shape}") from e
    ad, bd = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _make(out, "mul", (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(x) for x in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape {a.shape} -> {shape}") from e
    in_shape = a.shape
    return _make(out.copy(), "reshape", (a,), lambda g: (g.reshape(in_shape),))


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


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(np.asarray(out), "sum", (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    if n == 0:
        raise DimensionError("mean over empty axis")
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


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


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q @ kᵀ / sqrt(d)) @ v over the last two axes, d = q.shape[-1]."""
    swap = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    logits = scale(matmul(q, transpose(k, swap)), q.shape[-1] ** -0.5)
    return matmul(softmax(logits, axis=-1), v)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax(x: Tensor, axis: int) -> Tensor:
    ax = axis if axis >= 0 else x.ndim + axis
    if not 0 <= ax < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for {x.shape}")
    if x.shape[ax] == 0:
        raise DimensionError("softmax over empty axis")
    out = np.subtract(x.data, x.data.max(axis=ax, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, "softmax", (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0), "relu", (x,), lambda g: (g * mask,))


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: x * Phi(x) with Phi the standard normal CDF."""
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd / np.sqrt(xd.dtype.type(2.0))))
    out = (xd * phi).astype(xd.dtype, copy=False)
    if not (_grad_enabled() and x.requires_grad):
        return _make(out, "gelu", (x,), None)
    pdf = np.exp(-0.5 * xd * xd) / xd.dtype.type(math.sqrt(2.0 * math.pi))
    dydx = phi + xd * pdf

    def vjp(g):
        return (g * dydx.astype(g.dtype),)

    return _make(out, "gelu", (x,), vjp)


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
        gg = g * gd
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        dx = (gg - m1 - xhat * m2) * inv
        red = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=red)
        dbeta = g.sum(axis=red)
        return dx.astype(dt), dgamma, dbeta

    return _make(out.astype(dt), "layer_norm", (x, gamma, beta), vjp)


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
    once its VJP has run, and only leaves receive ``.grad``. A second
    backward through a consumed node is a StateError.
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
            for p, shape, pg in zip(node.parents, node.parent_shapes, parent_grads):
                if p is None or pg is None:
                    continue
                if pg.shape != shape:
                    pg = pg.reshape(shape)
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
        node.vjp = None
        node.parents = ()
