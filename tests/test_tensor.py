import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catagg import tensor as T
from catagg.errors import DimensionError, NumericError, StateError
from catagg.gradcheck import CHECKS, check_op


def test_matmul_identity():
    b = np.random.default_rng(0).normal(size=(3, 4))
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_hand():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_triple_loop_oracle():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 3))
    want = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(T.Tensor(a, dtype=np.float64), T.Tensor(b, dtype=np.float64))
    assert np.abs(got.data - want).max() < 1e-6


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("lead", [(5,), (2, 3)])
def test_matmul_shared_weight_folds_leading_axes(lead):
    # a rank-3/4 operand times a 2-D weight, followed by a transpose, as in
    # cats._mha: the upstream gradient reaches matmul as a non-contiguous view
    rng = np.random.default_rng(3)
    av, wv = rng.normal(size=lead + (4, 6)), rng.normal(size=(6, 7))
    swap = tuple(range(len(lead))) + (len(lead) + 1, len(lead))
    c = rng.normal(size=lead + (7, 4))
    a = T.Tensor(av, dtype=np.float64, requires_grad=True)
    w = T.Tensor(wv, dtype=np.float64, requires_grad=True)
    y = T.matmul(a, w)
    assert y.data.base is None  # owns its buffer, so MEM counts it
    T.backward(T.tsum(T.mul(T.transpose(y, swap), T.Tensor(c, dtype=np.float64))))
    g = np.swapaxes(c, -1, -2)
    rows = "rst"[:len(lead) + 1]  # einsum sums only named axes out of its output
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y.data, np.einsum("...k,kn->...n", av, wv), **tol)
    np.testing.assert_allclose(a.grad, np.einsum("...n,kn->...k", g, wv), **tol)
    np.testing.assert_allclose(w.grad, np.einsum(f"{rows}k,{rows}n->kn", av, g), **tol)


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_overflow_guard():
    out = T.softmax(T.Tensor([1000.0, 0.0], dtype=np.float64), axis=-1)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_exp_sum_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=9)
    e = np.exp(x)
    want = e / e.sum()
    got = T.softmax(T.Tensor(x, dtype=np.float64), axis=0)
    assert np.abs(got.data - want).max() < 1e-7


def test_softmax_empty_axis():
    with pytest.raises(DimensionError):
        T.softmax(T.Tensor(np.zeros((2, 0))), axis=1)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(1, 6)),
           elements=st.floats(-1e3, 1e3, width=32)),
)
def test_softmax_rows_sum_to_one(x):
    out = T.softmax(T.Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
    out64 = T.softmax(T.Tensor(x, dtype=np.float64), axis=-1)
    np.testing.assert_allclose(out64.data.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_constant_slice():
    out = T.layer_norm(
        T.Tensor(np.full((2, 5), 3.7)), T.Tensor(np.ones(5)), T.Tensor(np.zeros(5))
    )
    np.testing.assert_allclose(out.data, 0.0, atol=1e-3)


def test_layer_norm_already_normalized():
    # unit variance already: only the fixed eps = 1e-5 rescales the input
    out = T.layer_norm(
        T.Tensor([[1.0, -1.0]], dtype=np.float64),
        T.Tensor(np.ones(2), dtype=np.float64),
        T.Tensor(np.zeros(2), dtype=np.float64),
    )
    np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1 + 1e-5),
                               rtol=1e-12)


def test_layer_norm_moments_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 9))
    g = rng.normal(size=9)
    b = rng.normal(size=9)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * g + b
    got = T.layer_norm(
        T.Tensor(x, dtype=np.float64),
        T.Tensor(g, dtype=np.float64),
        T.Tensor(b, dtype=np.float64),
    )
    assert np.abs(got.data - want).max() < 1e-6


def test_layer_norm_empty_feature_axis():
    with pytest.raises(DimensionError):
        T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.ones(0)), T.Tensor(np.zeros(0)))


def test_relu_values():
    out = T.relu(T.Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_gelu_values():
    out = T.gelu(T.Tensor([0.0, 1.0], dtype=np.float64))
    assert out.data[0] == 0.0
    np.testing.assert_allclose(out.data[1], 0.8413447460685429, atol=1e-12)


def _gelu_reference(x):
    """f64 x * Phi(x) and its derivative from math.erfc, which keeps the far
    negative tail that 1 + erf(x / sqrt 2) would cancel to zero."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.ravel()]).reshape(x.shape)
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x * phi, phi + x * pdf


def _gelu_with_grad(x):
    t = T.Tensor(x, requires_grad=True)
    y = T.gelu(t)
    T.backward(T.tsum(y))
    return y.data, t.grad


def test_gelu_accuracy_against_erfc():
    x = np.linspace(-14.0, 14.0, 200_001)
    want, dwant = _gelu_reference(x)
    x32 = x.astype(np.float32)
    y32, d32 = _gelu_with_grad(x32)
    assert y32.dtype == d32.dtype == np.float32
    ref32, dref32 = _gelu_reference(x32)
    assert np.abs(y32 - ref32).max() <= 3e-7
    assert np.abs(d32 - dref32).max() <= 2e-7
    # the negative tail is kept, not flushed to zero: every f32 output lies
    # within 128 units in the last place of the exact value
    ulp = np.spacing(np.abs(ref32).astype(np.float32)).astype(np.float64)
    assert (np.abs(y32 - ref32) / ulp).max() <= 128
    y64, d64 = _gelu_with_grad(x)
    assert np.abs(y64 - want).max() <= 4e-15
    assert np.abs(d64 - dwant).max() <= 4e-15


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_special_values(dtype):
    out = T.gelu(T.Tensor([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)).data
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] == np.inf
    assert out[3] == 0.0 and np.isnan(out[4])
    assert T.gelu(T.Tensor(np.zeros((0, 3)), dtype=dtype)).shape == (0, 3)
    scalar = T.gelu(T.Tensor(dtype(1.0), dtype=dtype))  # stored as shape (1,)
    assert scalar.size == 1 and scalar.data.dtype == dtype
    np.testing.assert_allclose(scalar.data, _gelu_reference(1.0)[0], rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_blocks_equal_slices(dtype):
    # 2 blocks + 3 elements, wide enough to reach the continued-fraction tail
    # in every block: the seams must not change a bit of output or gradient
    n = 2 * T._GELU_BLOCK + 3
    x = np.random.default_rng(3).uniform(-12.0, 12.0, size=n).astype(dtype)
    y, d = _gelu_with_grad(x)
    parts = [_gelu_with_grad(x[i:i + 1000]) for i in range(0, n, 1000)]
    np.testing.assert_array_equal(y, np.concatenate([p[0] for p in parts]))
    np.testing.assert_array_equal(d, np.concatenate([p[1] for p in parts]))


def test_backward_sum_gives_ones():
    x = T.Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_quadratic():
    xval = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float64)
    x = T.Tensor(xval, requires_grad=True)
    T.backward(T.scale(T.tsum(T.mul(x, x)), 0.5))
    np.testing.assert_allclose(x.grad, xval, atol=1e-7)


def test_backward_accumulates_across_calls():
    x = T.Tensor(np.ones(3), requires_grad=True)
    x.zero_grad()
    T.backward(T.tsum(x))
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))


def test_backward_infer_mode_is_error():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        loss = T.tsum(x)
    with pytest.raises(StateError):
        T.backward(loss)


def test_backward_diamond_graph_visits_once():
    # y = x*x used twice; d/dx of sum(y + y) = 4x
    xval = np.arange(1.0, 4.0)
    x = T.Tensor(xval, dtype=np.float64, requires_grad=True)
    y = T.mul(x, x)
    T.backward(T.tsum(T.add(y, y)))
    np.testing.assert_allclose(x.grad, 4.0 * xval)


def test_no_grad_retains_no_graph():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        out = T.gelu(T.matmul(x, x))
    assert out._node is None
    assert not out.requires_grad


def test_backward_writes_grad_on_leaves_only():
    x = T.Tensor(np.ones((2, 3)), dtype=np.float64, requires_grad=True)
    h = T.gelu(T.matmul(x, T.Tensor(np.ones((3, 2)), dtype=np.float64)))
    T.backward(T.tsum(h))
    assert h.grad is None
    assert x.grad is not None and x.grad.shape == (2, 3)


def test_backward_frees_uncaptured_activations():
    # the graph links nodes, not tensors, and no VJP captured the add
    # output, so nothing keeps it alive while the loss stays referenced
    x = T.Tensor(np.ones(4), dtype=np.float64, requires_grad=True)
    h = T.add(x, x)
    ref = weakref.ref(h)
    loss = T.tsum(T.scale(h, 3.0))
    del h
    T.backward(loss)
    assert ref() is None
    assert loss.item() == 24.0
    np.testing.assert_array_equal(x.grad, 6.0 * np.ones(4))


def test_reshape_is_a_view_with_unchanged_gradient():
    x = T.Tensor(np.arange(6.0), dtype=np.float64, requires_grad=True)
    y = T.reshape(x, (2, 3))
    assert np.shares_memory(y.data, x.data)
    w = T.Tensor(np.arange(6.0).reshape(2, 3) + 1.0, dtype=np.float64)
    T.backward(T.tsum(T.mul(y, w)))
    np.testing.assert_array_equal(x.grad, np.arange(6.0) + 1.0)


def test_backward_twice_on_consumed_graph_is_error():
    x = T.Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    with pytest.raises(StateError, match="consumed"):
        T.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_finite_check_names_op():
    with T.finite_check():
        with pytest.raises(NumericError, match="softmax"):
            T.softmax(T.Tensor([np.nan, 0.0]), axis=0)


def test_mixed_dtype_rejected():
    with pytest.raises(DimensionError):
        T.add(T.Tensor(np.ones(2, np.float32)), T.Tensor(np.ones(2), dtype=np.float64))


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.normal(size=(6, 6)).astype(np.float32), requires_grad=True)
        w = T.Tensor(rng.normal(size=(6, 6)).astype(np.float32), requires_grad=True)
        out = T.layer_norm(
            T.gelu(T.matmul(x, w)),
            T.Tensor(np.ones(6, np.float32)),
            T.Tensor(np.zeros(6, np.float32)),
        )
        loss = T.tsum(T.softmax(out, axis=-1))
        T.backward(loss)
        return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def _numpy_attention(q, k, v):
    logits = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1])
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_attention_matches_numpy(lead):
    rng = np.random.default_rng(11)
    q, k, v = (rng.normal(size=lead + s) for s in ((5, 4), (6, 4), (6, 3)))
    got = T.attention(*(T.Tensor(a, dtype=np.float64) for a in (q, k, v)))
    assert got.shape == lead + (5, 3)
    np.testing.assert_allclose(got.data, _numpy_attention(q, k, v), rtol=1e-12, atol=1e-12)


def _composed_attention(q, k, v):
    # the five recorded ops that attention is one node for
    swap = tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2)
    logits = T.scale(T.matmul(q, T.transpose(k, swap)), q.shape[-1] ** -0.5)
    return T.matmul(T.softmax(logits, axis=-1), v)


def _attention_and_grads(fn, q, k, v, w):
    ts = [T.Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = fn(*ts)
    # a head merge, as in cats, hands the VJP a strided gradient
    merged = T.transpose(out, (0, 2, 1, 3)) if out.ndim == 4 else out
    T.backward(T.tsum(T.mul(merged, T.Tensor(w))))
    return [out.data] + [t.grad for t in ts]


def _attention_inputs(rng, lead, tq, tk, d, dv):
    q, k, v = (rng.normal(size=lead + s).astype(np.float32)
               for s in ((tq, d), (tk, d), (tk, dv)))
    out_shape = lead + (tq, dv)
    if len(out_shape) == 4:
        out_shape = (out_shape[0], out_shape[2], out_shape[1], out_shape[3])
    return q, k, v, rng.normal(size=out_shape).astype(np.float32)


@pytest.mark.parametrize("lead, tq, tk, d, dv", [
    ((), 64, 64, 32, 128),      # catspp's 2-D token attention
    ((4, 8), 256, 256, 36, 36),  # cats intra: several blocks
    ((256, 8), 4, 4, 36, 36),    # cats inter: one block
])
def test_attention_bits_equal_composed_ops(lead, tq, tk, d, dv):
    q, k, v, w = _attention_inputs(np.random.default_rng(12), lead, tq, tk, d, dv)
    got = _attention_and_grads(T.attention, q, k, v, w)
    want = _attention_and_grads(_composed_attention, q, k, v, w)
    for name, a, b in zip(("out", "dq", "dk", "dv"), got, want):
        assert a.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("lead, per_block", [((4, 2), 1), ((9,), 4)])
def test_attention_blocking_never_changes_bits(monkeypatch, lead, per_block):
    q, k, v, w = _attention_inputs(np.random.default_rng(13), lead, 6, 7, 5, 3)
    monkeypatch.setattr(T, "_ATTN_BLOCK", 1 << 40)
    whole = _attention_and_grads(T.attention, q, k, v, w)
    monkeypatch.setattr(T, "_ATTN_BLOCK", per_block * 6 * 7 * 4)
    blocked = _attention_and_grads(T.attention, q, k, v, w)
    for a, b in zip(blocked, whole):
        np.testing.assert_array_equal(a, b)


def test_attention_no_grad_peak_is_below_one_logits_array():
    rng = np.random.default_rng(14)
    q, k, v = (T.Tensor(rng.normal(size=(4, 8, 256, 36)).astype(np.float32))
               for _ in range(3))
    tracemalloc.start()
    try:
        with T.no_grad():
            T.attention(q, k, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 256 * 256 * 4


def test_attention_vjp_holds_no_logits():
    rng = np.random.default_rng(15)
    q, k, v = (T.Tensor(rng.normal(size=(2, 3) + s), requires_grad=True)
               for s in ((12, 4), (16, 4), (16, 5)))
    out = T.attention(q, k, v)
    held = [c.cell_contents for c in out._node.vjp.__closure__]
    shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
    assert shapes
    assert not any(s[-2:] == (12, 16) for s in shapes)


@pytest.mark.parametrize("q, k, v", [
    ((5, 4), (2, 6, 4), (2, 6, 3)),        # ranks differ
    ((4,), (4,), (4,)),                    # rank 1
    ((2, 5, 4), (3, 6, 4), (3, 6, 3)),     # lead extents differ
    ((2, 5, 4), (2, 6, 4), (3, 6, 3)),
    ((5, 4), (6, 3), (6, 3)),              # feature extents differ
    ((5, 4), (6, 4), (7, 3)),              # token extents differ
    ((5, 0), (6, 0), (6, 3)),              # empty feature axis
    ((5, 4), (0, 4), (0, 3)),              # no tokens to attend to
])
def test_attention_rejects_bad_shapes(q, k, v):
    with pytest.raises(DimensionError):
        T.attention(*(T.Tensor(np.zeros(s)) for s in (q, k, v)))


def test_attention_rejects_mixed_dtypes():
    q, k, v = (np.zeros(s) for s in ((5, 4), (6, 4), (6, 3)))
    with pytest.raises(DimensionError):
        T.attention(T.Tensor(q), T.Tensor(k, dtype=np.float32), T.Tensor(v))


@pytest.mark.parametrize("op", ["matmul", "softmax", "attention", "layer_norm", "gelu",
                                "l2norm_last"])
def test_gradcheck_core_ops(op):
    assert check_op(op, seeds=5) < 1e-4


@pytest.mark.parametrize("op", sorted(CHECKS))
def test_vjp_grads_match_input_shape_and_dtype(op):
    # backward accumulates each VJP result as returned, so every VJP must
    # hand back gradients shaped and typed like its inputs
    rng = np.random.default_rng(0)
    inputs, fwd = CHECKS[op](rng)
    out = fwd()
    w = T.Tensor(rng.normal(size=out.shape), dtype=np.float64)
    T.backward(T.tsum(T.mul(out, w)))
    for t in inputs:
        assert t.grad.shape == t.shape
        assert t.grad.dtype == t.data.dtype
