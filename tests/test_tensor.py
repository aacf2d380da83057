import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catagg import tensor as T
from catagg.errors import DimensionError, NumericError, StateError
from catagg.gradcheck import check_op


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


@pytest.mark.parametrize("op", ["matmul", "softmax", "attention", "layer_norm", "gelu",
                                "l2norm_last"])
def test_gradcheck_core_ops(op):
    assert check_op(op, seeds=5) < 1e-4
