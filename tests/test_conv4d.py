import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from catagg import catspp, volume_ops
from catagg import pipeline as pl
from catagg import tensor as T
from catagg.bench import compare_blocks
from catagg.config import RunConfig
from catagg.errors import DimensionError
from catagg.gradcheck import check_op
from catagg.synth import generate_pair
from catagg.volume_ops import conv4d, interp_matrix, resize_bilinear2d, upsample4d_bilinear

from oracles import bilinear2d_oracle, conv4d_oracle, conv4d_vjp_oracle

VJP_STRIDES = [(1, 1, 1, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2), (2, 1, 1, 2)]


def test_pointwise_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 2, 2, 3)).astype(np.float32)
    k = np.eye(3, dtype=np.float32).reshape(1, 1, 1, 1, 3, 3)
    out = conv4d(T.Tensor(x), T.Tensor(k))
    np.testing.assert_allclose(out.data, x, atol=1e-6)


def test_all_ones_center_value():
    x = np.ones((3, 3, 3, 3, 1), dtype=np.float32)
    k = np.ones((3, 3, 3, 3, 1, 1), dtype=np.float32)
    out = conv4d(T.Tensor(x), T.Tensor(k))
    assert out.data[1, 1, 1, 1, 0] == 81.0


def test_random_against_nested_loop_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4, 4, 4, 2)).astype(np.float32)
    k = rng.normal(size=(3, 3, 3, 3, 2, 3)).astype(np.float32)
    got = conv4d(T.Tensor(x), T.Tensor(k)).data
    want = conv4d_oracle(x, k)
    assert np.abs(got - want).max() < 1e-5


def test_stride_output_extents_are_ceil():
    x = np.zeros((5, 6, 7, 4, 1), dtype=np.float32)
    k = np.zeros((3, 3, 3, 3, 1, 2), dtype=np.float32)
    out = conv4d(T.Tensor(x), T.Tensor(k), stride=(2, 2, 2, 3))
    assert out.shape == (3, 3, 4, 2, 2)


def test_sweep_against_oracle():
    rng = np.random.default_rng(9)
    combos = list(itertools.product([1, 3], [1, 2]))
    for (k1, s1), (k2, s2) in itertools.product(combos, combos):
        ns = tuple(rng.integers(1, 5, size=4))
        cin, cout = rng.integers(1, 4), rng.integers(1, 4)
        x = rng.normal(size=ns + (cin,)).astype(np.float32)
        k = rng.normal(size=(k1, k2, k2, k1, cin, cout)).astype(np.float32)
        stride = (s1, s2, s1, s2)
        got = conv4d(T.Tensor(x), T.Tensor(k), stride=stride).data
        want = conv4d_oracle(x, k, stride)
        assert np.abs(got - want).max() < 1e-5


def test_channel_mismatch_rejected():
    with pytest.raises(DimensionError):
        conv4d(T.Tensor(np.zeros((2, 2, 2, 2, 3))), T.Tensor(np.zeros((1, 1, 1, 1, 2, 4))))


def test_even_kernel_rejected():
    with pytest.raises(DimensionError):
        conv4d(T.Tensor(np.zeros((2, 2, 2, 2, 1))), T.Tensor(np.zeros((2, 1, 1, 1, 1, 1))))


def test_conv4d_gradcheck():
    assert check_op("conv4d", seeds=5) < 1e-4
    assert check_op("conv4d_strided", seeds=5) < 1e-4
    assert check_op("conv4d_embed", seeds=5) < 1e-4


def _conv_error(rng, ns, ks, cin, cout, stride) -> float:
    """Max abs difference of conv4d's output, dx and dk from the f64 loop oracles."""
    x = rng.normal(size=ns + (cin,))
    k = rng.normal(size=ks + (cin, cout))
    out = conv4d(T.Tensor(x, requires_grad=True), T.Tensor(k, requires_grad=True), stride)
    g = rng.normal(size=out.shape)
    dx, dk = out._node.vjp(g)
    want_dx, want_dk = conv4d_vjp_oracle(x, k, g, stride)
    return max(float(np.abs(out.data - conv4d_oracle(x, k, stride)).max()),
               float(np.abs(dx - want_dx).max()), float(np.abs(dk - want_dk).max()))


@pytest.mark.parametrize("budget", [None, 1], ids=["default_blocks", "one_row_blocks"])
def test_vjp_sweep_against_nested_loop_oracle(monkeypatch, budget):
    # output, dx and dk for extents 1-4, every per-axis mix of kernel extents
    # 1 and 3 and five stride patterns; a 1-byte block budget makes every
    # block one output row, so each block carries its halo over from the one
    # before
    if budget is not None:
        monkeypatch.setattr(volume_ops, "_FOLD_BYTES", budget)
    # both cases sweep the same shapes; the cached plans the default case
    # left behind must not serve the one-row case
    plans, cached = [], volume_ops._plan

    def recorded(*key):
        plans.append(cached(*key))
        return plans[-1]

    monkeypatch.setattr(volume_ops, "_plan", recorded)
    rng = np.random.default_rng(11)
    worst = 0.0
    for stride in VJP_STRIDES:
        for ks in itertools.product((1, 3), repeat=4):
            ns = tuple(int(n) for n in rng.integers(1, 5, size=4))
            cin, cout = (int(c) for c in rng.integers(1, 4, size=2))
            worst = max(worst, _conv_error(rng, ns, ks, cin, cout, stride))
    assert worst < 1e-9
    if budget is None:
        assert any(p.rows > 1 for p in plans)
    else:
        assert all(p.rows == 1 for p in plans)


def _conv_arrays(x, k, stride) -> list:
    out = conv4d(T.Tensor(x, dtype=x.dtype, requires_grad=True),
                 T.Tensor(k, dtype=k.dtype, requires_grad=True), stride)
    g = np.random.default_rng(1).normal(size=out.shape).astype(x.dtype)
    return [out.data, *out._node.vjp(g)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2)])
def test_warm_plan_equals_cold_plan_bitwise(dtype, stride):
    # output, dx and dk from a freshly built plan and from the cached one
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 4, 6, 3, 2)).astype(dtype)
    k = rng.normal(size=(3, 3, 3, 3, 2, 3)).astype(dtype)
    volume_ops._plan.cache_clear()
    cold = _conv_arrays(x, k, stride)
    built = volume_ops._plan.cache_info().misses
    warm = _conv_arrays(x, k, stride)
    assert volume_ops._plan.cache_info().misses == built
    for a, b in zip(cold, warm):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()


def test_plans_are_keyed_by_dtype_pads_and_budget():
    ns, ks, unit = (4, 4, 4, 4), (3, 3, 3, 3), (1, 1, 1, 1)
    f32, budget = np.dtype(np.float32), volume_ops._FOLD_BYTES

    def plan(dtype=f32, pads=unit, budget=budget):
        return volume_ops._plan(ns, 2, 3, ks, unit, ns, pads, dtype, budget)

    base = plan()
    assert plan() is base
    others = [plan(dtype=np.dtype(np.float64)), plan(pads=(0, 1, 2, 1)), plan(budget=1)]
    assert all(p is not base for p in others)
    assert others[0].dtype == np.float64
    assert base.rows == 4 and others[2].rows == 1


def test_plan_cache_is_bounded():
    cap = volume_ops._plan.cache_info().maxsize
    assert cap is not None
    ns, ks, unit = (2, 2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 1)
    for budget in range(1, cap + 2):
        volume_ops._plan(ns, 1, 1, ks, unit, ns, (0, 0, 0, 0), np.dtype(np.float32), budget)
    assert volume_ops._plan.cache_info().currsize == cap


def test_second_catspp_step_builds_no_plan():
    cfg = RunConfig.load(None, sets=["model=catspp", "grid.h=8", "grid.w=8", "mode=parallel"])
    model = cfg.build_model()
    opt = pl.make_optimizer(model, cfg.train_config())
    pair = generate_pair(1000, grid=cfg.grid())
    pl.train_step(model, opt, [pair])
    info = volume_ops._plan.cache_info()
    pl.train_step(model, opt, [pair])
    after = volume_ops._plan.cache_info()
    assert after.misses == info.misses
    assert after.hits > info.hits


def test_cold_plans_keep_the_efficient_block_below_the_standard_one():
    # c7's comparison with every plan built inside the traced forward
    cfg = RunConfig.load(None, sets=["model=catspp", "grid.h=8", "grid.w=8"])
    model = cfg.build_model()
    for q in cfg.layers():
        volume_ops._plan.cache_clear()
        row = compare_blocks(model, q)
        assert row["efficient.peak_bytes"] <= row["standard.peak_bytes"], (q, row)


def test_vjp_matches_oracle_on_the_catspp_projection_shape():
    # catspp's Q/K projection at layer 4: an 8^4 volume, a 3^4 kernel and
    # stride (2, 2, 1, 1), here with 2 -> 3 channels
    rng = np.random.default_rng(12)
    assert _conv_error(rng, (8, 8, 8, 8), (3, 3, 3, 3), 2, 3, (2, 2, 1, 1)) < 1e-9


def test_temporaries_stay_below_the_padded_input():
    # an 8^4, 16 -> 8 conv: a zero-padded copy of its input alone would take
    # 10^4 * 16 * 4 = 640,000 bytes; the forward's temporaries stay below it
    # and the VJP's below two of it
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(8, 8, 8, 8, 16)).astype(np.float32), requires_grad=True)
    k = T.Tensor(rng.normal(size=(3, 3, 3, 3, 16, 8)).astype(np.float32), requires_grad=True)
    padded = 10**4 * 16 * 4
    out = conv4d(x, k)
    g = np.ones(out.shape, dtype=np.float32)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with T.no_grad():
            y = conv4d(x, k)
        forward = tracemalloc.get_traced_memory()[1] - base - y.data.nbytes
        del y
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dx, dk = out._node.vjp(g)
        backward = tracemalloc.get_traced_memory()[1] - base - dx.nbytes - dk.nbytes
    finally:
        if started:
            tracemalloc.stop()
    assert forward < padded, forward
    assert backward < 2 * padded, backward


def test_cats_never_calls_conv4d(monkeypatch):
    # one cats train step and one cats flow at the desk config run with conv4d
    # raising, wherever a catagg module holds it
    def refuse(*args, **kwargs):
        raise AssertionError("cats called conv4d")

    original = volume_ops.conv4d
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "catagg" and getattr(module, "conv4d", None) is original:
            monkeypatch.setattr(module, "conv4d", refuse)
    assert catspp.conv4d is refuse
    cfg = RunConfig.load(None, sets=["model=cats"])
    model = cfg.build_model()
    pair = generate_pair(1000, grid=cfg.grid())
    loss = pl.train_step(model, pl.make_optimizer(model, cfg.train_config()), [pair])
    assert np.isfinite(loss)
    with T.no_grad():
        flow = model.flow(pair.source, pair.target)
    assert np.isfinite(flow.grid.data).all()


def test_backward_holds_no_padded_copy():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(3, 3, 2, 2, 2)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(3, 3, 3, 3, 2, 2)))
    out = conv4d(x, k)
    held = [c.cell_contents for c in out._node.vjp.__closure__]
    shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
    assert (5, 5, 4, 4, 2) not in shapes
    assert x.shape in shapes


def test_upsample_constant_stays_constant():
    x = np.full((2, 3, 2, 2, 2), 1.25, dtype=np.float32)
    out = upsample4d_bilinear(T.Tensor(x), 2)
    assert out.shape == (4, 6, 4, 4, 2)
    np.testing.assert_allclose(out.data, 1.25, atol=1e-6)


def test_upsample_factor_one_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 3, 3, 1)).astype(np.float32)
    out = upsample4d_bilinear(T.Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)


def test_upsample_matches_2d_bilinear_oracle():
    ramp = np.array([[0.0, 1.0], [2.0, 3.0]], dtype=np.float32)
    x = ramp.reshape(2, 2, 1, 1, 1)
    got = upsample4d_bilinear(T.Tensor(x), 2).data[:, :, 0, 0, 0]
    want = bilinear2d_oracle(ramp, (4, 4))
    assert np.abs(got - want).max() < 1e-6


def test_upsample_gradcheck():
    assert check_op("upsample4d", seeds=5) < 1e-4


def test_resize_matches_oracle():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(5, 7, 3)).astype(np.float64)
    got = resize_bilinear2d(T.Tensor(img, dtype=np.float64), (3, 4)).data
    want = bilinear2d_oracle(img, (3, 4))
    assert np.abs(got - want).max() < 1e-6


def test_resize_identity_is_exact():
    rng = np.random.default_rng(6)
    img = rng.normal(size=(4, 4, 2)).astype(np.float32)
    out = resize_bilinear2d(T.Tensor(img), (4, 4))
    np.testing.assert_array_equal(out.data, img)


def test_resize_gradcheck():
    assert check_op("resize2d", seeds=5) < 1e-4


def test_interp_matrix_partition_of_unity():
    for n_out, n_in in [(7, 3), (3, 7), (16, 16), (5, 1)]:
        m = interp_matrix(n_out, n_in, np.float64)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
