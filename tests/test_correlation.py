import numpy as np
import pytest

from catagg import tensor as T
from catagg.correlation import (
    CorrelationStack,
    FeatureMap,
    Hypercorrelation,
    build_hypercorrelation,
    build_stack,
    cosine_correlation,
    resize_features,
    swap,
)
from catagg.errors import ArgumentError, DimensionError
from catagg.tensor import Tensor

from oracles import cosine_corr_oracle


def _fm(rng, h, w, c, level=0, layer=3):
    return FeatureMap(level=level, layer=layer,
                      grid=Tensor(rng.normal(size=(h, w, c)).astype(np.float32)))


def test_identical_unit_vectors_score_one():
    g = np.zeros((2, 2, 2), np.float32)
    g[..., 0] = 1.0
    a = FeatureMap(0, 3, Tensor(g))
    out = cosine_correlation(a, a)
    np.testing.assert_allclose(out.data, 1.0, atol=1e-6)


def test_opposite_vectors_clamp_to_zero():
    ga = np.zeros((2, 2, 2), np.float32)
    gb = np.zeros((2, 2, 2), np.float32)
    ga[..., 0] = 1.0
    gb[..., 0] = -1.0
    out = cosine_correlation(FeatureMap(0, 3, Tensor(ga)), FeatureMap(0, 3, Tensor(gb)))
    np.testing.assert_array_equal(out.data, 0.0)


def test_matches_per_pair_oracle():
    rng = np.random.default_rng(0)
    a = _fm(rng, 3, 3, 4)
    b = _fm(rng, 3, 3, 4)
    got = cosine_correlation(a, b).data
    want = cosine_corr_oracle(a.grid.data, b.grid.data)
    assert np.abs(got - want).max() < 1e-6


def test_zero_norm_rows_are_zero():
    rng = np.random.default_rng(1)
    ga = rng.normal(size=(2, 2, 3)).astype(np.float32)
    ga[0, 0] = 0.0
    a = FeatureMap(0, 3, Tensor(ga))
    b = _fm(rng, 2, 2, 3)
    out = cosine_correlation(a, b).data
    np.testing.assert_array_equal(out[0], 0.0)
    assert np.all(np.isfinite(out))


def test_entries_in_unit_interval():
    rng = np.random.default_rng(2)
    out = cosine_correlation(_fm(rng, 4, 4, 8), _fm(rng, 4, 4, 8)).data
    assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-6


def test_channel_mismatch_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionError):
        cosine_correlation(_fm(rng, 2, 2, 3), _fm(rng, 2, 2, 4))


def test_transpose_symmetry():
    rng = np.random.default_rng(4)
    a, b = _fm(rng, 3, 4, 5), _fm(rng, 3, 4, 5)
    ab = cosine_correlation(a, b).data
    ba = cosine_correlation(b, a).data
    assert np.abs(ab - ba.T).max() < 1e-6


def test_self_pair_diagonal_argmax():
    rng = np.random.default_rng(5)
    d = _fm(rng, 4, 4, 16)
    out = cosine_correlation(d, d).data
    np.testing.assert_array_equal(out.argmax(axis=1), np.arange(16))


def test_build_stack_levels_match_per_level_recomputation():
    rng = np.random.default_rng(6)
    fs = [_fm(rng, 8, 8, 6, level=i) for i in range(3)]
    ft = [_fm(rng, 8, 8, 6, level=i) for i in range(3)]
    stack = build_stack(fs, ft, target_hw=(4, 4))
    assert stack.maps.shape == (3, 16, 16)
    assert stack.token_axis == "source"
    rs = resize_features(fs, (4, 4))
    rt = resize_features(ft, (4, 4))
    for i in range(3):
        want = cosine_correlation(rs[i], rt[i]).data
        np.testing.assert_allclose(stack.maps.data[i], want, atol=1e-7)


def test_build_stack_default_grid_is_16():
    rng = np.random.default_rng(7)
    stack = build_stack([_fm(rng, 32, 32, 4)], [_fm(rng, 32, 32, 4)])
    assert stack.grid == (16, 16) and stack.maps.shape == (1, 256, 256)


def test_build_stack_rejects_empty():
    with pytest.raises(ArgumentError):
        build_stack([], [], (4, 4))


def test_swap_involution_bitwise():
    rng = np.random.default_rng(8)
    stack = build_stack([_fm(rng, 8, 8, 4)], [_fm(rng, 8, 8, 4)], (4, 4))
    back = swap(swap(stack))
    assert back.token_axis == stack.token_axis
    assert back.maps.data.tobytes() == stack.maps.data.tobytes()


def test_swap_matches_reversed_correlation():
    rng = np.random.default_rng(9)
    fs, ft = [_fm(rng, 6, 6, 5)], [_fm(rng, 6, 6, 5)]
    ab = build_stack(fs, ft, (3, 3))
    ba = build_stack(ft, fs, (3, 3))
    assert np.abs(swap(ab).maps.data - ba.maps.data).max() < 1e-6
    assert swap(ab).token_axis == "target"


def test_swap_rejects_non_square_stack():
    stack = CorrelationStack(maps=Tensor(np.zeros((1, 4, 6), np.float32)), grid=(2, 2))
    with pytest.raises(DimensionError):
        swap(stack)


def test_hypercorrelation_grouping_and_slices():
    rng = np.random.default_rng(10)
    fs, ft = [], []
    spec = [(0, 3, 8), (1, 3, 8), (2, 4, 4), (3, 5, 2)]
    for lvl, q, hw in spec:
        fs.append(_fm(rng, hw, hw, 6, level=lvl, layer=q))
        ft.append(_fm(rng, hw, hw, 6, level=lvl, layer=q))
    hcs = build_hypercorrelation(fs, ft, layers=(3, 4, 5))
    assert [h.layer for h in hcs] == [3, 4, 5]
    assert hcs[0].vol.shape == (8, 8, 8, 8, 2)
    assert hcs[1].vol.shape == (4, 4, 4, 4, 1)
    assert hcs[2].vol.shape == (2, 2, 2, 2, 1)
    # channel c equals the standalone correlation of that level
    for h in hcs:
        for ci, lvl in enumerate(h.levels):
            a = next(f for f in fs if f.level == lvl)
            b = next(f for f in ft if f.level == lvl)
            want = cosine_corr_oracle(a.grid.data, b.grid.data)
            hs, ws, ht, wt, _ = h.vol.shape
            got = h.vol.data[..., ci].reshape(hs * ws, ht * wt)
            assert np.abs(got - want).max() < 1e-6


def test_hypercorrelation_empty_layer_rejected():
    rng = np.random.default_rng(11)
    fs = [_fm(rng, 4, 4, 3, level=0, layer=3)]
    ft = [_fm(rng, 4, 4, 3, level=0, layer=3)]
    with pytest.raises(ArgumentError):
        build_hypercorrelation(fs, ft, layers=(3, 4))


def test_hypercorrelation_swap_is_axis_pair_exchange():
    rng = np.random.default_rng(12)
    vol = rng.normal(size=(2, 3, 4, 5, 2)).astype(np.float32)
    h = Hypercorrelation(vol=Tensor(vol), layer=3, levels=(0, 1))
    s = swap(h)
    assert s.vol.shape == (4, 5, 2, 3, 2)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                for m in range(5):
                    np.testing.assert_array_equal(
                        s.vol.data[k, m, i, j], vol[i, j, k, m])
    back = swap(s)
    assert back.vol.data.tobytes() == vol.tobytes()


def test_correlation_is_differentiable_to_features():
    rng = np.random.default_rng(13)
    g = Tensor(rng.normal(size=(3, 3, 4)).astype(np.float64), requires_grad=True)
    a = FeatureMap(0, 3, g)
    b = _fm(rng, 3, 3, 4)
    out = cosine_correlation(a, FeatureMap(0, 3, Tensor(b.grid.data.astype(np.float64))))
    T.backward(T.tsum(out))
    assert g.grad is not None and np.all(np.isfinite(g.grad))
