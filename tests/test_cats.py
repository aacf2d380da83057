import numpy as np
import pytest
from scipy.special import erf

from catagg import tensor as T
from catagg.cats import CatsAggregator, CatsConfig
from catagg.correlation import FeatureMap, build_stack
from catagg.errors import ConfigError, DimensionError
from catagg.gradcheck import finite_diff
from catagg.params import ParamStore
from catagg.tensor import Tensor

from oracles import attention_oracle


def _features(rng, n_levels, h, w, channels, dtype=np.float32):
    return [
        FeatureMap(level=l, layer=3, grid=Tensor(
            rng.normal(size=(h, w, channels[l])).astype(dtype)))
        for l in range(n_levels)
    ]


def _setup(rng, grid=(2, 2), n_levels=2, p=2, n_heads=2, channels=None,
           dtype=np.float32, mode="serial"):
    channels = channels or [3] * n_levels
    cfg = CatsConfig(grid=grid, p=p, n_heads=n_heads, mode=mode)
    store = ParamStore(rng, dtype=dtype)
    agg = CatsAggregator(cfg, store, feat_channels=channels)
    fs = _features(rng, n_levels, grid[0], grid[1], channels, dtype)
    ft = _features(rng, n_levels, grid[0], grid[1], channels, dtype)
    stack = build_stack(fs, ft, grid)
    return cfg, store, agg, fs, ft, stack


def _randomize(store, rng):
    for _, t in store.items():
        t.data[...] = rng.normal(scale=0.5, size=t.shape).astype(t.data.dtype)


def _wake_zeros(store, rng):
    """Give the zero-initialized slots small nonzero values, keep fanin weights."""
    scales = {"pos": 0.1, "restore.w": 0.3, "restore.b": 0.1}
    for name, t in store.items():
        short = name.split(".", 1)[1]
        if np.all(t.data == 0):
            s = scales.get(short, 0.1)
            t.data[...] = rng.normal(scale=s, size=t.shape).astype(t.data.dtype)


# ---------------------------------------------------------------------------
# numpy straight-line re-implementation of the full serial chain


def _ln(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _block_oracle(x, P, base, n_heads, pos=None):
    h = x + pos if pos is not None else x
    out = np.empty_like(h)
    for i in range(h.shape[0]):
        zn = _ln(h[i], P[f"{base}.ln1g"], P[f"{base}.ln1b"])
        att = attention_oracle(
            zn, P[f"{base}.wq"], P[f"{base}.bq"], P[f"{base}.wk"], P[f"{base}.bk"],
            P[f"{base}.wv"], P[f"{base}.bv"], n_heads)
        z = att @ P[f"{base}.wo"] + P[f"{base}.bo"] + h[i]
        xn = _ln(z, P[f"{base}.ln2g"], P[f"{base}.ln2b"])
        y = _gelu(xn @ P[f"{base}.ffn_w1"] + P[f"{base}.ffn_b1"]) \
            @ P[f"{base}.ffn_w2"] + P[f"{base}.ffn_b2"] + z
        out[i] = y
    return out


def _transform_oracle(maps, feats, P, cfg):
    L = maps.shape[0]
    appear = np.stack([
        feats[l].reshape(cfg.hw, -1) @ P[f"appear{l}.w"] + P[f"appear{l}.b"]
        for l in range(L)
    ])
    x = np.concatenate([maps, appear], axis=2).astype(np.float64)
    for e in range(cfg.n_encoders):
        x = _block_oracle(x, P, f"enc{e}.intra", cfg.n_heads, pos=P["pos"])
        x = x.transpose(1, 0, 2)
        x = _block_oracle(x, P, f"enc{e}.inter", cfg.n_heads, pos=None)
        x = x.transpose(1, 0, 2)
    return np.stack([
        x[l] @ P["restore.w"][l] + P["restore.b"][l, 0] for l in range(L)
    ])


def cats_serial_oracle(maps, fs, ft, P, cfg):
    c_t = maps.transpose(0, 2, 1)
    s = _transform_oracle(c_t, ft, P, cfg) + c_t
    return _transform_oracle(s.transpose(0, 2, 1), fs, P, cfg) + maps


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["serial", "parallel", "both"])
def test_residual_identity_when_projections_zeroed(mode):
    rng = np.random.default_rng(0)
    _, store, agg, fs, ft, stack = _setup(rng, grid=(3, 3), p=3, n_heads=2, mode=mode)
    _randomize(store, rng)
    agg.zero_output_projections()
    out = agg.aggregate(stack, fs, ft)
    assert out.maps.data.tobytes() == stack.maps.data.tobytes()
    assert out.token_axis == stack.token_axis


def test_zero_features_give_zero_appearance_embedding():
    rng = np.random.default_rng(1)
    cfg, store, agg, *_ = _setup(rng)
    zero = [FeatureMap(l, 3, Tensor(np.zeros((2, 2, 3), np.float32))) for l in range(2)]
    emb = agg._appearance(zero)
    np.testing.assert_array_equal(emb.data, 0.0)


def test_appearance_ones_weight_dot():
    rng = np.random.default_rng(2)
    cfg = CatsConfig(grid=(2, 2), p=1, n_heads=1)
    store = ParamStore(rng)
    agg = CatsAggregator(cfg, store, feat_channels=[3])
    store["cats.appear0.w"].data[...] = 1.0
    g = np.broadcast_to(np.array([1.0, 2.0, 3.0], np.float32), (2, 2, 3)).copy()
    emb = agg._appearance([FeatureMap(0, 3, Tensor(g))])
    np.testing.assert_allclose(emb.data, 6.0, atol=1e-6)


def test_appearance_matches_per_row_matmul():
    rng = np.random.default_rng(3)
    _, store, agg, fs, *_ = _setup(rng, grid=(3, 3), p=3, channels=[4, 4])
    emb = agg._appearance(fs).data
    for l, fm in enumerate(fs):
        w = store[f"cats.appear{l}.w"].data
        b = store[f"cats.appear{l}.b"].data
        flat = fm.grid.data.reshape(9, 4)
        for i in range(9):
            np.testing.assert_allclose(emb[l, i], flat[i] @ w + b, atol=1e-6)


def test_single_token_attention_weight_is_one(monkeypatch):
    rng = np.random.default_rng(4)
    _, store, agg, *_ = _setup(rng)
    captured = []
    real = T._softmax_into

    def spy(src, out, axis):
        out = real(src, out, axis)
        captured.append(out.copy())
        return out

    monkeypatch.setattr(T, "_softmax_into", spy)
    z = Tensor(rng.normal(size=(1, 1, agg.cfg.feat)).astype(np.float32))
    agg._mha(z, "enc0.intra")
    assert captured and np.all(captured[0] == 1.0)


def test_attention_rows_sum_to_one_at_every_site(monkeypatch):
    rng = np.random.default_rng(5)
    _, store, agg, fs, ft, stack = _setup(rng, grid=(3, 3), p=3, n_heads=3,
                                          mode="both")
    _randomize(store, rng)
    sums = []
    real = T._softmax_into

    def spy(src, out, axis):
        out = real(src, out, axis)
        sums.append(out.sum(axis=-1).reshape(-1))
        return out

    monkeypatch.setattr(T, "_softmax_into", spy)
    agg.aggregate(stack, fs, ft)
    assert len(sums) >= 8  # 2 blocks x 2 passes x 2 modes
    for s in sums:
        np.testing.assert_allclose(s, 1.0, atol=1e-6)


def test_block_matches_dense_attention_oracle():
    rng = np.random.default_rng(6)
    _, store, agg, *_ = _setup(rng, grid=(2, 2), p=2, n_heads=1)
    _randomize(store, rng)
    P = {n[len("cats."):]: t.data.astype(np.float64) for n, t in store.items()}
    x = rng.normal(size=(1, 4, 6)).astype(np.float32)
    got = agg._block(Tensor(x), "enc0.intra", agg._p("pos")).data
    want = _block_oracle(x.astype(np.float64), P, "enc0.intra", 1, pos=P["pos"])
    assert np.abs(got - want).max() < 1e-5


def test_multihead_block_matches_oracle():
    rng = np.random.default_rng(7)
    _, store, agg, *_ = _setup(rng, grid=(2, 2), p=4, n_heads=4)
    _randomize(store, rng)
    P = {n[len("cats."):]: t.data.astype(np.float64) for n, t in store.items()}
    x = rng.normal(size=(2, 4, 8)).astype(np.float32)
    got = agg._block(Tensor(x), "enc0.inter", None).data
    want = _block_oracle(x.astype(np.float64), P, "enc0.inter", 4, pos=None)
    assert np.abs(got - want).max() < 1e-5


def test_identical_levels_stay_identical():
    rng = np.random.default_rng(8)
    _, store, agg, fs, ft, stack = _setup(rng, grid=(3, 3), p=3, n_heads=2,
                                          channels=[4, 4])
    _randomize(store, rng)
    # collapse the two levels to one parameter set and one input
    store["cats.appear1.w"].data[...] = store["cats.appear0.w"].data
    store["cats.appear1.b"].data[...] = store["cats.appear0.b"].data
    store["cats.restore.w"].data[1] = store["cats.restore.w"].data[0]
    store["cats.restore.b"].data[1] = store["cats.restore.b"].data[0]
    maps = np.repeat(stack.maps.data[:1], 2, axis=0)
    feats = [fs[0], FeatureMap(1, 3, Tensor(fs[0].grid.data.copy()))]
    out = agg.transform(Tensor(maps), feats).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-6)


def test_serial_matches_straight_line_oracle():
    rng = np.random.default_rng(9)
    _, store, agg, fs, ft, stack = _setup(
        rng, grid=(3, 3), p=4, n_heads=1, channels=[5, 5])
    _wake_zeros(store, rng)
    out = agg.aggregate(stack, fs, ft).maps.data
    P = {n[len("cats."):]: t.data.astype(np.float64) for n, t in store.items()}
    fs_np = [f.grid.data.astype(np.float64) for f in fs]
    ft_np = [f.grid.data.astype(np.float64) for f in ft]
    want = cats_serial_oracle(
        stack.maps.data.astype(np.float64), fs_np, ft_np, P, agg.cfg)
    assert np.abs(out - want).max() < 1e-5


def test_parallel_is_sum_of_two_orientations():
    rng = np.random.default_rng(10)
    _, store, agg, fs, ft, stack = _setup(rng, grid=(3, 3), p=3, n_heads=2,
                                          mode="parallel")
    _randomize(store, rng)
    out = agg.aggregate(stack, fs, ft).maps.data
    P = {n[len("cats."):]: t.data.astype(np.float64) for n, t in store.items()}
    fs_np = [f.grid.data.astype(np.float64) for f in fs]
    ft_np = [f.grid.data.astype(np.float64) for f in ft]
    c = stack.maps.data.astype(np.float64)
    a = _transform_oracle(c, fs_np, P, agg.cfg)
    b = _transform_oracle(c.transpose(0, 2, 1), ft_np, P, agg.cfg)
    want = a + b.transpose(0, 2, 1) + c
    assert np.abs(out - want).max() < 1e-5


def test_passes_share_parameters():
    rng = np.random.default_rng(11)
    _, store, agg, fs, ft, stack = _setup(rng, mode="both")
    names_before = set(store.names())
    agg.aggregate(stack, fs, ft)
    assert set(store.names()) == names_before
    # exactly one encoder parameter set exists; both passes read it
    enc_names = [n for n in names_before if ".enc" in n]
    assert all(".enc0." in n for n in enc_names)
    seen = []
    orig = agg.transform

    def spy(maps, feats):
        seen.append(agg._p("enc0.intra.wq"))
        return orig(maps, feats)

    agg.transform = spy
    agg.aggregate(stack, fs, ft)
    agg.transform = orig
    # serial then parallel: four transforms, all on the one parameter set
    assert len(seen) == 4 and all(p is seen[0] for p in seen)


def test_heads_must_divide_token_extent():
    with pytest.raises(ConfigError):
        CatsConfig(grid=(2, 2), p=3, n_heads=2).validate()


def test_unknown_mode_rejected():
    rng = np.random.default_rng(12)
    with pytest.raises(ConfigError):
        _setup(rng, mode="zigzag")


def test_grid_mismatch_rejected():
    rng = np.random.default_rng(13)
    _, _, agg, fs, ft, stack = _setup(rng)
    other = build_stack(
        _features(rng, 2, 3, 3, [3, 3]), _features(rng, 2, 3, 3, [3, 3]), (3, 3))
    with pytest.raises(DimensionError):
        agg.aggregate(other, fs, ft)


def test_target_row_stacks_are_normalized_first():
    rng = np.random.default_rng(14)
    _, store, agg, fs, ft, stack = _setup(rng, grid=(2, 2), p=2, n_heads=2)
    _randomize(store, rng)
    from catagg.correlation import swap

    a = agg.aggregate(stack, fs, ft).maps.data
    b = agg.aggregate(swap(stack), fs, ft).maps.data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_aggregate_gradcheck_small():
    rng = np.random.default_rng(15)
    _, store, agg, fs, ft, stack = _setup(
        rng, grid=(2, 2), n_levels=2, p=2, n_heads=2, dtype=np.float64)
    _randomize(store, rng)
    fs = [FeatureMap(f.level, f.layer, Tensor(f.grid.data.astype(np.float64),
                                              requires_grad=True)) for f in fs]
    ft = [FeatureMap(f.level, f.layer, Tensor(f.grid.data.astype(np.float64),
                                              requires_grad=True)) for f in ft]
    w = rng.normal(size=(2, 4, 4))

    def fwd():
        stack = build_stack(fs, ft, (2, 2))
        out = agg.aggregate(stack, fs, ft)
        return T.tsum(T.mul(out.maps, Tensor(w, dtype=np.float64)))

    loss = fwd()
    store.zero_grad()
    for f in fs + ft:
        f.grid.grad = None
    T.backward(loss)

    def scalar():
        return fwd().item()

    checked = 0
    for name in ["cats.enc0.intra.wq", "cats.enc0.inter.ffn_w2", "cats.pos",
                 "cats.appear0.w", "cats.restore.w", "cats.enc0.intra.ln1g"]:
        t = store[name]
        fd = finite_diff(scalar, t, 1e-4)
        rel = np.abs(t.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4, f"{name}: {rel.max():.2e}"
        checked += t.size
    for f in fs + ft:
        fd = finite_diff(scalar, f.grid, 1e-4)
        rel = np.abs(f.grid.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4
        checked += f.grid.size
    assert checked > 300
