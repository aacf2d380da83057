import numpy as np
import pytest
from scipy.ndimage import correlate
from scipy.special import erf

from catagg import tensor as T
from catagg.catspp import CatsPPAggregator, EfficientConfig, EmbedConfig, LayerSpec
from catagg.correlation import FeatureMap, Hypercorrelation, build_hypercorrelation
from catagg.errors import ConfigError
from catagg.gradcheck import finite_diff
from catagg.params import ParamStore
from catagg.tensor import Tensor

from oracles import bilinear2d_oracle, conv4d_oracle


# ---------------------------------------------------------------------------
# independent numpy/scipy reference pieces


def conv4d_scipy(x, k, stride=(1, 1, 1, 1)):
    """4D same-pad strided cross-correlation via scipy.ndimage (f64)."""
    x = x.astype(np.float64)
    k = k.astype(np.float64)
    ns, ks = x.shape[:4], k.shape[:4]
    cin, cout = k.shape[4], k.shape[5]
    outs, before = [], []
    for n, kk, s in zip(ns, ks, stride):
        o = -(-n // s)
        total = max((o - 1) * s + kk - n, 0)
        outs.append(o)
        before.append(total // 2)
    full = np.zeros(ns + (cout,))
    for co in range(cout):
        acc = np.zeros(ns)
        for ci in range(cin):
            acc += correlate(x[..., ci], k[..., ci, co], mode="constant", cval=0.0)
        full[..., co] = acc
    sl = tuple(
        slice(ks[i] // 2 - before[i], None, stride[i]) for i in range(4))
    out = full[sl]
    return out[tuple(slice(0, outs[i]) for i in range(4)) + (slice(None),)]


def _ln_np(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax_np(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _tokens_np(vol):
    hs, ws, ht, wt, d = vol.shape
    return vol.transpose(2, 3, 0, 1, 4).reshape(ht * wt, hs * ws * d)


def _swap_np(vol):
    return vol.transpose(2, 3, 0, 1, 4)


def _up4_np(vol):
    h1, w1, h2, w2, _ = vol.shape
    a = bilinear2d_oracle(vol, (2 * h1, 2 * w1))
    a = a.transpose(2, 3, 0, 1, 4)
    a = bilinear2d_oracle(a, (2 * h2, 2 * w2))
    return a.transpose(2, 3, 0, 1, 4)


def catspp_oracle(raw_vols, feats_s, feats_t, P, ecfg, fcfg):
    """Monolithic f64 re-implementation of the coarse-to-fine recursion."""

    def embed(q, x):
        for i in range(ecfg.n_stages):
            x = conv4d_scipy(x, P[f"q{q}.embed{i}.k"], (ecfg.stride,) * 4)
            x = _gelu_np(x + P[f"q{q}.embed{i}.b"])
        return x

    def appearance(q, grid, hw):
        g = grid if grid.shape[:2] == hw else bilinear2d_oracle(grid, hw)
        return g.reshape(hw[0] * hw[1], -1) @ P[f"q{q}.appear.w"] + P[f"q{q}.appear.b"]

    def qk(mn, q, e, which, app):
        base = f"q{q}.enc{e}"
        s = fcfg.s
        conv = conv4d_scipy(mn, P[f"{base}.{which}.k"], (s, s, 1, 1)) \
            + P[f"{base}.{which}.b"]
        ln = "ln_q" if which == "qq" else "ln_k"
        normed = _ln_np(conv, P[f"{base}.{ln}.g"], P[f"{base}.{ln}.b"])
        proj = "pq" if which == "qq" else "pk"
        return np.concatenate([_tokens_np(normed), app], axis=1) \
            @ P[f"{base}.{proj}.w"] + P[f"{base}.{proj}.b"]

    def block(m, q, app):
        x = m
        for e in range(fcfg.n_encoders):
            base = f"q{q}.enc{e}"
            mn = _ln_np(x, P[f"{base}.ln_in.g"], P[f"{base}.ln_in.b"])
            pos = P[f"q{q}.pos"]
            qm = qk(mn, q, e, "qq", app) + pos
            km = qk(mn, q, e, "kk", app) + pos
            vc = conv4d_scipy(mn, P[f"{base}.qv.k"]) + P[f"{base}.qv.b"]
            vm = _tokens_np(_ln_np(vc, P[f"{base}.ln_v.g"], P[f"{base}.ln_v.b"]))
            att = _softmax_np(qm @ km.T / np.sqrt(fcfg.a))
            hs, ws, ht, wt, d = x.shape
            z = (att @ vm).reshape(ht, wt, hs, ws, d).transpose(2, 3, 0, 1, 4) + x
            xn = _ln_np(z, P[f"{base}.ffn_ln.g"], P[f"{base}.ffn_ln.b"])
            h1 = _gelu_np(conv4d_scipy(xn, P[f"{base}.f1.k"]) + P[f"{base}.f1.b"])
            x = conv4d_scipy(h1, P[f"{base}.f2.k"]) + P[f"{base}.f2.b"] + z
        return x

    carry = None
    for q in sorted(raw_vols, reverse=True):
        m = embed(q, raw_vols[q])
        if carry is not None:
            m = _up4_np(carry) + m
        hs, ws, ht, wt, _ = m.shape
        app_t = appearance(q, feats_t[q], (ht, wt))
        app_s = appearance(q, feats_s[q], (hs, ws))
        carry = 0.5 * (block(m, q, app_t) + _swap_np(block(_swap_np(m), q, app_s)))
    return carry


# ---------------------------------------------------------------------------
# fixtures


def _toy(rng, natives=(16, 8, 4), qs=(3, 4, 5), n_levels=(2, 2, 1),
         d=4, a=8, p=3, c=3, dtype=np.float32, **eff_kw):
    ecfg = EmbedConfig(kernel=3, stride=2, d=d)
    fcfg = EfficientConfig(s=2, a=a, r=2, p=p, **eff_kw)
    specs = [LayerSpec(q, nl, (n, n, n, n), c)
             for q, nl, n in zip(qs, n_levels, natives)]
    store = ParamStore(rng, dtype=dtype)
    agg = CatsPPAggregator(ecfg, fcfg, store, specs)
    hypers, fs, ft = [], [], []
    for q, nl, n in zip(qs, n_levels, natives):
        vol = rng.uniform(0, 1, size=(n, n, n, n, nl)).astype(dtype)
        hypers.append(Hypercorrelation(Tensor(vol), layer=q,
                                       levels=tuple(range(nl))))
        fs.append(FeatureMap(level=10 + q, layer=q,
                             grid=Tensor(rng.normal(size=(n, n, c)).astype(dtype))))
        ft.append(FeatureMap(level=10 + q, layer=q,
                             grid=Tensor(rng.normal(size=(n, n, c)).astype(dtype))))
    return agg, store, hypers, fs, ft


def _wake_zeros(store, rng, scale=0.05):
    for _, t in store.items():
        if np.all(t.data == 0):
            t.data[...] = rng.normal(scale=scale, size=t.shape).astype(t.data.dtype)


# ---------------------------------------------------------------------------


def test_scipy_reference_agrees_with_nested_loop_oracle():
    rng = np.random.default_rng(0)
    for stride in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1)]:
        x = rng.normal(size=(4, 3, 4, 3, 2))
        k = rng.normal(size=(3, 3, 1, 3, 2, 2))
        a = conv4d_scipy(x, k, stride)
        b = conv4d_oracle(x, k, stride)
        assert np.abs(a - b).max() < 1e-10


def test_embedded_extent_chain():
    rng = np.random.default_rng(1)
    agg, store, hypers, fs, ft = _toy(rng)
    embedded = [agg.spec_for(q).embedded(agg.embed_cfg) for q in (3, 4, 5)]
    assert embedded == [(8, 8, 8, 8), (4, 4, 4, 4), (2, 2, 2, 2)]
    for hc, want in zip(hypers, embedded):
        m = agg.conv_embed(hc)
        assert m.shape == want + (4,)


def test_embed_identity_kernel_is_gelu_of_input():
    rng = np.random.default_rng(2)
    ecfg = EmbedConfig(kernel=1, stride=1, d=2)
    fcfg = EfficientConfig(s=2, a=4, p=2, proj_kernel=1, ffn_kernel=1)
    store = ParamStore(rng)
    agg = CatsPPAggregator(ecfg, fcfg, store, [LayerSpec(5, 2, (4, 4, 4, 4), 2)])
    k = store["catspp.q5.embed0.k"]
    k.data[...] = np.eye(2, dtype=np.float32).reshape(1, 1, 1, 1, 2, 2)
    vol = rng.normal(size=(4, 4, 4, 4, 2)).astype(np.float32)
    hc = Hypercorrelation(Tensor(vol), layer=5, levels=(0, 1))
    got = agg.conv_embed(hc).data
    want = _gelu_np(vol.astype(np.float64))
    assert np.abs(got - want).max() < 1e-6


def test_embed_matches_conv_oracle_with_gelu():
    rng = np.random.default_rng(3)
    agg, store, hypers, *_ = _toy(rng, natives=(8,), qs=(5,), n_levels=(2,))
    got = agg.conv_embed(hypers[0]).data
    k = store["catspp.q5.embed0.k"].data
    b = store["catspp.q5.embed0.b"].data
    want = _gelu_np(conv4d_oracle(hypers[0].vol.data, k, (2, 2, 2, 2)) + b)
    assert np.abs(got - want).max() < 1e-5


def test_embed_kernel_larger_than_extent_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ConfigError):
        _toy(rng, natives=(2,), qs=(5,), n_levels=(1,))


def test_asymmetric_extents_rejected():
    rng = np.random.default_rng(5)
    store = ParamStore(rng)
    with pytest.raises(ConfigError):
        CatsPPAggregator(EmbedConfig(), EfficientConfig(), store,
                         [LayerSpec(5, 1, (8, 8, 4, 4), 3)])


def test_qk_stride_reduces_source_extent_by_s_squared():
    rng = np.random.default_rng(6)
    agg, store, hypers, fs, ft = _toy(rng, natives=(16,), qs=(3,), n_levels=(2,))
    m = agg.conv_embed(hypers[0])  # [8,8,8,8,4]
    app = agg._appearance(ft[0], 3, (8, 8))
    q = agg._qk_branch(T.layer_norm(m, store["catspp.q3.enc0.ln_in.g"],
                                    store["catspp.q3.enc0.ln_in.b"]),
                       "qq", "q3.enc0", app)
    # tokens 64; pre-projection correlation extent (8*8*4) shrinks to (4*4*4)
    assert q.shape == (64, agg.eff.a)
    assert store["catspp.q3.enc0.pq.w"].shape == (4 * 4 * 4 + 3, agg.eff.a)


def test_zero_appearance_features_reduce_to_correlation_branch():
    rng = np.random.default_rng(7)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    _wake_zeros(store, rng)
    m = agg.conv_embed(hypers[0])
    zero_feat = FeatureMap(0, 5, Tensor(np.zeros((8, 8, 3), np.float32)))
    store["catspp.q5.appear.b"].data[...] = 0.0
    app = agg._appearance(zero_feat, 5, (4, 4))
    np.testing.assert_array_equal(app.data, 0.0)
    out_zero = agg.efficient_block(m, zero_feat, 5).data
    # manual: same block with an explicitly zeroed appearance slot
    out_manual = agg.efficient_block(
        m, FeatureMap(0, 5, Tensor(np.zeros((4, 4, 3), np.float32))), 5).data
    np.testing.assert_array_equal(out_zero, out_manual)


def test_qkv_matches_straight_line_oracle():
    rng = np.random.default_rng(8)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    _wake_zeros(store, rng)
    P = {n[len("catspp."):]: t.data.astype(np.float64) for n, t in store.items()}
    m = agg.conv_embed(hypers[0])
    mn = T.layer_norm(m, store["catspp.q5.enc0.ln_in.g"],
                      store["catspp.q5.enc0.ln_in.b"])
    app = agg._appearance(ft[0], 5, (4, 4))
    qmat = agg._qk_branch(mn, "qq", "q5.enc0", app).data
    kmat = agg._qk_branch(mn, "kk", "q5.enc0", app).data

    mn_np = _ln_np(m.data.astype(np.float64), P["q5.enc0.ln_in.g"],
                   P["q5.enc0.ln_in.b"])
    app_np = bilinear2d_oracle(ft[0].grid.data, (4, 4)).reshape(16, 3) \
        @ P["q5.appear.w"] + P["q5.appear.b"]
    conv = conv4d_scipy(mn_np, P["q5.enc0.qq.k"], (2, 2, 1, 1)) + P["q5.enc0.qq.b"]
    flat = _tokens_np(_ln_np(conv, P["q5.enc0.ln_q.g"], P["q5.enc0.ln_q.b"]))
    want_q = np.concatenate([flat, app_np], 1) @ P["q5.enc0.pq.w"] + P["q5.enc0.pq.b"]
    assert np.abs(qmat - want_q).max() < 1e-5

    convk = conv4d_scipy(mn_np, P["q5.enc0.kk.k"], (2, 2, 1, 1)) + P["q5.enc0.kk.b"]
    flatk = _tokens_np(_ln_np(convk, P["q5.enc0.ln_k.g"], P["q5.enc0.ln_k.b"]))
    want_k = np.concatenate([flatk, app_np], 1) @ P["q5.enc0.pk.w"] + P["q5.enc0.pk.b"]
    assert np.abs(kmat - want_k).max() < 1e-5


def test_volumetric_ffn_residual_identity():
    rng = np.random.default_rng(9)
    agg, store, hypers, *_ = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    store["catspp.q5.enc0.f2.k"].data[...] = 0.0
    store["catspp.q5.enc0.f2.b"].data[...] = 0.0
    z = Tensor(rng.normal(size=(4, 4, 4, 4, 4)).astype(np.float32))
    out = agg.volumetric_ffn(z, 5)
    assert out.data.tobytes() == z.data.tobytes()


def test_volumetric_ffn_pointwise_oracle():
    rng = np.random.default_rng(10)
    agg, store, hypers, *_ = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,),
                                  ffn_kernel=1)
    z = Tensor(np.full((2, 2, 2, 2, 4), 0.7, np.float32))
    out = agg.volumetric_ffn(z, 5).data
    P = {n[len("catspp."):]: t.data.astype(np.float64) for n, t in store.items()}
    xn = _ln_np(z.data.astype(np.float64), P["q5.enc0.ffn_ln.g"], P["q5.enc0.ffn_ln.b"])
    w1 = P["q5.enc0.f1.k"][0, 0, 0, 0]
    w2 = P["q5.enc0.f2.k"][0, 0, 0, 0]
    want = _gelu_np(xn @ w1 + P["q5.enc0.f1.b"]) @ w2 + P["q5.enc0.f2.b"] + z.data
    assert np.abs(out - want).max() < 1e-5


def test_volumetric_ffn_gradcheck():
    rng = np.random.default_rng(11)
    agg, store, *_ = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,),
                          d=2, dtype=np.float64)
    _wake_zeros(store, rng)
    z = Tensor(rng.normal(size=(2, 2, 2, 2, 2)), dtype=np.float64, requires_grad=True)
    w = rng.normal(size=(2, 2, 2, 2, 2))

    def fwd():
        return T.tsum(T.mul(agg.volumetric_ffn(z, 5), Tensor(w, dtype=np.float64)))

    z.grad = None
    T.backward(fwd())
    fd = finite_diff(lambda: fwd().item(), z, 1e-4)
    rel = np.abs(z.grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-4


def test_efficient_block_identity_when_zeroed():
    rng = np.random.default_rng(12)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    _wake_zeros(store, rng)
    agg.zero_output_projections()
    m = agg.conv_embed(hypers[0])
    out = agg.efficient_block(m, ft[0], 5)
    assert out.data.tobytes() == m.data.tobytes()


def test_single_layer_is_one_parallel_sum():
    rng = np.random.default_rng(13)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    _wake_zeros(store, rng)
    out = agg.aggregate(hypers, fs, ft).data
    m = agg.conv_embed(hypers[0])
    a = agg.efficient_block(m, ft[0], 5).data
    b = agg.efficient_block(
        Tensor(np.ascontiguousarray(m.data.transpose(2, 3, 0, 1, 4))), fs[0], 5).data
    want = 0.5 * (a + b.transpose(2, 3, 0, 1, 4))
    np.testing.assert_array_equal(out, want)


def test_pyramid_residual_cascade_when_zeroed():
    rng = np.random.default_rng(14)
    agg, store, hypers, fs, ft = _toy(rng)
    agg.zero_output_projections()
    out = agg.aggregate(hypers, fs, ft).data
    with T.no_grad():
        m3 = agg.conv_embed(hypers[0])
        m4 = agg.conv_embed(hypers[1])
        m5 = agg.conv_embed(hypers[2])
        from catagg.volume_ops import upsample4d_bilinear

        lvl4 = T.add(upsample4d_bilinear(m5, 2), m4)
        want = T.add(upsample4d_bilinear(lvl4, 2), m3)
    assert out.tobytes() == want.data.tobytes()


def test_layer_swap_equivariance():
    rng = np.random.default_rng(15)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,))
    _wake_zeros(store, rng)
    m = agg.conv_embed(hypers[0])
    out = agg._layer_parallel(m, 5, fs, ft).data
    m_sw = Tensor(np.ascontiguousarray(m.data.transpose(2, 3, 0, 1, 4)))
    out_sw = agg._layer_parallel(m_sw, 5, ft, fs).data
    assert np.abs(out_sw - out.transpose(2, 3, 0, 1, 4)).max() < 1e-5


def test_shape_chain_and_broken_chain_error():
    rng = np.random.default_rng(16)
    agg, store, hypers, fs, ft = _toy(rng, natives=(8, 6), qs=(3, 4),
                                      n_levels=(1, 1))
    with pytest.raises(ConfigError):
        agg.aggregate(hypers, fs, ft)


def test_full_pyramid_matches_monolithic_oracle():
    rng = np.random.default_rng(17)
    agg, store, hypers, fs, ft = _toy(rng)
    _wake_zeros(store, rng)
    out = agg.aggregate(hypers, fs, ft).data
    P = {n[len("catspp."):]: t.data.astype(np.float64) for n, t in store.items()}
    raw = {hc.layer: hc.vol.data.astype(np.float64) for hc in hypers}
    f_s = {f.layer: f.grid.data.astype(np.float64) for f in fs}
    f_t = {f.layer: f.grid.data.astype(np.float64) for f in ft}
    want = catspp_oracle(raw, f_s, f_t, P, agg.embed_cfg, agg.eff)
    assert out.shape == want.shape == (8, 8, 8, 8, 4)
    assert np.abs(out - want).max() < 1e-5


def test_doubling_encoders_doubles_encoder_params():
    rng = np.random.default_rng(18)
    _, s1, *_ = _toy(rng, natives=(8,), qs=(5,), n_levels=(1,), n_encoders=1)
    _, s2, *_ = _toy(np.random.default_rng(18), natives=(8,), qs=(5,),
                     n_levels=(1,), n_encoders=2)
    enc1 = sum(t.size for n, t in s1.items() if ".enc" in n)
    enc2 = sum(t.size for n, t in s2.items() if ".enc" in n)
    assert enc2 == 2 * enc1


def test_full_model_gradcheck_small():
    rng = np.random.default_rng(19)
    ecfg = EmbedConfig(kernel=1, stride=1, d=2)
    fcfg = EfficientConfig(s=2, a=4, r=2, p=2, proj_kernel=3, ffn_kernel=1)
    store = ParamStore(rng, dtype=np.float64)
    specs = [LayerSpec(4, 1, (4, 4, 4, 4), 2), LayerSpec(5, 1, (2, 2, 2, 2), 2)]
    agg = CatsPPAggregator(ecfg, fcfg, store, specs)
    _wake_zeros(store, rng, scale=0.1)

    def mk(level, layer, n):
        return FeatureMap(level, layer, Tensor(
            rng.normal(size=(n, n, 2)), dtype=np.float64, requires_grad=True))

    fs = [mk(0, 4, 4), mk(1, 5, 2)]
    ft = [mk(0, 4, 4), mk(1, 5, 2)]
    w = rng.normal(size=(4, 4, 4, 4, 2))

    def fwd():
        hypers = build_hypercorrelation(fs, ft, layers=(4, 5))
        out = agg.aggregate(hypers, fs, ft)
        return T.tsum(T.mul(out, Tensor(w, dtype=np.float64)))

    store.zero_grad()
    for f in fs + ft:
        f.grid.grad = None
    T.backward(fwd())

    def scalar():
        return fwd().item()

    # channel LN over d=2 can sit at near-zero variance, so curvature is
    # extreme; h must be small enough that truncation stays below the gate
    names = ["catspp.q4.embed0.k", "catspp.q4.enc0.qq.b", "catspp.q4.enc0.pq.w",
             "catspp.q4.pos", "catspp.q4.enc0.f1.k", "catspp.q4.enc0.ln_v.g",
             "catspp.q5.appear.w", "catspp.q5.enc0.f2.k"]
    for name in names:
        t = store[name]
        fd = finite_diff(scalar, t, 1e-7)
        rel = np.abs(t.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4, f"{name}: {rel.max():.2e}"
    for f in fs + ft:
        fd = finite_diff(scalar, f.grid, 1e-7)
        rel = np.abs(f.grid.grad - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-4
