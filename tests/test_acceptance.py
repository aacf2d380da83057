"""End-to-end acceptance suite: one test per shipping criterion.

Each test prints a single summary line on success so `pytest -v -s` reads
as a checklist, and every assertion carries the measured value so a failure
is self-describing. The two training criteria freeze learning-rate recipes
that were calibrated once for the desk-scale grids; they are deterministic
(fixed seeds throughout) so the measured numbers reproduce exactly.

The metric-oracle test re-reads every emitted artifact with its own struct
parser and recomputes AEPE/PCK in plain numpy, touching no library code on
the verification side.
"""

import itertools
import re
import struct
import time
from dataclasses import replace

import numpy as np

from catagg import pipeline as pl
from catagg import tensor as tt
from catagg.bench import compare_blocks
from catagg.cats import CatsAggregator, CatsConfig
from catagg.catspp import CatsPPAggregator, EfficientConfig, EmbedConfig, LayerSpec
from catagg.cli import main as cli_main
from catagg.config import RunConfig
from catagg.correlation import (CorrelationStack, FeatureMap,
                                Hypercorrelation, cosine_correlation, swap)
from catagg.params import ParamStore
from catagg.synth import generate_pair
from catagg.tensor import Tensor
from catagg.volume_ops import conv4d, upsample4d_bilinear


def _ok(n: int, detail: str):
    print(f"criterion {n}: PASS ({detail})")


# ------------------------------------------------------------------ 1


def test_c1_gradient_suite_under_budget(capsys):
    t0 = time.monotonic()
    rc = cli_main(["gradcheck", "--ops", "all"])
    wall = time.monotonic() - t0
    out = capsys.readouterr().out
    rows = re.findall(r"^(\S+)\s+([0-9.eE+-]+)\s+(pass|FAIL)\s*$", out, re.M)
    assert rc == 0, f"gradcheck exited {rc}:\n{out}"
    assert len(rows) >= 20, f"only {len(rows)} ops checked:\n{out}"
    errs = {name: float(err) for name, err, _ in rows}
    worst = max(errs, key=errs.get)
    assert all(mark == "pass" for _, _, mark in rows), out
    assert errs[worst] < 1e-4, f"{worst} rel err {errs[worst]:.3e}"
    assert wall < 60.0, f"gradient suite took {wall:.1f}s"
    _ok(1, f"{len(rows)} ops, max rel err {errs[worst]:.2e} ({worst}), {wall:.1f}s")


# ------------------------------------------------------------------ 2


def _conv4d_loops(x: np.ndarray, k: np.ndarray, stride) -> np.ndarray:
    """Reference 4D cross-correlation: explicit loops, ceil-mode same padding."""
    ns, ks = x.shape[:4], k.shape[:4]
    cout = k.shape[5]
    outs, before = [], []
    for n, kk, s in zip(ns, ks, stride):
        o = -(-n // s)
        total = max((o - 1) * s + kk - n, 0)
        outs.append(o)
        before.append(total // 2)
    out = np.zeros((*outs, cout), dtype=x.dtype)
    for o1 in range(outs[0]):
        for o2 in range(outs[1]):
            for o3 in range(outs[2]):
                for o4 in range(outs[3]):
                    acc = np.zeros(cout, dtype=x.dtype)
                    for t1 in range(ks[0]):
                        i1 = o1 * stride[0] + t1 - before[0]
                        if not 0 <= i1 < ns[0]:
                            continue
                        for t2 in range(ks[1]):
                            i2 = o2 * stride[1] + t2 - before[1]
                            if not 0 <= i2 < ns[1]:
                                continue
                            for t3 in range(ks[2]):
                                i3 = o3 * stride[2] + t3 - before[2]
                                if not 0 <= i3 < ns[2]:
                                    continue
                                for t4 in range(ks[3]):
                                    i4 = o4 * stride[3] + t4 - before[3]
                                    if not 0 <= i4 < ns[3]:
                                        continue
                                    acc = acc + x[i1, i2, i3, i4] @ k[t1, t2, t3, t4]
                    out[o1, o2, o3, o4] = acc
    return out


def test_c2_conv4d_matches_nested_loop_oracle():
    rng = np.random.default_rng(0)
    channels = [(1, 1), (2, 3), (3, 2), (3, 3), (1, 2), (2, 1)]
    t0 = time.monotonic()
    worst, n_cases = 0.0, 0
    for idx, ext in enumerate(itertools.product((1, 2, 3, 4), repeat=4)):
        cin, cout = channels[idx % len(channels)]
        x = rng.standard_normal((*ext, cin))
        for kk in (1, 3):
            k = rng.standard_normal((kk, kk, kk, kk, cin, cout))
            for s in (1, 2):
                got = conv4d(Tensor(x), Tensor(k), stride=(s, s, s, s)).data
                want = _conv4d_loops(x, k, (s, s, s, s))
                assert got.shape == want.shape, (ext, kk, s)
                worst = max(worst, float(np.abs(got - want).max()))
                n_cases += 1
    # mixed per-axis kernel extents and strides
    for ext, ks, st, (cin, cout) in [
        ((4, 3, 2, 4), (1, 3, 3, 1), (1, 2, 2, 1), (2, 2)),
        ((3, 4, 4, 2), (3, 1, 3, 3), (2, 1, 1, 2), (3, 1)),
        ((4, 4, 3, 3), (3, 3, 1, 3), (1, 1, 2, 2), (1, 3)),
    ]:
        x = rng.standard_normal((*ext, cin))
        k = rng.standard_normal((*ks, cin, cout))
        got = conv4d(Tensor(x), Tensor(k), stride=st).data
        worst = max(worst, float(np.abs(got - _conv4d_loops(x, k, st)).max()))
        n_cases += 1
    wall = time.monotonic() - t0
    assert worst < 1e-5, f"max abs diff {worst:.3e}"
    assert wall < 30.0, f"oracle sweep took {wall:.1f}s"
    _ok(2, f"{n_cases} configs, max abs diff {worst:.2e}, {wall:.1f}s")


# ------------------------------------------------------------------ 3


def _randomize(store: ParamStore, seed: int):
    rng = np.random.default_rng(seed)
    for name, arr in store.state_arrays().items():
        t = store[name]
        t.data[...] = (0.5 * rng.standard_normal(arr.shape)).astype(t.data.dtype)


def _toy_catspp(seed: int = 0) -> tuple[CatsPPAggregator, ParamStore]:
    embed = EmbedConfig(kernel=3, stride=2, d=4, n_stages=1)
    eff = EfficientConfig(s=2, a=16, r=2, n_encoders=1, p=8,
                          proj_kernel=3, ffn_kernel=3)
    layers = [LayerSpec(q=4, n_levels=2, extents=(8, 8, 8, 8), app_channels=6),
              LayerSpec(q=5, n_levels=3, extents=(4, 4, 4, 4), app_channels=6)]
    store = ParamStore(rng=np.random.default_rng(seed))
    return CatsPPAggregator(embed, eff, store, layers), store


def _toy_inputs(seed: int = 3):
    rng = np.random.default_rng(seed)

    def fmap(layer, h):
        return FeatureMap(level=0, layer=layer,
                          grid=Tensor(rng.uniform(size=(h, h, 6)).astype(np.float32)))

    h4 = Hypercorrelation(
        vol=Tensor(rng.uniform(size=(8, 8, 8, 8, 2)).astype(np.float32)),
        layer=4, levels=(0, 1))
    h5 = Hypercorrelation(
        vol=Tensor(rng.uniform(size=(4, 4, 4, 4, 3)).astype(np.float32)),
        layer=5, levels=(0, 1, 2))
    feats_s = [fmap(4, 8), fmap(5, 4)]
    feats_t = [fmap(4, 8), fmap(5, 4)]
    return h4, h5, feats_s, feats_t


def test_c3_zeroed_projections_reduce_to_identity():
    # two-pass aggregator: randomized params, zeroed residual writers
    cfg = CatsConfig(grid=(6, 6), n_encoders=2, n_heads=2, p=8,
                     ffn_ratio=2, mode="serial")
    store = ParamStore(rng=np.random.default_rng(0))
    agg = CatsAggregator(cfg, store, feat_channels=[5, 7])
    _randomize(store, 11)
    agg.zero_output_projections()
    rng = np.random.default_rng(5)
    stack = CorrelationStack(
        maps=Tensor(rng.uniform(size=(2, 36, 36)).astype(np.float32)),
        grid=(6, 6))
    feats = lambda: [
        FeatureMap(level=l, layer=0,
                   grid=Tensor(rng.uniform(size=(6, 6, c)).astype(np.float32)))
        for l, c in enumerate((5, 7))]
    fs, ft = feats(), feats()
    with tt.no_grad():
        for mode in ("serial", "parallel", "both"):
            out = agg.aggregate(stack, fs, ft, mode=mode)
            assert out.maps.data.tobytes() == stack.maps.data.tobytes(), mode

    # pyramidal aggregator: output collapses to the embed+upsample cascade
    pp, pstore = _toy_catspp()
    _randomize(pstore, 12)
    pp.zero_output_projections()
    h4, h5, feats_s, feats_t = _toy_inputs()
    with tt.no_grad():
        ref = tt.add(upsample4d_bilinear(pp.conv_embed(h5), 2), pp.conv_embed(h4))
        out = pp.aggregate([h4, h5], feats_s, feats_t)
    assert out.data.tobytes() == ref.data.tobytes()
    _ok(3, "two-pass identity bitwise in 3 modes; pyramid equals cascade bitwise")


# ------------------------------------------------------------------ 4


def _swapped(v: Tensor) -> Tensor:
    return tt.transpose(v, (2, 3, 0, 1, 4))


def test_c4_swap_involution_transpose_and_equivariance():
    rng = np.random.default_rng(2)

    stack = CorrelationStack(
        maps=Tensor(rng.uniform(size=(3, 20, 20)).astype(np.float32)),
        grid=(4, 5))
    twice = swap(swap(stack))
    assert twice.maps.data.tobytes() == stack.maps.data.tobytes()
    assert twice.token_axis == stack.token_axis

    hyper = Hypercorrelation(
        vol=Tensor(rng.uniform(size=(2, 3, 4, 5, 3)).astype(np.float32)),
        layer=3, levels=(0, 1, 2))
    htwice = swap(swap(hyper))
    assert htwice.vol.data.tobytes() == hyper.vol.data.tobytes()

    a = FeatureMap(level=0, layer=0,
                   grid=Tensor(rng.standard_normal((7, 5, 6)).astype(np.float32)))
    b = FeatureMap(level=0, layer=0,
                   grid=Tensor(rng.standard_normal((7, 5, 6)).astype(np.float32)))
    fwd = cosine_correlation(a, b).data
    rev = cosine_correlation(b, a).data
    tdiff = float(np.abs(fwd - rev.T).max())
    assert tdiff < 1e-6, f"transpose mismatch {tdiff:.3e}"

    # swapping both the volume and the feature roles transposes the output
    pp, _ = _toy_catspp(seed=1)
    _, _, feats_s, feats_t = _toy_inputs(seed=4)
    m = Tensor(np.random.default_rng(6).standard_normal(
        (4, 4, 4, 4, 4)).astype(np.float32))
    with tt.no_grad():
        lhs = pp._layer_parallel(_swapped(m), 4, feats_t, feats_s)
        rhs = _swapped(pp._layer_parallel(m, 4, feats_s, feats_t))
    ediff = float(np.abs(lhs.data - rhs.data).max())
    assert ediff < 1e-5, f"equivariance gap {ediff:.3e}"
    _ok(4, f"involutions bitwise; transpose gap {tdiff:.2e}; "
           f"parallel-branch gap {ediff:.2e}")


# ------------------------------------------------------------------ 5


def _desk_model(name: str, lr_agg: float, lr_bb: float, steps: int):
    sets = [f"model={name}", "seed=7", f"train.steps={steps}",
            f"train.lr_aggregator={lr_agg}", f"train.lr_backbone={lr_bb}"]
    if name == "catspp":
        sets += ["grid.h=8", "grid.w=8", "mode=parallel"]
    cfg = RunConfig.load(None, sets=sets)
    model = cfg.build_model()
    tcfg = cfg.train_config()
    return model, tcfg, pl.make_optimizer(model, tcfg)


def test_c5_single_pair_overfit_reaches_half_cell():
    pair31 = generate_pair(31)
    details = []
    for name, lr_agg, lr_bb in (("catspp", 2e-3, 2e-4), ("cats", 1e-3, 1e-4)):
        model, tcfg, opt = _desk_model(name, lr_agg, lr_bb, steps=2000)
        rng = np.random.default_rng(tcfg.seed)
        t0 = time.monotonic()
        history = pl.train(model, opt, [pair31], tcfg, rng, stop_below=0.4)
        wall = time.monotonic() - t0
        err = pl.evaluate(model, [pair31], alphas=(0.1,)).rows[0].aepe
        assert len(history) <= 2000, name
        assert err < 0.5, f"{name}: AEPE {err:.4f} after {len(history)} steps"
        assert wall < 600.0, f"{name}: took {wall:.0f}s"
        details.append(f"{name} aepe={err:.3f} in {len(history)} steps/{wall:.0f}s")
    _ok(5, "; ".join(details))


# ------------------------------------------------------------------ 6


def test_c6_trained_aggregators_beat_wta_baseline():
    t_all = time.monotonic()
    train_pairs = [generate_pair(1000 + i) for i in range(200)]
    eval_pairs = [generate_pair(5000 + i) for i in range(50)]
    details = []
    for name, lr_agg, lr_bb in (("catspp", 1e-3, 1e-4), ("cats", 3e-4, 3e-5)):
        model, tcfg, opt = _desk_model(name, lr_agg, lr_bb, steps=400)
        rng = np.random.default_rng(tcfg.seed)
        pl.train(model, opt, train_pairs, tcfg, rng)
        rep = pl.evaluate(model, eval_pairs, alphas=(0.1,))
        got, base = rep.mean_pck(0.1), rep.mean_pck(0.1, wta=True)
        assert got >= base + 0.05, \
            f"{name}: pck@0.1 {got:.4f} vs wta {base:.4f}"
        details.append(f"{name} pck@0.1={got:.3f} wta={base:.3f}")
    wall = time.monotonic() - t_all
    assert wall < 2700.0, f"took {wall:.0f}s"
    _ok(6, "; ".join(details) + f"; {wall:.0f}s total")


# ------------------------------------------------------------------ 7


def test_c7_efficient_block_parameter_and_memory_budget(capsys):
    cfg = RunConfig.load(None, sets=["model=catspp", "grid.h=8", "grid.w=8"])
    model = cfg.build_model()
    ratios = {}
    for q in cfg.layers():
        row = compare_blocks(model, q)
        ratios[q] = row["efficient.params"] / row["standard.params"]
        assert row["efficient.params"] <= 0.30 * row["standard.params"], \
            f"q={q}: {row['efficient.params']} vs {row['standard.params']}"
    rc = cli_main(["bench", "--set", "model=catspp",
                   "--set", "grid.h=8", "--set", "grid.w=8"])
    out = capsys.readouterr().out
    assert rc == 0
    for q in cfg.layers():
        eff = int(re.search(rf"^q{q}\.efficient\.peak_bytes = (\d+)$", out, re.M)[1])
        std = int(re.search(rf"^q{q}\.standard\.peak_bytes = (\d+)$", out, re.M)[1])
        assert eff <= std, f"q={q}: peak {eff} vs {std} bytes"
    _ok(7, "param ratios " + ", ".join(
        f"q{q}={r:.3f}" for q, r in sorted(ratios.items()))
        + " (limit 0.30); efficient peak bytes <= standard at every layer")


# ------------------------------------------------------------------ 8


def _read_catt(path) -> np.ndarray:
    """Independent reader for the single-tensor binary format."""
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw[:4] == b"CATT", path
    tag, rank = raw[4], raw[5]
    shape = struct.unpack_from(f"<{rank}I", raw, 6)
    dt = {0: "<f4", 1: "<f8"}[tag]
    n = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(raw, dtype=dt, count=n, offset=6 + 4 * rank)
    return data.reshape(shape).astype(np.float64)


def _read_kp_file(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return np.array([[float(v) for v in ln.split()] for ln in lines[1:]])


def _lattice(size: int, n: int = 5) -> np.ndarray:
    ticks = (np.arange(1, n + 1) / (n + 1)) * size
    return np.array([(ticks[j], ticks[i]) for i in range(n) for j in range(n)])


def _oracle_transfer(flow: np.ndarray, pts: np.ndarray, size: int) -> np.ndarray:
    """Keypoint transfer in plain numpy: cell-center scaling, clamped bilinear."""
    h, w = flow.shape[:2]
    gx = pts[:, 0] * w / size - 0.5
    gy = pts[:, 1] * h / size - 0.5
    cx, cy = np.clip(gx, 0.0, w - 1.0), np.clip(gy, 0.0, h - 1.0)
    x0 = np.clip(np.floor(cx).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(cy).astype(int), 0, h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (cx - x0)[:, None], (cy - y0)[:, None]
    top = flow[y0, x0] * (1 - fx) + flow[y0, x1] * fx
    bot = flow[y1, x0] * (1 - fx) + flow[y1, x1] * fx
    d = top * (1 - fy) + bot * fy
    px = (gx + d[:, 0] + 0.5) * size / w
    py = (gy + d[:, 1] + 0.5) * size / h
    eps = 1e-6
    return np.stack([np.clip(px, 0, size - eps), np.clip(py, 0, size - eps)], axis=1)


def _parse_report(text: str):
    rows, summary = [], None
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        toks = ln.split()
        fields = dict(t.split("=", 1) for t in toks if "=" in t)
        if toks[0] == "summary":
            summary = fields
        else:
            rows.append(fields)
    return rows, summary


def test_c8_metrics_match_independent_file_recomputation(tmp_path):
    size, alphas = 128, (0.05, 0.1, 0.15)
    common = ["--set", "model=catspp", "--set", "grid.h=8", "--set", "grid.w=8",
              "--set", "mode=parallel"]
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    report = tmp_path / "report.txt"
    inf = tmp_path / "inferred"
    kp_file = tmp_path / "probe_kp.txt"

    pts = _lattice(size)
    kp_file.write_text(f"{size} {size}\n" + "\n".join(
        f"{float(x)!r} {float(y)!r}" for x, y in pts) + "\n")

    assert cli_main(["gen-data", "--out", str(data), "--pairs", "3",
                     "--seed", "21", *common]) == 0
    assert cli_main(["train", "--data", str(data / "manifest.txt"),
                     "--out", str(ckpt), *common,
                     "--set", "train.steps=8",
                     "--set", "train.lr_aggregator=1e-3",
                     "--set", "train.lr_backbone=1e-4"]) == 0
    assert cli_main(["eval", "--data", str(data / "manifest.txt"),
                     "--checkpoint", str(ckpt), "--report", str(report),
                     *common]) == 0
    assert cli_main(["infer", "--data", str(data / "manifest.txt"),
                     "--checkpoint", str(ckpt), "--out", str(inf),
                     "--keypoints", str(kp_file), *common]) == 0

    rows, summary = _parse_report(report.read_text())
    assert len(rows) == 3 and summary is not None
    worst = 0.0
    means = {"aepe": [], **{f"pck@{a:g}": [] for a in alphas}}
    for i, row in enumerate(rows):
        gt = _read_catt(data / f"flow_{i:04d}.catt")
        pred = _read_catt(inf / f"pred_flow_{i:04d}.catt")
        aepe_o = float(np.sqrt(((pred - gt) ** 2).sum(-1)).mean())
        worst = max(worst, abs(aepe_o - float(row["aepe"])))
        means["aepe"].append(aepe_o)

        pred_kp = _read_kp_file(inf / f"pred_kp_{i:04d}.txt")
        gt_kp = _oracle_transfer(gt, pts, size)
        dist = np.sqrt(((pred_kp - gt_kp) ** 2).sum(-1))
        for a in alphas:
            pck_o = float((dist <= a * size).mean())
            worst = max(worst, abs(pck_o - float(row[f"pck@{a:g}"])))
            means[f"pck@{a:g}"].append(pck_o)
        # monotone in the threshold, both for the model and the baseline
        for col in ("pck", "wta_pck"):
            vals = [float(row[f"{col}@{a:g}"]) for a in alphas]
            assert vals == sorted(vals), (i, col, vals)
    for key, vals in means.items():
        worst = max(worst, abs(float(np.mean(vals)) - float(summary[key])))
    svals = [float(summary[f"pck@{a:g}"]) for a in alphas]
    assert svals == sorted(svals), svals
    assert worst < 1e-6, f"recomputation gap {worst:.3e}"
    _ok(8, f"3 pairs x {len(alphas)} thresholds + aepe recomputed from files, "
           f"max gap {worst:.2e}; pck monotone in alpha")


# ------------------------------------------------------------------ 9


def _state_bytes(store: ParamStore) -> dict[str, bytes]:
    return {k: v.tobytes() for k, v in store.state_arrays().items()}


def test_c9_training_is_reproducible_and_resumable(tmp_path):
    pairs = [generate_pair(41), generate_pair(42)]

    def fresh():
        return _desk_model("catspp", 1e-3, 1e-4, steps=12)

    model_a, tcfg, opt_a = fresh()
    hist_a = pl.train(model_a, opt_a, pairs, tcfg, np.random.default_rng(tcfg.seed))
    state_a = _state_bytes(model_a.store)

    model_b, _, opt_b = fresh()
    hist_b = pl.train(model_b, opt_b, pairs, tcfg, np.random.default_rng(tcfg.seed))
    assert hist_a == hist_b
    assert _state_bytes(model_b.store) == state_a

    model_c, _, opt_c = fresh()
    rng_c = np.random.default_rng(tcfg.seed)
    pl.train(model_c, opt_c, pairs, replace(tcfg, steps=6), rng_c)
    path = tmp_path / "mid.ckpt"
    pl.save_checkpoint(path, "catspp", model_c.store, opt_c, rng_c, {})

    model_d, _, opt_d = fresh()
    rng_d = np.random.default_rng(999)  # overwritten by the checkpoint
    meta = pl.load_checkpoint(path, model_d.store, opt_d, rng_d)
    assert meta["step"] == 6
    hist_d = pl.train(model_d, opt_d, pairs, tcfg, rng_d)
    assert hist_d == hist_a[6:]
    assert _state_bytes(model_d.store) == state_a
    _ok(9, "two fresh 12-step runs bit-identical; 6+6 resume matches "
           "straight-through bit-exactly")
