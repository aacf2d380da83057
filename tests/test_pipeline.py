"""Training loop, evaluation reports, dataset files, and checkpoints."""

import hashlib
import multiprocessing
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from catagg import pipeline as pl
from catagg import tensor as tt
from catagg.cats import CatsConfig
from catagg.catspp import EfficientConfig, EmbedConfig
from catagg.errors import (ArgumentError, CheckpointError, NumericError,
                           StateError)
from catagg.flow import aepe, pck, transfer_keypoints
from catagg.model import CatsModel, CatsPPModel
from catagg.params import ParamStore
from catagg.synth import generate_pair
from catagg.tensor_io import load_tensor, save_bundle, save_tensor


def _build(seed=0, dtype=np.float32):
    store = ParamStore(rng=np.random.default_rng(seed), dtype=dtype)
    embed = EmbedConfig(kernel=3, stride=2, d=8, n_stages=1)
    eff = EfficientConfig(s=2, a=32, r=2, n_encoders=1, p=16,
                          proj_kernel=3, ffn_kernel=3)
    return store, CatsPPModel(store, embed, eff, layers=(4, 5))


def _build_cats():
    store = ParamStore(rng=np.random.default_rng(0))
    return store, CatsModel(store, CatsConfig(grid=(16, 16)), layers=(4, 5))


def _pairs(n=3, base=200):
    return [generate_pair(base + i) for i in range(n)]


def _log(directory, kind, value):
    """Append one entry to this process's log, readable across a fork."""
    with open(directory / f"{os.getpid()}.log", "a") as fh:
        fh.write(f"{kind} {value}\n")


def _read_logs(directory) -> dict:
    """{pid: [(kind, value), ...]} of every process that called `_log`."""
    logs = {}
    for path in directory.glob("*.log"):
        entries = [line.split() for line in path.read_text().splitlines()]
        logs[int(path.stem)] = [(k, None if v == "None" else int(v))
                                for k, v in entries]
    return logs


def _hash(store):
    return hashlib.sha256(b"".join(
        v.tobytes() for _, v in sorted(store.state_arrays().items()))).hexdigest()


class TestTrainStep:
    def test_returns_pre_update_loss(self):
        store, model = _build()
        pairs = _pairs(1)
        cfg = pl.TrainConfig(steps=5)
        opt = pl.make_optimizer(model, cfg)
        with tt.no_grad():
            pred = model.flow(pairs[0].source, pairs[0].target)
            gt = pairs[0].gt_flow(model.flow_grid, dtype=np.float32)
            expect = aepe(pred, gt).item()
        got = pl.train_step(model, opt, pairs)
        assert got == pytest.approx(expect, rel=1e-6)
        assert opt.step_count == 1

    def test_poisoned_params_fail_fast_in_forward(self):
        store, model = _build()
        store["catspp.q4.embed0.k"].data[0, 0, 0] = np.nan
        opt = pl.make_optimizer(model, pl.TrainConfig(steps=5))
        with pytest.raises(NumericError):
            pl.train_step(model, opt, _pairs(1))

    def test_nan_loss_aborts_naming_step_and_op(self):
        # a NaN that reaches the loss triggers a diagnostic rerun that names
        # the first non-finite op
        from catagg.flow import FlowField
        from catagg.tensor import Tensor

        store = ParamStore(rng=np.random.default_rng(0), dtype=np.float32)
        store.add("a.x", (2,))

        class _NaNModel:
            flow_grid = (4, 4)

            def __init__(self, s):
                self.store = s

            def flow(self, src, tgt):
                return FlowField(Tensor(
                    np.full((4, 4, 2), np.nan, dtype=np.float32)))

        from catagg.optim import AdamW
        opt = AdamW(store, groups=[("a", 1e-3)], total_steps=5)
        with pytest.raises(NumericError, match=r"step 1"):
            pl.train_step(_NaNModel(store), opt, _pairs(1))

    def test_grads_match_param_shape_and_dtype(self):
        for store, model in (_build(), _build_cats()):
            opt = pl.make_optimizer(model, pl.TrainConfig(steps=1))
            pl.train_step(model, opt, _pairs(1))
            for name, t in store.items():
                if t.grad is not None:
                    assert t.grad.shape == t.shape, name
                    assert t.grad.dtype == t.data.dtype, name
            # stage 3's second map feeds no selected layer, so no backward
            # reaches it; every other parameter has a gradient
            assert {n for n, t in store.items() if t.grad is None} == {
                "backbone.stage3.mix.w", "backbone.stage3.mix.b"}

    def test_step_peak_stays_near_what_the_forward_holds(self, monkeypatch):
        # the step allocates little beyond the activations backward reads:
        # no gradients are held through the forward, and no FFN hidden
        # array beyond the ones its node keeps
        store, model = _build_cats()
        opt = pl.make_optimizer(model, pl.TrainConfig(steps=1))
        pairs = _pairs(1)
        held, forward = [], pl._batch_loss

        def measured_forward(m, batch):
            loss = forward(m, batch)
            held.append(tracemalloc.get_traced_memory()[0])
            return loss

        monkeypatch.setattr(pl, "_batch_loss", measured_forward)
        tracemalloc.start()
        try:
            pl.train_step(model, opt, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert peak <= 1.10 * held[0], (peak, held[0])

    def test_last_gradients_die_before_the_next_forward(self, monkeypatch):
        store, model = _build()
        opt = pl.make_optimizer(model, pl.TrainConfig(steps=2))
        pairs = _pairs(1)
        pl.train_step(model, opt, pairs)
        refs = [weakref.ref(t.grad) for t in store.tensors() if t.grad is not None]
        assert refs
        alive, forward = [], pl._batch_loss

        def probed_forward(m, batch):
            alive.append(sum(r() is not None for r in refs))
            return forward(m, batch)

        monkeypatch.setattr(pl, "_batch_loss", probed_forward)
        pl.train_step(model, opt, pairs)
        assert alive == [0]

    def test_zero_lr_keeps_params_and_loss_constant(self):
        store, model = _build()
        cfg = pl.TrainConfig(steps=4, lr_aggregator=0.0, lr_backbone=0.0,
                             weight_decay=0.0, seed=1)
        opt = pl.make_optimizer(model, cfg)
        h0 = _hash(store)
        rng = np.random.default_rng(cfg.seed)
        losses = pl.train(model, opt, _pairs(1), cfg, rng)
        assert _hash(store) == h0
        assert len(set(losses)) == 1


class TestTrain:
    def test_loss_decreases_on_most_seeds(self):
        wins = 0
        pairs = _pairs(1, base=400)
        for seed in range(5):
            store, model = _build(seed)
            cfg = pl.TrainConfig(steps=40, lr_aggregator=2e-3,
                                 lr_backbone=2e-4, seed=seed)
            opt = pl.make_optimizer(model, cfg)
            losses = pl.train(model, opt, pairs, cfg,
                              np.random.default_rng(seed))
            if np.mean(losses[-5:]) < np.mean(losses[:5]) - 1e-3:
                wins += 1
        assert wins >= 4

    def test_bit_reproducible(self):
        pairs = _pairs(2)
        hashes = []
        for _ in range(2):
            store, model = _build(3)
            cfg = pl.TrainConfig(steps=6, seed=9)
            opt = pl.make_optimizer(model, cfg)
            pl.train(model, opt, pairs, cfg, np.random.default_rng(cfg.seed))
            hashes.append(_hash(store))
        assert hashes[0] == hashes[1]

    def test_stop_below(self):
        store, model = _build()
        pairs = _pairs(1)
        cfg = pl.TrainConfig(steps=50, seed=2)
        opt = pl.make_optimizer(model, cfg)
        losses = pl.train(model, opt, pairs, cfg, np.random.default_rng(2),
                          stop_below=1e9)
        assert len(losses) == 1

    @pytest.mark.parametrize("field, value", [("lr_aggregator", float("nan")),
                                              ("lr_backbone", float("inf")),
                                              ("weight_decay", -1.0)])
    def test_bad_rate_rejected_before_training(self, field, value):
        store, model = _build()
        cfg = pl.TrainConfig(steps=1, **{field: value})
        opt = pl.make_optimizer(model, cfg)
        h0 = _hash(store)
        with pytest.raises(ArgumentError, match=field):
            pl.train(model, opt, _pairs(1), cfg, np.random.default_rng(0))
        assert _hash(store) == h0

    def test_empty_pairs_rejected(self):
        store, model = _build()
        cfg = pl.TrainConfig(steps=2)
        opt = pl.make_optimizer(model, cfg)
        with pytest.raises(ArgumentError):
            pl.train(model, opt, [], cfg, np.random.default_rng(0))


class TestEvaluate:
    def test_report_shape_and_purity(self):
        store, model = _build()
        pairs = _pairs(2)
        h0 = _hash(store)
        store.zero_grad()
        rep = pl.evaluate(model, pairs, alphas=(0.05, 0.1, 0.15))
        assert _hash(store) == h0
        assert all(t.grad is None for t in store.tensors())
        assert len(rep.rows) == 2
        for i, row in enumerate(rep.rows):
            assert row.pair_id == i
            assert set(row.pck) == {0.05, 0.1, 0.15}
            assert set(row.wta_pck) == {0.05, 0.1, 0.15}

    def test_line_format(self):
        store, model = _build()
        rep = pl.evaluate(model, _pairs(1), alphas=(0.1,))
        line = rep.rows[0].line()
        assert re.fullmatch(
            r"pair=0 aepe=[\d.e+-]+ pck@0\.1=[\d.e+-]+ wta_pck@0\.1=[\d.e+-]+",
            line)
        summary = rep.summary_line()
        assert summary.startswith("summary aepe=")
        assert "pairs=1" in summary

    def test_text_roundtrips_full_precision(self):
        store, model = _build()
        rep = pl.evaluate(model, _pairs(2), alphas=(0.1,))
        text = rep.to_text({"model": "catspp"})
        assert text.splitlines()[0] == "# model = catspp"
        for i, row in enumerate(rep.rows):
            fields = dict(tok.split("=", 1)
                          for tok in text.splitlines()[1 + i].split())
            assert float(fields["aepe"]) == row.aepe
            assert float(fields["pck@0.1"]) == row.pck[0.1]

    def test_summary_is_row_mean(self):
        store, model = _build()
        rep = pl.evaluate(model, _pairs(3), alphas=(0.1,))
        assert rep.mean_aepe() == pytest.approx(
            np.mean([r.aepe for r in rep.rows]))
        assert rep.mean_pck(0.1) == pytest.approx(
            np.mean([r.pck[0.1] for r in rep.rows]))

    def test_threads_match_serial(self):
        # cats' token GEMMs are large enough for OpenBLAS to thread them in
        # the serial run, so the one-BLAS-thread workers must still agree
        pairs = _pairs(3)
        for _, model in (_build(), _build_cats()):
            a = pl.evaluate(model, pairs, alphas=(0.1,), threads=1)
            b = pl.evaluate(model, pairs, alphas=(0.1,), threads=3)
            assert a.to_text() == b.to_text()

    def test_blas_threads_capped_in_workers_and_restored(self, monkeypatch,
                                                         tmp_path):
        blas = pl._openblas()
        if blas is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        get, set_ = blas
        before = get()
        real = pl._eval_one

        def set_spy(n):
            _log(tmp_path, "set", n)
            set_(n)

        def spy(*args):
            _log(tmp_path, "eval", get())
            return real(*args)

        store, model = _build()
        monkeypatch.setattr(pl, "_openblas", lambda: (get, set_spy))
        monkeypatch.setattr(pl, "_eval_one", spy)
        pl.evaluate(model, _pairs(2), alphas=(0.1,), threads=2)
        logs = _read_logs(tmp_path)
        # the caller never set its count, so it held `before` throughout
        assert os.getpid() not in logs
        assert 1 <= len(logs) <= 2
        for entries in logs.values():
            assert entries[0] == ("set", 1)
            assert all(value == 1 for _, value in entries)
        assert sum(kind == "eval" for e in logs.values() for kind, _ in e) == 2
        assert get() == before
        pl.evaluate(model, _pairs(1), alphas=(0.1,), threads=1)
        # serial eval runs in the caller on its own BLAS threads
        assert _read_logs(tmp_path)[os.getpid()] == [("eval", before)]

    def test_blas_threads_restored_when_a_worker_raises(self, monkeypatch):
        blas = pl._openblas()
        if blas is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        before = blas[0]()

        def boom(*args):
            raise NumericError("worker failed")

        store, model = _build()
        monkeypatch.setattr(pl, "_eval_one", boom)
        with pytest.raises(NumericError) as info:
            pl.evaluate(model, _pairs(2), alphas=(0.1,), threads=2)
        assert info.type is NumericError
        assert str(info.value) == "worker failed"
        assert blas[0]() == before
        assert multiprocessing.active_children() == []

    def test_blas_cap_is_noop_without_openblas(self, monkeypatch, tmp_path):
        real = pl._openblas()
        before = real[0]() if real else None
        reference = pl._eval_one

        def spy(*args):
            _log(tmp_path, "eval", real[0]() if real else None)
            return reference(*args)

        monkeypatch.setattr(pl, "_openblas", lambda: None)
        store, model = _build()
        pairs = _pairs(2)
        a = pl.evaluate(model, pairs, alphas=(0.1,), threads=1)
        monkeypatch.setattr(pl, "_eval_one", spy)
        b = pl.evaluate(model, pairs, alphas=(0.1,), threads=2)
        assert a.to_text() == b.to_text()
        logs = _read_logs(tmp_path)
        assert os.getpid() not in logs
        # workers inherit the caller's count and keep it
        assert [v for e in logs.values() for _, v in e] == [before, before]
        assert (real[0]() if real else None) == before

    def test_pool_holds_at_most_one_worker_per_pair(self, monkeypatch,
                                                    tmp_path):
        start, real = pl._start_worker, pl._eval_one

        def start_spy(*args):
            _log(tmp_path, "start", 0)
            start(*args)

        def spy(*args):
            _log(tmp_path, "eval", args[2])
            return real(*args)

        store, model = _build()
        pairs = _pairs(3)
        serial = pl.evaluate(model, pairs, alphas=(0.1,), threads=1)
        monkeypatch.setattr(pl, "_start_worker", start_spy)
        monkeypatch.setattr(pl, "_eval_one", spy)
        rep = pl.evaluate(model, pairs, alphas=(0.1,), threads=8)
        logs = _read_logs(tmp_path)
        # every started worker logs once, whether or not it got a pair
        assert 1 <= len(logs) <= 3
        assert os.getpid() not in logs
        assert all(entries[0] == ("start", 0) for entries in logs.values())
        evaluated = [v for e in logs.values() for k, v in e if k == "eval"]
        assert sorted(evaluated) == [0, 1, 2]
        assert rep.to_text() == serial.to_text()
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_state_error(self, monkeypatch):
        store, model = _build()
        monkeypatch.setattr(pl, "_eval_one", lambda *args: os._exit(3))
        with pytest.raises(StateError, match="evaluation worker exited"):
            pl.evaluate(model, _pairs(2), alphas=(0.1,), threads=2)
        assert multiprocessing.active_children() == []

    def test_empty_rejected(self):
        store, model = _build()
        with pytest.raises(ArgumentError):
            pl.evaluate(model, [])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, threads):
        store, model = _build()
        with pytest.raises(ArgumentError, match="threads"):
            pl.evaluate(model, _pairs(1), threads=threads)

    def test_metrics_recompute_from_flows(self):
        # report values must be reproducible from the flow fields alone
        store, model = _build()
        pair = _pairs(1)[0]
        rep = pl.evaluate(model, [pair], alphas=(0.1,))
        with tt.no_grad():
            pred = model.flow(pair.source, pair.target)
        gt = pair.gt_flow(model.flow_grid)
        pred64 = pl._as_f64(pred)
        assert rep.rows[0].aepe == pytest.approx(
            aepe(pred64, gt).item(), abs=1e-12)
        kps = pl.eval_keypoints(pair.extents)
        expect = pck(transfer_keypoints(pred64, kps),
                     transfer_keypoints(gt, kps), alpha=0.1)
        assert rep.rows[0].pck[0.1] == pytest.approx(expect, abs=1e-12)


class TestEvalKeypoints:
    def test_lattice_properties(self):
        kps = pl.eval_keypoints((128, 96))
        assert len(kps) == 25
        assert kps.extents == (128, 96)
        pts = kps.points
        assert pts[:, 0].min() > 0 and pts[:, 0].max() < 96
        assert pts[:, 1].min() > 0 and pts[:, 1].max() < 128
        np.testing.assert_array_equal(pts, pl.eval_keypoints((128, 96)).points)


class TestDatasetFiles:
    def test_write_and_reload(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=3, seed=50,
                               grid=(16, 16), warp_magnitude=1.0)
        echo, entries = pl.read_manifest(man)
        assert len(entries) == 3
        assert echo["data.seed"] == "50"
        pairs = pl.load_pairs(man)
        assert [p.seed for p in pairs] == [50, 51, 52]
        # stored tensors equal regeneration bitwise
        np.testing.assert_array_equal(load_tensor(entries[1].src),
                                      pairs[1].source.data)
        np.testing.assert_array_equal(load_tensor(entries[1].tgt),
                                      pairs[1].target.data)
        np.testing.assert_array_equal(
            load_tensor(entries[1].flow),
            pairs[1].gt_flow((16, 16)).grid.data)

    def test_rejected_seed_is_skipped(self, tmp_path):
        # generate_pair rejects seed 1014864 on an 8x8 grid
        man = pl.write_dataset(str(tmp_path), n_pairs=2, seed=1014863,
                               grid=(8, 8), warp_magnitude=1.0)
        _, entries = pl.read_manifest(man)
        pairs = pl.load_pairs(man)
        assert [p.seed for p in pairs] == [1014863, 1014865]
        for en, p in zip(entries, pairs):
            np.testing.assert_array_equal(load_tensor(en.src), p.source.data)
            np.testing.assert_array_equal(load_tensor(en.tgt), p.target.data)
            np.testing.assert_array_equal(load_tensor(en.flow),
                                          p.gt_flow((8, 8)).grid.data)

    def test_all_seeds_rejected_raises(self, tmp_path):
        with pytest.raises(ArgumentError, match="no usable affine"):
            pl.write_dataset(str(tmp_path), n_pairs=2, seed=0,
                             grid=(8, 8), warp_magnitude=50.0)
        assert not (tmp_path / "manifest.txt").exists()

    def test_manifest_requires_all_fields(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("src=a.catt tgt=b.catt seed=1\n")
        with pytest.raises(ArgumentError):
            pl.read_manifest(str(man))

    def test_empty_manifest_rejected(self, tmp_path):
        man = tmp_path / "manifest.txt"
        man.write_text("# data.seed = 1\n")
        with pytest.raises(ArgumentError):
            pl.read_manifest(str(man))

    def test_missing_echo_rejected(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=1, seed=5,
                               grid=(8, 8), warp_magnitude=1.0)
        lines = [l for l in open(man).read().splitlines()
                 if not l.startswith("#")]
        man2 = tmp_path / "stripped.txt"
        man2.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArgumentError):
            pl.load_pairs(str(man2))

    def test_tampered_flow_detected(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=1, seed=5,
                               grid=(8, 8), warp_magnitude=1.0)
        _, entries = pl.read_manifest(man)
        arr = load_tensor(entries[0].flow)
        from catagg.tensor_io import save_tensor
        save_tensor(entries[0].flow, arr + 1.0)
        with pytest.raises(CheckpointError):
            pl.load_pairs(man)

    def test_bad_pair_count(self, tmp_path):
        with pytest.raises(ArgumentError):
            pl.write_dataset(str(tmp_path), n_pairs=0, seed=1,
                             grid=(8, 8), warp_magnitude=1.0)


class TestStreamingPairs:
    """`load_pairs` regenerates each pair when it is indexed and keeps none."""

    def test_loading_holds_less_than_one_pair(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=32, seed=300,
                               grid=(8, 8), warp_magnitude=1.0)
        one = generate_pair(300, grid=(8, 8))
        image_bytes = one.source.data.nbytes + one.target.data.nbytes
        del one
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pairs = pl.load_pairs(man)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(pairs) == 32
        assert grown < image_bytes

    def test_indexed_pair_is_not_kept(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=5, seed=60,
                               grid=(8, 8), warp_magnitude=1.0)
        pairs = pl.load_pairs(man)
        pair = pairs[3]
        assert pair.seed == 63
        ref = weakref.ref(pair)
        del pair
        assert ref() is None

    def test_iteration_and_indexing_regenerate(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=4, seed=70,
                               grid=(8, 8), warp_magnitude=1.0)
        pairs = pl.load_pairs(man)
        assert [p.seed for p in pairs] == [70, 71, 72, 73]
        assert pairs[-1].seed == 73
        with pytest.raises(IndexError):
            pairs[4]

    def test_every_pair_is_verified_when_used(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=3, seed=80,
                               grid=(8, 8), warp_magnitude=1.0)
        _, entries = pl.read_manifest(man)
        save_tensor(entries[2].flow, load_tensor(entries[2].flow) + 1.0)
        pairs = pl.load_pairs(man)  # only the first pair is checked here
        assert pairs[1].seed == 81
        with pytest.raises(CheckpointError, match="flow_0002.catt"):
            pairs[2]

    def test_rejected_seed_fails_at_first_use(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=2, seed=90,
                               grid=(8, 8), warp_magnitude=1.0)
        # generate_pair rejects seed 1014864 on an 8x8 grid
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("seed=91", "seed=1014864"))
        pairs = pl.load_pairs(man)
        with pytest.raises(ArgumentError, match="seed 1014864"):
            pairs[1]

    def test_parallel_eval_on_the_sequence_equals_serial(self, tmp_path):
        man = pl.write_dataset(str(tmp_path), n_pairs=3, seed=100,
                               grid=(8, 8), warp_magnitude=1.0)
        pairs = pl.load_pairs(man)
        store, model = _build()
        a = pl.evaluate(model, pairs, alphas=(0.1,), threads=1)
        b = pl.evaluate(model, pairs, alphas=(0.1,), threads=2)
        assert a.to_text() == b.to_text()
        assert len(a.rows) == 3
        assert multiprocessing.active_children() == []


class TestCheckpoint:
    def _trained(self, steps, seed=0, total=12):
        store, model = _build(seed)
        cfg = pl.TrainConfig(steps=total, batch_size=1, seed=5)
        opt = pl.make_optimizer(model, cfg)
        rng = np.random.default_rng(cfg.seed)
        part = pl.TrainConfig(steps=steps, batch_size=1, seed=5)
        pl.train(model, opt, _pairs(2), part, rng)
        return store, model, opt, rng

    def test_resume_matches_straight_through(self, tmp_path):
        pairs = _pairs(2)
        s1, m1, o1, r1 = self._trained(12)
        straight = _hash(s1)

        s2, m2, o2, r2 = self._trained(6)
        ck = str(tmp_path / "mid.catb")
        pl.save_checkpoint(ck, "catspp", s2, o2, r2, {"train.steps": 12})

        s3, m3 = _build(99)  # different init; checkpoint must override all
        cfg = pl.TrainConfig(steps=12, batch_size=1, seed=5)
        o3 = pl.make_optimizer(m3, cfg)
        r3 = np.random.default_rng(0)
        meta = pl.load_checkpoint(ck, s3, o3, r3)
        assert o3.step_count == 6
        assert meta["kind"] == "catspp"
        pl.train(m3, o3, pairs, cfg, r3)
        assert _hash(s3) == straight

    def test_save_load_save_byte_identical(self, tmp_path):
        s, m, o, r = self._trained(3)
        ck1 = str(tmp_path / "a.catb")
        pl.save_checkpoint(ck1, "catspp", s, o, r, {"train.steps": 12})
        s2, m2 = _build(1)
        o2 = pl.make_optimizer(m2, pl.TrainConfig(steps=12, seed=5))
        r2 = np.random.default_rng(123)
        pl.load_checkpoint(ck1, s2, o2, r2)
        ck2 = str(tmp_path / "b.catb")
        pl.save_checkpoint(ck2, "catspp", s2, o2, r2, {"train.steps": 12})
        assert open(ck1, "rb").read() == open(ck2, "rb").read()

    def test_rng_state_restored(self, tmp_path):
        s, m, o, r = self._trained(2)
        ck = str(tmp_path / "c.catb")
        pl.save_checkpoint(ck, "catspp", s, o, r, {})
        draws = r.integers(0, 1000, size=5)  # advances r past the save point
        s2, m2 = _build(1)
        o2 = pl.make_optimizer(m2, pl.TrainConfig(steps=12, seed=5))
        r2 = np.random.default_rng(777)
        pl.load_checkpoint(ck, s2, o2, r2)
        np.testing.assert_array_equal(r2.integers(0, 1000, size=5), draws)

    def test_version_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "v.catb")
        save_bundle(ck, {"x": np.zeros(2)}, {"version": 99, "step": 0})
        store, model = _build()
        opt = pl.make_optimizer(model, pl.TrainConfig(steps=2))
        with pytest.raises(CheckpointError):
            pl.load_checkpoint(ck, store, opt, np.random.default_rng(0))

    def test_truncated_file_rejected(self, tmp_path):
        s, m, o, r = self._trained(1)
        ck = str(tmp_path / "t.catb")
        pl.save_checkpoint(ck, "catspp", s, o, r, {})
        blob = open(ck, "rb").read()
        open(ck, "wb").write(blob[:len(blob) // 2])
        s2, m2 = _build(1)
        o2 = pl.make_optimizer(m2, pl.TrainConfig(steps=12, seed=5))
        with pytest.raises(CheckpointError):
            pl.load_checkpoint(ck, s2, o2, np.random.default_rng(0))

    def test_wrong_model_shape_rejected(self, tmp_path):
        s, m, o, r = self._trained(1)
        ck = str(tmp_path / "w.catb")
        pl.save_checkpoint(ck, "catspp", s, o, r, {})
        # a differently shaped model cannot absorb this checkpoint
        store = ParamStore(rng=np.random.default_rng(0), dtype=np.float32)
        embed = EmbedConfig(kernel=3, stride=2, d=4, n_stages=1)
        eff = EfficientConfig(s=2, a=16, r=2, n_encoders=1, p=8,
                              proj_kernel=3, ffn_kernel=3)
        other = CatsPPModel(store, embed, eff, layers=(4, 5))
        opt = pl.make_optimizer(other, pl.TrainConfig(steps=12, seed=5))
        with pytest.raises(CheckpointError):
            pl.load_checkpoint(ck, store, opt, np.random.default_rng(0))

    def test_meta_json_is_sorted_and_versioned(self, tmp_path):
        s, m, o, r = self._trained(1)
        ck = str(tmp_path / "m.catb")
        pl.save_checkpoint(ck, "catspp", s, o, r, {"b": 2, "a": 1})
        from catagg.tensor_io import load_bundle
        arrays, meta = load_bundle(ck)
        assert meta["version"] == pl.CHECKPOINT_VERSION
        assert meta["config"] == {"a": 1, "b": 2}
        assert meta["step"] == 1
        assert any(k.startswith("opt.m.") for k in arrays)
        assert any(not k.startswith("opt.") for k in arrays)
