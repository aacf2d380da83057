"""Backbone pyramid and the end-to-end model wrappers."""

import numpy as np
import pytest

from catagg import pipeline as pl
from catagg import tensor as tt
from catagg.cats import CatsConfig
from catagg.catspp import EfficientConfig, EmbedConfig
from catagg.errors import DimensionError
from catagg.flow import soft_argmax_flow
from catagg.model import (CatsModel, CatsPPModel, ToyBackbone, _patch_merge,
                          raw_correlation_mean)
from catagg.params import ParamStore
from catagg.synth import generate_pair
from catagg.tensor import Tensor


def _store(seed=0, dtype=np.float32):
    return ParamStore(rng=np.random.default_rng(seed), dtype=dtype)


def _image(seed=0, size=128):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=(size, size, 3)).astype(np.float32))


class TestPatchMerge:
    def test_fold_oracle(self):
        x = Tensor(np.arange(2 * 4 * 1, dtype=np.float64).reshape(2, 4, 1))
        out = _patch_merge(x, 2).data
        assert out.shape == (1, 2, 4)
        # block (0,0) gathers rows 0..1 x cols 0..1 in row-major scan order
        np.testing.assert_array_equal(out[0, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(out[0, 1], [2, 3, 6, 7])

    def test_channel_blocks(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4, 3)))
        out = _patch_merge(x, 2).data
        assert out.shape == (2, 2, 12)
        np.testing.assert_array_equal(out[1, 1, :3], x.data[2, 2])
        np.testing.assert_array_equal(out[1, 1, -3:], x.data[3, 3])

    def test_indivisible_extent_rejected(self):
        with pytest.raises(DimensionError):
            _patch_merge(Tensor(np.zeros((5, 4, 1))), 2)


class TestToyBackbone:
    def test_pyramid_shapes(self):
        store = _store()
        bb = ToyBackbone(store)
        feats = bb.forward(_image())
        assert [f.level for f in feats] == [0, 1, 2, 3, 4, 5]
        assert [f.layer for f in feats] == [3, 3, 4, 4, 5, 5]
        assert [f.grid.shape[:2] for f in feats] == [
            (32, 32), (32, 32), (16, 16), (16, 16), (8, 8), (8, 8)]
        assert [f.grid.shape[2] for f in feats] == [16, 16, 24, 24, 32, 32]

    def test_zero_image_zero_features(self):
        # zero biases and gelu(0) = 0 make the zero image a fixed point
        store = _store()
        bb = ToyBackbone(store)
        feats = bb.forward(Tensor(np.zeros((128, 128, 3), dtype=np.float32)))
        for f in feats:
            np.testing.assert_array_equal(f.grid.data, 0.0)

    def test_deterministic(self):
        f1 = ToyBackbone(_store(7)).forward(_image(3))
        f2 = ToyBackbone(_store(7)).forward(_image(3))
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.grid.data, b.grid.data)

    def test_input_validation(self):
        bb = ToyBackbone(_store())
        with pytest.raises(DimensionError):
            bb.forward(Tensor(np.zeros((100, 128, 3), dtype=np.float32)))
        with pytest.raises(DimensionError):
            bb.forward(Tensor(np.zeros((128, 128), dtype=np.float32)))

    def test_smaller_images_scale_grids(self):
        feats = ToyBackbone(_store()).forward(_image(0, size=64))
        assert [f.grid.shape[:2] for f in feats] == [
            (16, 16), (16, 16), (8, 8), (8, 8), (4, 4), (4, 4)]

    def test_gradients_reach_first_stage(self):
        store = _store(dtype=np.float64)
        bb = ToyBackbone(store)
        feats = bb.forward(Tensor(np.random.default_rng(0)
                                  .normal(size=(32, 32, 3))))
        loss = tt.tsum(tt.mul(feats[-1].grid, feats[-1].grid))
        store.zero_grad()
        tt.backward(loss)
        g = store["backbone.stage3.patch.w"].grad
        assert np.abs(g).max() > 0


class TestRawCorrelationMean:
    def test_equals_stack_mean(self):
        from catagg.correlation import build_stack
        store = _store()
        bb = ToyBackbone(store)
        fs = bb.forward(_image(1))[2:]
        ft = bb.forward(_image(2))[2:]
        m = raw_correlation_mean(fs, ft, (16, 16))
        stack = build_stack(fs, ft, (16, 16))
        np.testing.assert_array_equal(
            m.data, stack.maps.data.mean(axis=0).reshape(16, 16, 16, 16))
        assert m.shape == (16, 16, 16, 16)


class TestCatsModel:
    def _model(self, seed=0):
        store = _store(seed)
        cfg = CatsConfig(grid=(16, 16), n_encoders=1, n_heads=8, p=32)
        return store, CatsModel(store, cfg, layers=(4, 5))

    def test_feature_selection(self):
        store, model = self._model()
        feats = model.features(_image())
        assert [f.layer for f in feats] == [4, 4, 5, 5]
        assert model.flow_grid == (16, 16)
        # appearance projections were sized from the selected layers
        assert store["cats.appear0.w"].shape[0] == 24
        assert store["cats.appear2.w"].shape[0] == 32

    def test_init_flow_is_soft_argmax_of_raw_mean(self):
        # zeroed restore projections make aggregation the identity, so the
        # whole model collapses to the raw-correlation soft argmax
        store, model = self._model()
        pair = generate_pair(5)
        f = model.flow(pair.source, pair.target)
        with tt.no_grad():
            fs = model.features(pair.source)
            ft = model.features(pair.target)
            raw = raw_correlation_mean(fs, ft, (16, 16))
            expect = soft_argmax_flow(raw, beta=model.beta)
        np.testing.assert_array_equal(f.grid.data, expect.grid.data)

    def test_wta_is_hard_argmax_integer_cells(self):
        store, model = self._model()
        pair = generate_pair(6)
        w = model.wta(pair.source, pair.target)
        assert w.grid.shape == (16, 16, 2)
        np.testing.assert_array_equal(w.grid.data, np.round(w.grid.data))

    def test_gradients_flow_to_both_groups(self):
        store, model = self._model()
        pair = generate_pair(7)
        f = model.flow(pair.source, pair.target)
        loss = tt.tsum(tt.mul(f.grid, f.grid))
        store.zero_grad()
        tt.backward(loss)
        # the zero-initialized restore projection gets gradient immediately;
        # encoder internals are gated by it until it moves off zero
        assert np.abs(store["cats.restore.w"].grad).max() > 0
        assert np.abs(store["backbone.stage4.patch.w"].grad).max() > 0
        assert np.all(store["cats.enc0.intra.wq"].grad == 0)
        rng = np.random.default_rng(0)
        store["cats.restore.w"].data[...] = rng.normal(
            scale=1e-3, size=store["cats.restore.w"].shape).astype(np.float32)
        f = model.flow(pair.source, pair.target)
        store.zero_grad()
        tt.backward(tt.tsum(tt.mul(f.grid, f.grid)))
        assert np.abs(store["cats.enc0.intra.wq"].grad).max() > 0

    def test_wta_leaves_no_grads(self):
        store, model = self._model()
        pair = generate_pair(8)
        store.zero_grad()
        model.wta(pair.source, pair.target)
        assert all(np.all(t.grad == 0) for t in store.tensors())


    def test_non_square_grid_trains_and_evaluates(self):
        store = _store()
        cfg = CatsConfig(grid=(4, 6), n_encoders=1, n_heads=8, p=32)
        model = CatsModel(store, cfg, layers=(4, 5))
        pair = generate_pair(5, grid=(4, 6))
        assert model.flow(pair.source, pair.target).resolution == (4, 6)
        opt = pl.make_optimizer(model, pl.TrainConfig(steps=1))
        assert np.isfinite(pl.train_step(model, opt, [pair]))
        rep = pl.evaluate(model, [generate_pair(6, grid=(4, 6))], alphas=(0.1,))
        assert np.isfinite(rep.rows[0].aepe)


class TestCatsPPModel:
    def _model(self, seed=0):
        store = _store(seed)
        embed = EmbedConfig(kernel=3, stride=2, d=8, n_stages=1)
        eff = EfficientConfig(s=2, a=32, r=2, n_encoders=1, p=16,
                              proj_kernel=3, ffn_kernel=3)
        return store, CatsPPModel(store, embed, eff, layers=(4, 5))

    def test_flow_grid_is_finest_embedded(self):
        store, model = self._model()
        assert model.flow_grid == (8, 8)  # 128 px / stride 8 / embed stride 2

    def test_flow_shapes(self):
        store, model = self._model()
        pair = generate_pair(9)
        f = model.flow(pair.source, pair.target)
        assert f.grid.shape == (8, 8, 2)
        w = model.wta(pair.source, pair.target)
        assert w.grid.shape == (8, 8, 2)
        np.testing.assert_array_equal(w.grid.data, np.round(w.grid.data))

    def test_image_size_checked(self):
        store, model = self._model()
        with pytest.raises(DimensionError):
            model.features(Tensor(np.zeros((64, 64, 3), dtype=np.float32)))

    def test_zeroed_projections_give_cascade_flow(self):
        # with residual outputs silenced, the flow is the soft argmax of the
        # channel-mean of the pure embedded+upsampled cascade; check it is
        # finite and differentiable end to end
        store, model = self._model()
        model.agg.zero_output_projections()
        pair = generate_pair(10)
        f = model.flow(pair.source, pair.target)
        loss = tt.tsum(tt.mul(f.grid, f.grid))
        store.zero_grad()
        tt.backward(loss)
        assert np.all(np.isfinite(f.grid.data))
        assert np.abs(store["backbone.stage4.patch.w"].grad).max() > 0

    def test_gradients_flow_to_aggregator(self):
        store, model = self._model()
        pair = generate_pair(11)
        f = model.flow(pair.source, pair.target)
        loss = tt.tsum(tt.mul(f.grid, f.grid))
        store.zero_grad()
        tt.backward(loss)
        assert np.abs(store["catspp.q4.enc0.qq.k"].grad).max() > 0
        assert np.abs(store["catspp.q5.embed0.k"].grad).max() > 0
