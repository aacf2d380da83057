"""Instrumentation: parameter formulas, matched dims, memory measurement."""

import tracemalloc

import numpy as np
import pytest

from catagg import tensor as tt
from catagg.bench import (StandardBlock, compare_blocks,
                          efficient_block_params, matched_dims, param_table,
                          peak_forward_bytes, standard_block_params,
                          time_model)
from catagg.catspp import EfficientConfig, EmbedConfig
from catagg.model import CatsPPModel
from catagg.params import ParamStore
from catagg.synth import generate_pair
from catagg.tensor import Tensor


def _model(seed=0):
    store = ParamStore(rng=np.random.default_rng(seed), dtype=np.float32)
    embed = EmbedConfig(kernel=3, stride=2, d=8, n_stages=1)
    eff = EfficientConfig(s=2, a=32, r=2, n_encoders=1, p=16,
                          proj_kernel=3, ffn_kernel=3)
    return store, CatsPPModel(store, embed, eff, layers=(4, 5))


class TestStandardBlock:
    @pytest.mark.parametrize("tokens,feat,ratio", [(16, 32, 4), (64, 80, 2)])
    def test_formula_matches_store_walk(self, tokens, feat, ratio):
        store = ParamStore(rng=np.random.default_rng(0), dtype=np.float32)
        StandardBlock(store, tokens, feat, ffn_ratio=ratio)
        assert store.n_params("std") == standard_block_params(
            tokens, feat, ffn_ratio=ratio)

    def test_forward_shape_and_finiteness(self):
        store = ParamStore(rng=np.random.default_rng(1), dtype=np.float32)
        blk = StandardBlock(store, 16, 24)
        x = Tensor(np.random.default_rng(2).normal(size=(16, 24))
                   .astype(np.float32))
        with tt.no_grad():
            y = blk.forward(x)
        assert y.shape == (16, 24)
        assert np.all(np.isfinite(y.data))


class TestMatchedDims:
    def test_values_for_desk_config(self):
        store, model = _model()
        # layer 4: native 16^4 embeds to 8^4 at d=8 with p=16 appearance
        assert matched_dims(model.agg, 4) == (64, 8 * 8 * 8 + 16)
        # layer 5: native 8^4 embeds to 4^4
        assert matched_dims(model.agg, 5) == (16, 4 * 4 * 8 + 16)


class TestEfficientParams:
    def test_counts_one_encoder_plus_pos(self):
        store, model = _model()
        agg = model.agg
        expect = (store.n_params("catspp.q4.enc0")
                  + store["catspp.q4.pos"].size)
        assert efficient_block_params(agg, 4) == expect

    def test_ratio_below_30_percent(self):
        store, model = _model()
        for q in (4, 5):
            tokens, feat = matched_dims(model.agg, q)
            eff = efficient_block_params(model.agg, q)
            std = standard_block_params(tokens, feat)
            assert eff / std <= 0.30


class TestMemoryAndTime:
    def test_peak_forward_bytes_positive_and_scales(self):
        small = peak_forward_bytes(
            lambda: tt.matmul(Tensor(np.zeros((8, 8), dtype=np.float32)),
                              Tensor(np.zeros((8, 8), dtype=np.float32))))
        big = peak_forward_bytes(
            lambda: tt.matmul(Tensor(np.zeros((64, 64), dtype=np.float32)),
                              Tensor(np.zeros((64, 64), dtype=np.float32))))
        assert 0 < small < big

    @pytest.mark.parametrize("caller_traces", [False, True])
    def test_peak_forward_bytes_counts_temporaries(self, caller_traces):
        # a 4 MiB array that no Tensor holds; a caller's own tracer survives
        was_tracing = tracemalloc.is_tracing()
        if caller_traces and not was_tracing:
            tracemalloc.start()
        try:
            peak = peak_forward_bytes(lambda: np.ones(1 << 20, np.float32))
            assert tracemalloc.is_tracing() == (caller_traces or was_tracing)
        finally:
            if caller_traces and not was_tracing:
                tracemalloc.stop()
        assert peak >= 4 << 20

    def test_compare_blocks_memory(self):
        store, model = _model()
        for q in (4, 5):
            row = compare_blocks(model, q)
            assert row["efficient.params"] == efficient_block_params(model.agg, q)
            assert row["efficient.peak_bytes"] > 0
            assert row["efficient.peak_bytes"] <= row["standard.peak_bytes"]

    def test_time_model(self):
        store, model = _model()
        pair = generate_pair(0)
        times = time_model(model, pair)
        assert times["forward_ms"] > 0
        assert times["forward_backward_ms"] > times["forward_ms"] * 0.5


class TestParamTable:
    def test_partition(self):
        store, model = _model()
        table = param_table(store)
        assert set(table) == {"backbone", "catspp", "total"}
        assert table["backbone"] + table["catspp"] == table["total"]
        assert table["total"] == store.n_params()
