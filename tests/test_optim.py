"""AdamW with prefix LR groups and cosine decay, against a numpy oracle."""

import numpy as np
import pytest

from catagg.errors import ArgumentError, CheckpointError
from catagg.optim import AdamW, cosine_lr
from catagg.params import ParamStore


def _store_with(names_shapes, dtype=np.float64, seed=0):
    store = ParamStore(rng=np.random.default_rng(seed), dtype=dtype)
    for name, shape in names_shapes:
        store.add(name, shape)
    return store


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(1.0, 0, 100) == pytest.approx(1.0)
        assert cosine_lr(1.0, 100, 100) == pytest.approx(0.1)

    def test_midpoint(self):
        # halfway through, the schedule sits midway between base and floor
        assert cosine_lr(1.0, 50, 100) == pytest.approx(0.1 + 0.9 * 0.5)

    def test_monotone_nonincreasing(self):
        vals = [cosine_lr(3e-5, t, 200) for t in range(201)]
        assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))

    def test_clamps_out_of_range_steps(self):
        assert cosine_lr(1.0, -5, 100) == pytest.approx(1.0)
        assert cosine_lr(1.0, 500, 100) == pytest.approx(0.1)

    def test_degenerate_total(self):
        assert cosine_lr(1.0, 0, 0) == 1.0


def adamw_oracle(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.05):
    """One reference update in f64; returns new (p, m, v)."""
    m = beta1 * m + (1 - beta1) * g
    v = beta2 * v + (1 - beta2) * g * g
    mh = m / (1 - beta1 ** t)
    vh = v / (1 - beta2 ** t)
    p = p - lr * (mh / (np.sqrt(vh) + eps) + wd * p)
    return p, m, v


class TestAdamW:
    def test_single_step_matches_oracle(self):
        store = _store_with([("a.w", (3, 4)), ("a.b", (4,))])
        opt = AdamW(store, groups=[("a", 1e-2)], total_steps=10)
        p0 = {n: t.data.copy() for n, t in store.items()}
        grads = {}
        for n, t in store.items():
            t.grad = np.random.default_rng(hash(n) % 2**32).normal(size=t.shape)
            grads[n] = t.grad.copy()
        opt.step()
        lr = cosine_lr(1e-2, 0, 10)
        for n, t in store.items():
            exp, _, _ = adamw_oracle(p0[n], grads[n], 0.0, 0.0, 1, lr)
            np.testing.assert_allclose(t.data, exp, rtol=1e-12)

    def test_five_steps_match_oracle(self):
        store = _store_with([("a.w", (5,))])
        opt = AdamW(store, groups=[("a", 3e-3)], total_steps=5)
        rng = np.random.default_rng(1)
        p = store["a.w"].data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t in range(1, 6):
            g = rng.normal(size=5)
            store["a.w"].grad = g.copy()
            opt.step()
            p, m, v = adamw_oracle(p, g, m, v, t, cosine_lr(3e-3, t - 1, 5))
            np.testing.assert_allclose(store["a.w"].data, p, rtol=1e-10)
        np.testing.assert_allclose(opt.state_arrays()["opt.m.a.w"], m, rtol=1e-10)
        np.testing.assert_allclose(opt.state_arrays()["opt.v.a.w"], v, rtol=1e-10)

    def test_weight_decay_is_decoupled(self):
        # zero gradient leaves the moments at zero, so the whole update is
        # the decay term: p *= (1 - lr * wd)
        store = _store_with([("a.w", (4,))])
        p0 = store["a.w"].data.copy()
        opt = AdamW(store, groups=[("a", 0.5)], total_steps=1000,
                    weight_decay=0.1)
        store["a.w"].grad = np.zeros(4)
        opt.step()
        np.testing.assert_allclose(store["a.w"].data, p0 * (1 - 0.5 * 0.1),
                                   rtol=1e-12)

    def test_zero_lr_freezes_params(self):
        store = _store_with([("a.w", (6,))])
        p0 = store["a.w"].data.copy()
        opt = AdamW(store, groups=[("a", 0.0)], total_steps=10)
        for _ in range(3):
            store["a.w"].grad = np.ones(6)
            opt.step()
        np.testing.assert_array_equal(store["a.w"].data, p0)

    def test_prefix_groups(self):
        store = _store_with([("agg.x", (2,)), ("agg.deep.y", (2,)),
                             ("bb.z", (2,))])
        opt = AdamW(store, groups=[("agg", 1e-3), ("bb", 1e-5)], total_steps=10)
        assert opt.lr_for("agg.x") == 1e-3
        assert opt.lr_for("agg.deep.y") == 1e-3
        assert opt.lr_for("bb.z") == 1e-5

    def test_first_matching_prefix_wins(self):
        store = _store_with([("agg.inner.x", (2,))])
        opt = AdamW(store, groups=[("agg.inner", 7e-4), ("agg", 1e-3)],
                    total_steps=10)
        assert opt.lr_for("agg.inner.x") == 7e-4

    def test_unassigned_param_rejected(self):
        store = _store_with([("agg.x", (2,)), ("stray.y", (2,))])
        with pytest.raises(ArgumentError):
            AdamW(store, groups=[("agg", 1e-3)], total_steps=10)

    def test_group_lrs_diverge(self):
        store = _store_with([("agg.x", (1,)), ("bb.z", (1,))], seed=3)
        pa = store["agg.x"].data.copy()
        pb = store["bb.z"].data.copy()
        opt = AdamW(store, groups=[("agg", 1e-2), ("bb", 1e-4)],
                    total_steps=100, weight_decay=0.0)
        store["agg.x"].grad = np.ones(1)
        store["bb.z"].grad = np.ones(1)
        opt.step()
        da = abs(store["agg.x"].data - pa)[0]
        db = abs(store["bb.z"].data - pb)[0]
        assert da == pytest.approx(100 * db, rel=1e-6)


class TestAdamWState:
    def _trained(self):
        store = _store_with([("a.w", (3,)), ("b.w", (2,))])
        opt = AdamW(store, groups=[("a", 1e-3), ("b", 1e-4)], total_steps=20)
        rng = np.random.default_rng(2)
        for _ in range(4):
            for _, t in store.items():
                t.grad = rng.normal(size=t.shape)
            opt.step()
        return store, opt

    def test_roundtrip(self):
        store, opt = self._trained()
        state = {k: v.copy() for k, v in opt.state_arrays().items()}
        store2 = _store_with([("a.w", (3,)), ("b.w", (2,))])
        opt2 = AdamW(store2, groups=[("a", 1e-3), ("b", 1e-4)], total_steps=20)
        opt2.load_arrays(state)
        for k, v in opt2.state_arrays().items():
            np.testing.assert_array_equal(v, state[k])

    def test_load_rejects_missing_and_unknown(self):
        store, opt = self._trained()
        state = dict(opt.state_arrays())
        bad = dict(state)
        bad.pop("opt.m.a.w")
        with pytest.raises(CheckpointError):
            opt.load_arrays(bad)
        bad = dict(state)
        bad["opt.m.zzz"] = np.zeros(3)
        with pytest.raises(CheckpointError):
            opt.load_arrays(bad)

    def test_load_rejects_shape_mismatch(self):
        store, opt = self._trained()
        state = dict(opt.state_arrays())
        state["opt.v.b.w"] = np.zeros(7)
        with pytest.raises(CheckpointError):
            opt.load_arrays(state)

    def test_resumed_steps_continue_schedule(self):
        store, opt = self._trained()
        assert opt.step_count == 4
        lr_next = cosine_lr(1e-3, 4, 20)
        assert opt.lr_for("a.w") == pytest.approx(lr_next)  # scheduled
        # the next update uses the scheduled lr; verify via a zero-moment probe
        probe = _store_with([("a.w", (1,))])
        popt = AdamW(probe, groups=[("a", 1e-3)], total_steps=20,
                     weight_decay=0.0)
        popt.step_count = 4
        p0 = probe["a.w"].data.copy()
        probe["a.w"].grad = np.ones(1)
        popt.step()
        g = 1.0
        mh = (1 - 0.9) * g / (1 - 0.9 ** 5)
        vh = (1 - 0.999) * g * g / (1 - 0.999 ** 5)
        exp = p0 - lr_next * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(probe["a.w"].data, exp, rtol=1e-10)
