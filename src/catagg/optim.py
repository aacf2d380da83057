"""Decoupled-weight-decay adaptive-moment optimizer with grouped LRs.

Parameters are assigned to groups by name prefix so the aggregator and the
backbone can train at different rates. The schedule is cosine from the
initial rate down to 10% of it over the configured horizon; both moments
and the step counter serialize for bit-exact resume.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, CheckpointError
from .params import ParamStore

__all__ = ["AdamW", "cosine_lr"]


def cosine_lr(base: float, step: int, total: int) -> float:
    """Decay from base to 0.1*base along a half cosine over `total` steps."""
    if total <= 0:
        return base
    t = min(max(step, 0), total) / total
    return base * (0.1 + 0.9 * 0.5 * (1.0 + np.cos(np.pi * t)))


class AdamW:
    """Moment estimates per parameter, decoupled weight decay, grouped LRs."""

    def __init__(self, store: ParamStore, groups: list[tuple[str, float]],
                 total_steps: int, weight_decay: float = 0.05):
        if not groups:
            raise ArgumentError("need at least one (prefix, lr) group")
        self.store = store
        self.groups = list(groups)
        self.total_steps = int(total_steps)
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for name, t in store.items():
            self._group_lr(name)  # fail fast on unassigned parameters
            self.m[name] = np.zeros_like(t.data)
            self.v[name] = np.zeros_like(t.data)

    def _group_lr(self, name: str) -> float:
        for prefix, lr in self.groups:
            if name.startswith(prefix):
                return lr
        raise ArgumentError(f"parameter {name!r} matches no LR group")

    def lr_for(self, name: str) -> float:
        return cosine_lr(self._group_lr(name), self.step_count, self.total_steps)

    def step(self):
        """One update from the gradients currently held by the store.

        Every stage runs in place through scratch buffers sized to the
        largest gradient, in the order of the textbook form. The last stage,
        p - lr * update, runs in lr's precision (f64 under the cosine
        schedule) and rounds back into the parameter.
        """
        self.step_count += 1
        t = self.step_count
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** t
        c2 = 1.0 - b2 ** t
        size = max((p.grad.size for _, p in self.store.items() if p.grad is not None),
                   default=0)
        scratch = [np.empty(size, dtype=dt)
                   for dt in (self.store.dtype, self.store.dtype, np.float64)]
        for name, p in self.store.items():
            g = p.grad
            if g is None:
                continue
            lr = cosine_lr(self._group_lr(name), t - 1, self.total_steps)
            m = self.m[name]
            v = self.v[name]
            update, tmp, wide = (b[:g.size].reshape(g.shape) for b in scratch)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=tmp)
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            np.divide(m, c1, out=update)
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            update /= tmp
            if self.weight_decay:
                update += np.multiply(p.data, self.weight_decay, out=tmp)
            np.multiply(update, lr, out=wide)
            np.subtract(p.data, wide, out=wide)
            p.data[...] = wide

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name in self.m:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        want = set(self.state_arrays())
        got = set(arrays)
        if want != got:
            missing = sorted(want - got)[:3]
            extra = sorted(got - want)[:3]
            raise CheckpointError(
                f"optimizer state mismatch (missing {missing}, extra {extra})")
        for key, arr in arrays.items():
            kind, name = key[4:].split(".", 1)
            slot = self.m if kind == "m" else self.v
            if slot[name].shape != arr.shape:
                raise CheckpointError(
                    f"optimizer moment {key} shape {arr.shape} != {slot[name].shape}")
            slot[name][...] = arr
