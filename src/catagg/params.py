"""Named learnable parameters with gradient slots."""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, CheckpointError, StateError
from .tensor import Tensor

__all__ = ["ParamStore"]


class ParamStore:
    """Registry of named, shaped, initialized learnable tensors.

    Creation order is preserved; names are unique and dot-scoped
    (e.g. "cats.intra0.attn.wq"). The store is the checkpoint unit.
    """

    def __init__(self, rng: np.random.Generator | None = None, dtype=np.float32):
        self._params: dict[str, Tensor] = {}
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.dtype = np.dtype(dtype)

    def add(self, name: str, shape, init: str = "fanin") -> Tensor:
        """Create and register a parameter; init is fanin | zeros | ones."""
        if name in self._params:
            raise StateError(f"duplicate parameter name '{name}'")
        shape = tuple(int(s) for s in shape)
        if init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=self.dtype)
        elif init == "fanin":
            # uniform +-1/sqrt(fan_in); fan_in = all extents but the last
            fan_in = max(int(np.prod(shape[:-1])), 1)
            bound = 1.0 / math.sqrt(fan_in)
            data = self.rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        else:
            raise ArgumentError(f"unknown init '{init}'")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ArgumentError(f"no parameter named '{name}'") from None

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def subset(self, prefix: str) -> list[tuple[str, Tensor]]:
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return [(n, t) for n, t in self._params.items()
                if n.startswith(dotted) or n == prefix]

    def n_params(self, prefix: str = "") -> int:
        if prefix:
            return sum(t.size for _, t in self.subset(prefix))
        return sum(t.size for t in self._params.values())

    def zero_grad(self) -> None:
        """Drop every gradient. A parameter gets one again from the next
        backward that reaches it; `AdamW.step` skips the rest."""
        for t in self._params.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; names and shapes must match."""
        unknown = set(arrays) - set(self._params)
        if unknown:
            raise CheckpointError(f"unknown parameter names {sorted(unknown)[:5]}")
        missing = set(self._params) - set(arrays)
        if missing:
            raise CheckpointError(f"missing parameter names {sorted(missing)[:5]}")
        for name, arr in arrays.items():
            t = self._params[name]
            if tuple(arr.shape) != t.shape:
                raise CheckpointError(
                    f"shape mismatch for '{name}': {arr.shape} vs {t.shape}")
            t.data[...] = arr.astype(t.data.dtype)
