"""
Reverse-mode gradients on the minimal tensor engine
===================================================

Every model in this package backpropagates through the same small set of
array primitives. This script builds a toy scalar loss by hand, runs one
backward pass, and confirms a gradient entry against central differences.
"""

import numpy as np

from catagg import Tensor, backward
from catagg import tensor as tt

rng = np.random.default_rng(0)

# two leaf tensors; only `w` asks for a gradient
x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
w = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)

# a small computation: linear map, nonlinearity, scalar reduction
h = tt.relu(tt.matmul(x, w))
loss = tt.tmean(tt.mul(h, h))
print(f"loss = {loss.item():.6f}")

# one reverse sweep fills w.grad with dloss/dw
backward(loss)
print(f"w.grad shape = {w.grad.shape}, |grad| max = {np.abs(w.grad).max():.4f}")

# spot-check entry (0, 0) with central differences at h = 1e-3:
# f32 arithmetic, so expect agreement to roughly 1e-3 relative
eps = 1e-3
orig = w.data[0, 0]


def loss_at(v):
    w.data[0, 0] = v
    hh = tt.relu(tt.matmul(x, w))
    out = tt.tmean(tt.mul(hh, hh)).item()
    w.data[0, 0] = orig
    return out


fd = (loss_at(orig + eps) - loss_at(orig - eps)) / (2 * eps)
print(f"analytic dloss/dw[0,0] = {w.grad[0, 0]:+.6f}")
print(f"numeric  dloss/dw[0,0] = {fd:+.6f}")
rel = abs(w.grad[0, 0] - fd) / max(abs(fd), 1e-12)
print(f"relative gap = {rel:.2e}")
assert rel < 1e-2

# gradients accumulate across backward calls until cleared, and no_grad
# suppresses graph building entirely
with tt.no_grad():
    silent = tt.matmul(x, w)
print(f"inside no_grad the product records no graph: {silent!r}")
