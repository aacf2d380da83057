"""
From an image pair to a correspondence field
============================================

Walks the non-learned half of the pipeline: make a synthetic pair with an
exact affine ground truth, extract multi-level features, stack cosine
correlation maps, and read flow out of them with soft and hard argmax.
"""

import numpy as np

from catagg import (aepe, build_stack, generate_pair, hard_argmax_flow,
                    raw_correlation_mean, soft_argmax_flow)
from catagg.model import ToyBackbone
from catagg.params import ParamStore

# a deterministic pair: smooth random texture plus an affine-warped copy
pair = generate_pair(seed=3)
print(f"images {pair.source.shape}, affine warp:\n{np.round(pair.warp, 3)}")

# a small randomly initialised convolutional pyramid supplies features,
# two maps for each selected layer; levels 2 and 3 (layer 4) live at 16x16
# for 128-px inputs
store = ParamStore(rng=np.random.default_rng(0))
backbone = ToyBackbone(store, layers=(3, 4, 5))
feat_s = backbone.forward(pair.source)
feat_t = backbone.forward(pair.target)
print("feature levels:", [tuple(f.grid.shape) for f in feat_s])

# one clamped-cosine map per level, rows indexing source cells
stack = build_stack(feat_s, feat_t, target_hw=(16, 16))
print(f"correlation stack {stack.maps.shape}, min {stack.maps.data.min():.3f}")

# averaging levels into a [16, 16, 16, 16] volume and taking the
# softmax-weighted target centroid per source cell yields a dense
# displacement field in grid cells
mean_map = raw_correlation_mean(feat_s, feat_t, (16, 16))
soft = soft_argmax_flow(mean_map, beta=20.0)
hard = hard_argmax_flow(mean_map)

# the engine refuses mixed-precision arithmetic, so ask for the analytic
# ground truth at the dtype the model side produced
gt = pair.gt_flow((16, 16), dtype=np.float32)
print(f"gt flow range   [{gt.grid.data.min():+.2f}, {gt.grid.data.max():+.2f}] cells")
print(f"soft-argmax aepe = {aepe(soft, gt).item():.4f} cells")
print(f"hard-argmax aepe = {aepe(hard, gt).item():.4f} cells (integer cells only)")

# the soft field is differentiable; the hard one is the classic
# winner-takes-all baseline the aggregators are measured against
center = (8, 8)
print(f"flow at cell {center}: soft {np.round(soft.grid.data[center], 3)}, "
      f"hard {hard.grid.data[center]}, gt {np.round(gt.grid.data[center], 3)}")
