"""Transformer cost aggregation for dense matching on a numpy autodiff core.

The package builds multi-level cosine correlations between feature maps,
refines them with transformer aggregators (token-based over a working grid,
or convolutional-embedding pyramids over full 4D volumes), and reads off
dense flow with a differentiable soft argmax. A small reverse-mode tensor
engine, an AdamW loop, synthetic supervision, checkpointing, and a CLI make
the whole pipeline self-contained.
"""

from .cats import CatsAggregator, CatsConfig
from .catspp import CatsPPAggregator, EfficientConfig, EmbedConfig, LayerSpec
from .correlation import (CorrelationStack, FeatureMap, Hypercorrelation,
                          build_hypercorrelation, build_stack,
                          cosine_correlation, swap)
from .errors import (ArgumentError, CatAggError, CheckpointError, ConfigError,
                     DimensionError, NumericError, StateError, UsageError)
from .flow import (FlowField, KeypointSet, aepe, hard_argmax_flow, pck,
                   read_keypoints, soft_argmax_flow, transfer_keypoints,
                   write_keypoints)
from .model import CatsModel, CatsPPModel, ToyBackbone, raw_correlation_mean
from .optim import AdamW, cosine_lr
from .params import ParamStore
from .pipeline import (EvalReport, TrainConfig, evaluate, load_checkpoint,
                       load_pairs, make_optimizer, read_manifest,
                       save_checkpoint, train, train_step, write_dataset)
from .synth import SyntheticPair, generate_pair
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ArgumentError", "CatAggError", "CatsAggregator", "CatsConfig",
    "CatsModel", "CatsPPAggregator", "CatsPPModel", "CheckpointError",
    "ConfigError", "CorrelationStack", "DimensionError", "EfficientConfig",
    "EmbedConfig", "EvalReport", "FeatureMap", "FlowField",
    "Hypercorrelation", "KeypointSet", "LayerSpec", "NumericError",
    "ParamStore", "StateError", "SyntheticPair", "Tensor", "ToyBackbone",
    "TrainConfig", "UsageError", "aepe", "backward",
    "build_hypercorrelation", "build_stack", "cosine_correlation",
    "cosine_lr", "evaluate", "generate_pair", "hard_argmax_flow",
    "load_checkpoint", "load_pairs", "make_optimizer", "no_grad", "pck",
    "raw_correlation_mean", "read_keypoints", "read_manifest",
    "save_checkpoint", "soft_argmax_flow", "swap", "train", "train_step",
    "transfer_keypoints", "write_dataset", "write_keypoints", "__version__",
]
