"""Flat `key = value` run configuration with documented defaults.

Every key below has its default inline; nesting is flattened with dots.
Files hold one assignment per line, `#` starts a comment, and unknown keys
are rejected so typos cannot silently fall back to defaults. The fully
resolved mapping is echoed into every artifact a run produces.
"""

from __future__ import annotations

import os

import numpy as np

from .cats import MODES, CatsConfig
from .catspp import EfficientConfig, EmbedConfig
from .errors import ConfigError, read_lines
from .model import CatsModel, CatsPPModel, check_layers
from .params import ParamStore
from .pipeline import TrainConfig

__all__ = ["RunConfig", "DEFAULTS"]

DEFAULTS: dict[str, object] = {
    # model selection and head
    "model": "cats",              # cats | catspp
    "mode": "serial",             # cats pass order: serial | parallel | both
    "n_encoders": 1,              # encoder count for the selected aggregator
    "layers": "4,5",              # backbone pyramid layers fed to aggregation
    "beta": 20.0,                 # soft-argmax temperature
    "alphas": "0.05,0.1,0.15",    # PCK thresholds
    "seed": 0,                    # parameter init / training stream seed
    "threads": 1,                 # eval pair-level fan-out
    # cats working grid and tokens
    "grid.h": 16,
    "grid.w": 16,
    "cats.p": 32,                 # appearance embedding extent
    "cats.heads": 8,
    "cats.ffn_ratio": 4,
    # catspp volumes
    "catspp.embed.kernel": 3,
    "catspp.embed.stride": 2,
    "catspp.embed.d": 8,
    "catspp.embed.stages": 1,
    "catspp.s": 2,                # Q/K source-pair reduction stride
    "catspp.a": 32,               # attention feature extent
    "catspp.r": 2,                # volumetric FFN expansion
    "catspp.p": 16,               # appearance embedding extent
    "catspp.proj_kernel": 3,
    "catspp.ffn_kernel": 3,
    # synthetic data
    "data.size": 128,
    "data.pairs": 200,
    "data.magnitude": 1.0,
    # training
    "train.steps": 500,
    "train.batch": 1,
    "train.lr_aggregator": 3e-5,
    "train.lr_backbone": 3e-6,
    "train.weight_decay": 0.05,
    "train.stop_below": 0.0,      # early-stop loss threshold; 0 disables
}

_CHOICES = {"model": ("cats", "catspp"), "mode": MODES}
_NON_NEGATIVE = ("seed", "train.steps")  # every other integer key is >= 1
_ODD = ("catspp.embed.kernel", "catspp.proj_kernel", "catspp.ffn_kernel")
# every float key must be finite; these also have a floor
_POSITIVE_FLOATS = ("beta",)
_NON_NEGATIVE_FLOATS = ("data.magnitude", "train.lr_aggregator",
                        "train.lr_backbone", "train.weight_decay")


def _coerce(key: str, raw: str):
    """Parse `raw` with the type of the key's default."""
    default = DEFAULTS[key]
    text = raw.strip()
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got '{text}'") from None
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected number, got '{text}'") from None
    return text


class RunConfig:
    """Resolved configuration: defaults, then file, then --set overrides."""

    def __init__(self):
        self._values = dict(DEFAULTS)

    @classmethod
    def load(cls, path, sets: list[str] | None = None) -> "RunConfig":
        cfg = cls()
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file not found: {path}")
            for ln, raw in enumerate(read_lines(path, ConfigError), 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{ln}: expected 'key = value', got '{line}'")
                key, _, val = line.partition("=")
                cfg.set(key.strip(), val.strip())
        for item in sets or []:
            if "=" not in item:
                raise ConfigError(f"--set needs key=value, got '{item}'")
            key, _, val = item.partition("=")
            cfg.set(key.strip(), val.strip())
        return cfg

    def set(self, key: str, value):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        if isinstance(value, str):
            value = _coerce(key, value)
        elif not isinstance(value, type(DEFAULTS[key])):
            raise ConfigError(
                f"{key}: expected {type(DEFAULTS[key]).__name__}, "
                f"got {type(value).__name__}")
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(
                f"{key}: expected one of {_CHOICES[key]}, got '{value}'")
        if isinstance(value, int):
            low = 0 if key in _NON_NEGATIVE else 1
            if value < low:
                raise ConfigError(f"{key}: must be >= {low}, got {value}")
            if key in _ODD and value % 2 == 0:
                raise ConfigError(f"{key}: must be odd, got {value}")
        if isinstance(value, float):
            if not np.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value}")
            if key in _POSITIVE_FLOATS and value <= 0:
                raise ConfigError(f"{key}: must be > 0, got {value}")
            if key in _NON_NEGATIVE_FLOATS and value < 0:
                raise ConfigError(f"{key}: must be >= 0, got {value}")
        if key == "data.size" and value % 16:
            # the backbone pools by 16 and the generator's coarse field is size/16
            raise ConfigError(f"{key}: must be a multiple of 16, got {value}")
        self._values[key] = value

    def __getitem__(self, key: str):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        return self._values[key]

    def echo(self) -> dict:
        """The full resolved mapping, for stamping into artifacts."""
        return dict(sorted(self._values.items()))

    # ---- typed views -----------------------------------------------------

    def layers(self) -> tuple[int, ...]:
        try:
            layers = tuple(int(t) for t in str(self["layers"]).split(","))
        except ValueError:
            raise ConfigError(
                f"layers: expected comma-separated ints, got "
                f"'{self['layers']}'") from None
        return check_layers(layers)

    def alphas(self) -> tuple[float, ...]:
        try:
            vals = tuple(float(t) for t in str(self["alphas"]).split(","))
        except ValueError:
            raise ConfigError(
                f"alphas: expected comma-separated floats, got "
                f"'{self['alphas']}'") from None
        if not vals or any(not 0 < a <= 1 for a in vals):
            raise ConfigError(f"alphas must sit in (0, 1], got {vals}")
        # reports label each alpha as pck@{a:g}, so two alphas may not share one
        labels = [f"{a:g}" for a in vals]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"alphas: repeated PCK label pck@{label} in "
                                  f"'{self['alphas']}'")
        return vals

    def grid(self) -> tuple[int, int]:
        return (self["grid.h"], self["grid.w"])

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            lr_aggregator=self["train.lr_aggregator"],
            lr_backbone=self["train.lr_backbone"],
            weight_decay=self["train.weight_decay"],
            steps=self["train.steps"],
            batch_size=self["train.batch"],
            seed=self["seed"])

    def build_model(self):
        """Construct the selected model on a fresh store seeded by `seed`."""
        store = ParamStore(rng=np.random.default_rng(self["seed"]))
        if self["model"] == "cats":
            cats = CatsConfig(grid=self.grid(),
                              n_encoders=self["n_encoders"],
                              n_heads=self["cats.heads"],
                              p=self["cats.p"],
                              ffn_ratio=self["cats.ffn_ratio"],
                              mode=self["mode"])
            return CatsModel(store, cats, layers=self.layers(),
                             beta=self["beta"])
        embed = EmbedConfig(kernel=self["catspp.embed.kernel"],
                            stride=self["catspp.embed.stride"],
                            d=self["catspp.embed.d"],
                            n_stages=self["catspp.embed.stages"])
        eff = EfficientConfig(s=self["catspp.s"], a=self["catspp.a"],
                              r=self["catspp.r"],
                              n_encoders=self["n_encoders"],
                              p=self["catspp.p"],
                              proj_kernel=self["catspp.proj_kernel"],
                              ffn_kernel=self["catspp.ffn_kernel"])
        return CatsPPModel(store, embed, eff, layers=self.layers(),
                           image_size=self["data.size"], beta=self["beta"])
