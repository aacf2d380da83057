"""Run configuration: defaults, file parsing, overrides, typed views."""

import re

import pytest

from catagg.cats import CatsConfig
from catagg.catspp import EfficientConfig, EmbedConfig
from catagg.config import DEFAULTS, RunConfig
from catagg.errors import ConfigError
from catagg.model import CatsModel, CatsPPModel
from catagg.pipeline import TrainConfig


class TestResolution:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg["model"] == "cats"
        assert cfg["mode"] == "serial"
        assert cfg["n_encoders"] == 1
        assert cfg["train.lr_aggregator"] == 3e-5
        assert cfg["train.lr_backbone"] == 3e-6
        assert cfg["train.weight_decay"] == 0.05
        assert cfg["beta"] == 20.0

    def test_every_default_is_documented_scalar(self):
        for key, val in DEFAULTS.items():
            assert isinstance(val, (int, float, str)), key

    def test_unknown_key_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.set("nope", "1")
        with pytest.raises(ConfigError):
            cfg["nope"]

    def test_file_then_sets(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment line\n"
                     "model = catspp\n"
                     "train.steps = 7   # trailing comment\n"
                     "\n"
                     "beta = 12.5\n")
        cfg = RunConfig.load(str(f), sets=["train.steps=9"])
        assert cfg["model"] == "catspp"
        assert cfg["train.steps"] == 9  # --set wins over the file
        assert cfg["beta"] == 12.5

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            RunConfig.load("/does/not/exist.cfg")

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("model catspp\n")
        with pytest.raises(ConfigError):
            RunConfig.load(str(f))

    def test_unknown_key_in_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("modle = cats\n")
        with pytest.raises(ConfigError):
            RunConfig.load(str(f))

    def test_bad_set_syntax(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["train.steps"])


class TestTyping:
    def test_int_coercion(self):
        cfg = RunConfig.load(None, sets=["train.steps=42"])
        assert cfg["train.steps"] == 42

    def test_float_accepts_int_text(self):
        cfg = RunConfig.load(None, sets=["beta=5"])
        assert cfg["beta"] == 5.0

    def test_int_rejects_float_text(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["train.steps=1.5"])

    def test_kernels_odd(self):
        cfg = RunConfig.load(None, sets=["catspp.ffn_kernel=5"])
        assert cfg["catspp.ffn_kernel"] == 5
        with pytest.raises(ConfigError, match="catspp.proj_kernel: must be odd"):
            cfg.set("catspp.proj_kernel", 2)

    def test_choice_enforced(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["model=resnet"])
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["mode=circular"])

    def test_echo_is_complete_and_sorted(self):
        cfg = RunConfig()
        echo = cfg.echo()
        assert set(echo) == set(DEFAULTS)
        assert list(echo) == sorted(echo)


class TestTypedViews:
    def test_layers(self):
        assert RunConfig().layers() == (4, 5)
        cfg = RunConfig.load(None, sets=["layers=3,4,5"])
        assert cfg.layers() == (3, 4, 5)
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["layers=2,9"]).layers()
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["layers=abc"]).layers()
        with pytest.raises(ConfigError, match="distinct"):
            RunConfig.load(None, sets=["layers=4,5,4"]).layers()

    def test_alphas(self):
        assert RunConfig().alphas() == (0.05, 0.1, 0.15)
        with pytest.raises(ConfigError):
            RunConfig.load(None, sets=["alphas=0,2"]).alphas()

    @pytest.mark.parametrize("alphas, label", [
        ("0.1,0.1", "0.1"), ("0.1,0.1000001", "0.1"), ("0.05,0.1,0.05", "0.05")])
    def test_repeated_pck_label_rejected(self, alphas, label):
        # a report labels each alpha pck@{a:g}: 0.1000001 prints as 0.1
        with pytest.raises(ConfigError, match=rf"repeated PCK label pck@{re.escape(label)} "):
            RunConfig.load(None, sets=[f"alphas={alphas}"]).alphas()

    def test_grid(self):
        cfg = RunConfig.load(None, sets=["grid.h=8", "grid.w=12"])
        assert cfg.grid() == (8, 12)

    def test_train_config(self):
        cfg = RunConfig.load(None, sets=["train.steps=3", "seed=7",
                                         "train.batch=2"])
        t = cfg.train_config()
        assert (t.steps, t.seed, t.batch_size) == (3, 7, 2)
        assert t.lr_aggregator == 3e-5

    def test_build_cats(self):
        model = RunConfig().build_model()
        assert isinstance(model, CatsModel)
        assert model.flow_grid == (16, 16)
        assert model.cfg.mode == "serial"

    def test_build_catspp(self):
        cfg = RunConfig.load(None, sets=["model=catspp"])
        model = cfg.build_model()
        assert isinstance(model, CatsPPModel)
        assert model.flow_grid == (8, 8)

    def test_invalid_model_config_surfaces(self):
        with pytest.raises(ConfigError, match="n_encoders"):
            RunConfig.load(None, sets=["n_encoders=0"])
        # 288-wide tokens do not split over 5 heads; only the model sees that
        cfg = RunConfig.load(None, sets=["cats.heads=5"])
        with pytest.raises(ConfigError, match="heads"):
            cfg.build_model()


class TestDataclassDefaults:
    def test_dataclass_defaults_match_config_defaults(self):
        # every field default equals the value RunConfig() resolves for it
        assert RunConfig().train_config() == TrainConfig()
        assert RunConfig().build_model().cfg == CatsConfig()
        agg = RunConfig.load(None, sets=["model=catspp"]).build_model().agg
        assert agg.embed_cfg == EmbedConfig()
        assert agg.eff == EfficientConfig()
