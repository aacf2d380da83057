"""Command-line interface: artifacts, exit codes, provenance echo."""

import filecmp
import multiprocessing
import os
import re
import shutil
import struct

import numpy as np
import pytest

from catagg import pipeline as pl
from catagg.cli import main
from catagg.flow import (FlowField, pck, read_keypoints, transfer_keypoints,
                         write_keypoints)
from catagg.tensor import Tensor
from catagg.tensor_io import load_bundle, load_tensor, save_bundle, save_tensor

CATSPP = ["--set", "model=catspp", "--set", "grid.h=8", "--set", "grid.w=8"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + a briefly trained catspp checkpoint shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    ck = str(root / "ck.catb")
    assert main(["gen-data", "--out", data, "--pairs", "3", "--seed", "11",
                 *CATSPP]) == 0
    assert main(["train", "--data", f"{data}/manifest.txt", "--out", ck,
                 "--set", "train.steps=4", "--set", "train.lr_aggregator=1e-3",
                 *CATSPP]) == 0
    return {"root": root, "data": f"{data}/manifest.txt", "ck": ck}


class TestGenData:
    def test_same_seed_same_tree(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["gen-data", "--pairs", "2", "--seed", "3"]
        assert main([*args, "--out", a]) == 0
        assert main([*args, "--out", b]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_zero_magnitude_zero_flow(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["gen-data", "--out", out, "--pairs", "1", "--seed", "0",
                     "--warp-magnitude", "0"]) == 0
        flow = load_tensor(os.path.join(out, "flow_0000.catt"))
        np.testing.assert_array_equal(flow, 0.0)

    def test_manifest_echoes_config(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["gen-data", "--out", out, "--pairs", "1", "--seed", "2",
                     "--set", "beta=9"]) == 0
        text = open(os.path.join(out, "manifest.txt")).read()
        assert "# beta = 9.0" in text
        assert "# model = cats" in text


class TestTrainEval:
    def test_eval_writes_report(self, workdir, tmp_path):
        rep = str(tmp_path / "report.txt")
        assert main(["eval", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--report", rep,
                     "--set", "train.lr_aggregator=1e-3", *CATSPP]) == 0
        lines = open(rep).read().splitlines()
        pair_lines = [l for l in lines if l.startswith("pair=")]
        assert len(pair_lines) == 3
        for line in pair_lines:
            assert re.match(r"pair=\d+ aepe=\S+ pck@0\.05=\S+ pck@0\.1=\S+ "
                            r"pck@0\.15=\S+ wta_pck@0\.05=\S+", line)
        assert lines[-1].startswith("summary aepe=")
        assert "# model = catspp" in lines

    def test_untrained_checkpoint_still_reports_wta(self, tmp_path):
        data = str(tmp_path / "data")
        ck = str(tmp_path / "init.catb")
        rep = str(tmp_path / "report.txt")
        assert main(["gen-data", "--out", data, "--pairs", "1", "--seed", "4",
                     *CATSPP]) == 0
        assert main(["train", "--data", f"{data}/manifest.txt", "--out", ck,
                     "--set", "train.steps=0", *CATSPP]) == 0
        assert main(["eval", "--data", f"{data}/manifest.txt",
                     "--checkpoint", ck, "--report", rep, *CATSPP]) == 0
        body = open(rep).read()
        assert "wta_pck@0.1=" in body

    def test_missing_checkpoint_usage_error(self, workdir, tmp_path):
        code = main(["eval", "--data", workdir["data"], "--checkpoint",
                     str(tmp_path / "nope.catb"),
                     "--report", str(tmp_path / "r.txt"), *CATSPP])
        assert code == 2

    def test_wrong_model_kind_rejected(self, workdir, tmp_path):
        # checkpoint holds catspp; asking for cats must fail, not misload
        code = main(["eval", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--report", str(tmp_path / "r.txt")])
        assert code == 1

    def test_resume_continues(self, workdir, tmp_path):
        ck2 = str(tmp_path / "more.catb")
        assert main(["train", "--data", workdir["data"], "--out", ck2,
                     "--resume", workdir["ck"], "--set", "train.steps=6",
                     "--set", "train.lr_aggregator=1e-3", *CATSPP]) == 0
        _, meta = load_bundle(ck2)
        assert meta["step"] == 6

    def test_unknown_config_key_usage_error(self, tmp_path):
        code = main(["gen-data", "--out", str(tmp_path / "x"),
                     "--set", "no.such=1"])
        assert code == 2

    @pytest.mark.parametrize("pattern,repl", [(r"$", " stray"),
                                              (r"seed=\d+", "seed=abc")],
                             ids=["stray-token", "non-integer-seed"])
    def test_malformed_manifest_row_is_error(self, workdir, tmp_path, capsys,
                                             pattern, repl):
        # corrupt the first pair row; data paths resolve next to the manifest
        text = open(workdir["data"]).read()
        row = next(l for l in text.splitlines() if l and not l.startswith("#"))
        man = tmp_path / "manifest.txt"
        man.write_text(text.replace(row, re.sub(pattern, repl, row, count=1)))
        code = main(["train", "--data", str(man), "--out", str(tmp_path / "ck.catb"),
                     "--set", "train.steps=1", *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(r"^error: manifest .* line \d+", err, re.M)
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "ck.catb")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_manifest_seed_is_error(self, workdir, tmp_path, capsys,
                                             command):
        text = open(workdir["data"]).read()
        man = tmp_path / "manifest.txt"
        man.write_text(re.sub(r"seed=\d+", "seed=-1", text, count=1))
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--out", str(out), "--set", "train.steps=1"]
        else:
            argv = ["eval", "--checkpoint", workdir["ck"], "--report", str(out)]
        code = main([*argv, "--data", str(man), *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: manifest \S+ line \d+: seed -1 is negative\n", err)
        assert not out.exists()


class TestStreamedPairs:
    """Each pair is regenerated and checked at its first use in a command."""

    @pytest.fixture
    def data_copy(self, workdir, tmp_path):
        """A private copy of the module's three-pair dataset; its manifest."""
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(workdir["data"]), data)
        return data / "manifest.txt"

    def test_tampered_later_flow_fails_eval(self, workdir, data_copy,
                                            tmp_path, capsys):
        flow = data_copy.parent / "flow_0002.catt"
        save_tensor(str(flow), load_tensor(str(flow)) + 1.0)
        rep = tmp_path / "r.txt"
        code = main(["eval", "--data", str(data_copy), "--checkpoint",
                     workdir["ck"], "--report", str(rep), *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: \S*flow_0002\.catt disagrees [^\n]*\n", err)
        assert not rep.exists()

    def test_rejected_seed_fails_eval(self, workdir, data_copy, tmp_path,
                                      capsys):
        # generate_pair rejects seed 1014864 on an 8x8 grid
        text = data_copy.read_text()
        data_copy.write_text(re.sub(r"seed=12$", "seed=1014864", text,
                                    flags=re.M))
        rep = tmp_path / "r.txt"
        code = main(["eval", "--data", str(data_copy), "--checkpoint",
                     workdir["ck"], "--report", str(rep), *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: seed 1014864: [^\n]*\n", err)
        assert not rep.exists()

    def test_rejected_seeds_fail_train(self, data_copy, tmp_path, capsys):
        text = data_copy.read_text()
        for seed in (12, 13):
            text = re.sub(rf"seed={seed}$", "seed=1014864", text, flags=re.M)
        data_copy.write_text(text)
        ck = tmp_path / "ck.catb"
        code = main(["train", "--data", str(data_copy), "--out", str(ck),
                     "--set", "train.steps=20", *CATSPP])
        captured = capsys.readouterr()
        assert code == 1
        assert re.search(r"^error: seed 1014864: ", captured.err, re.M)
        assert len(captured.err.splitlines()) == 1
        assert not ck.exists()


class TestGridMustMatchModel:
    @pytest.mark.parametrize("command", ["train", "eval", "infer"])
    def test_catspp_rejects_another_grid(self, workdir, tmp_path, capsys,
                                         command):
        out = tmp_path / "out"
        argv = {"train": ["--out", str(out)],
                "eval": ["--checkpoint", workdir["ck"], "--report", str(out)],
                "infer": ["--checkpoint", workdir["ck"], "--out", str(out)]}
        code = main([command, "--data", workdir["data"], *argv[command],
                     *CATSPP, "--set", "grid.h=4", "--set", "grid.w=4"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.fullmatch(r"usage error: [^\n]*\(4, 4\)[^\n]*\(8, 8\)\n", err)
        assert not out.exists()


class TestInfer:
    def test_flow_files_and_keypoints(self, workdir, tmp_path):
        kp_in = str(tmp_path / "kps.txt")
        pts = pl.eval_keypoints((128, 128))
        write_keypoints(kp_in, pts)
        out = str(tmp_path / "preds")
        assert main(["infer", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--out", out, "--keypoints", kp_in,
                     "--set", "train.lr_aggregator=1e-3", *CATSPP]) == 0
        flow = load_tensor(os.path.join(out, "pred_flow_0000.catt"))
        assert flow.shape == (8, 8, 2) and flow.dtype == np.float64
        moved = read_keypoints(os.path.join(out, "pred_kp_0000.txt"))
        assert len(moved) == 25
        body = open(os.path.join(out, "infer_manifest.txt")).read()
        assert "# model = catspp" in body
        assert "pair=0 flow=pred_flow_0000.catt kps=pred_kp_0000.txt" in body

    def test_nan_keypoint_is_error(self, workdir, tmp_path, capsys):
        kps = tmp_path / "kps.txt"
        kps.write_text("128 128\n10.0 20.0\nnan 4\n")
        out = tmp_path / "preds"
        code = main(["infer", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--out", str(out), "--keypoints", str(kps),
                     *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: keypoints must be finite [^\n]*\n", err)
        assert not out.exists()

    def test_external_pck_recomputation_matches_eval(self, workdir, tmp_path):
        # infer writes flows and moved keypoints; recomputing PCK from those
        # files against the dataset's stored GT flow reproduces eval's column
        rep = str(tmp_path / "report.txt")
        assert main(["eval", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--report", rep,
                     "--set", "train.lr_aggregator=1e-3", *CATSPP]) == 0
        kp_in = str(tmp_path / "kps.txt")
        write_keypoints(kp_in, pl.eval_keypoints((128, 128)))
        out = str(tmp_path / "preds")
        assert main(["infer", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--out", out, "--keypoints", kp_in,
                     "--set", "train.lr_aggregator=1e-3", *CATSPP]) == 0

        _, entries = pl.read_manifest(workdir["data"])
        kps = read_keypoints(kp_in)
        report_lines = [l for l in open(rep).read().splitlines()
                        if l.startswith("pair=")]
        for i, entry in enumerate(entries):
            gt_flow = FlowField(Tensor(load_tensor(entry.flow)))
            gt_kp = transfer_keypoints(gt_flow, kps)
            moved = read_keypoints(os.path.join(out, f"pred_kp_{i:04d}.txt"))
            expect = pck(moved, gt_kp, alpha=0.1)
            fields = dict(tok.split("=", 1) for tok in report_lines[i].split())
            assert float(fields["pck@0.1"]) == pytest.approx(expect, abs=1e-12)


class TestCorruptInput:
    @pytest.mark.parametrize("shape", [(2**31, 2**31, 2**31), (2**20, 2**20)],
                             ids=["count-wraps", "claim-exceeds-file"])
    def test_bad_tensor_header_infer_error(self, workdir, tmp_path, capsys,
                                           shape):
        data = tmp_path / "data"
        shutil.copytree(os.path.dirname(workdir["data"]), data)
        header = b"CATT" + struct.pack(f"<BB{len(shape)}I", 0, len(shape),
                                       *shape)
        (data / "src_0000.catt").write_bytes(header + bytes(64))
        code = main(["infer", "--data", str(data / "manifest.txt"),
                     "--checkpoint", workdir["ck"],
                     "--out", str(tmp_path / "preds"), *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: truncated tensor file: [^\n]*\n", err)

    @pytest.mark.parametrize("field,value", [
        ("step", None), ("rng", None), ("step", "abc"), ("step", -1),
        ("rng", {"bit_generator": "MT19937"}), ("rng", [1, 2])],
        ids=["no-step", "no-rng", "text-step", "negative-step",
             "foreign-rng", "list-rng"])
    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_bad_checkpoint_metadata_error(self, workdir, tmp_path, capsys,
                                           field, value, command):
        arrays, meta = load_bundle(workdir["ck"])
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        ck = str(tmp_path / "bad.catb")
        save_bundle(ck, arrays, meta)
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--checkpoint", ck, "--report", str(out)]
        else:
            argv = ["train", "--resume", ck, "--out", str(out),
                    "--set", "train.steps=6"]
        code = main([*argv, "--data", workdir["data"], *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(rf"error: checkpoint {field} [^\n]*\n", err)
        assert not out.exists()


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        assert main(["gradcheck", "--ops", "softmax"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"softmax\s+\S+\s+pass", out)

    def test_unknown_op_usage_error(self):
        assert main(["gradcheck", "--ops", "frobnicate"]) == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_usage_error(self, capsys, seeds):
        code = main(["gradcheck", "--ops", "softmax", "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert re.search(r"^usage error: --seeds must be >= 1", captured.err,
                         re.M)
        assert "pass" not in captured.out


class TestBenchCommand:
    def test_catspp_comparison(self, capsys):
        assert main(["bench", "--model", "catspp",
                     "--set", "grid.h=8", "--set", "grid.w=8"]) == 0
        out = capsys.readouterr().out
        vals = dict(l.split(" = ") for l in out.splitlines()
                    if " = " in l and not l.startswith("#"))
        assert int(vals["param.backbone"]) + int(vals["param.catspp"]) \
            == int(vals["param.total"])
        for q in (4, 5):
            assert float(vals[f"q{q}.param_ratio"]) <= 0.30
            assert (int(vals[f"q{q}.efficient.peak_bytes"])
                    <= int(vals[f"q{q}.standard.peak_bytes"]))
        assert float(vals["forward_ms"]) > 0

    def test_absurd_grid_is_error(self, capsys):
        # the positional table alone would take 1 PiB: numpy refuses it at once
        code = main(["bench", "--set", "grid.h=4096", "--set", "grid.w=4096"])
        captured = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(r"error: out of memory: [^\n]*\n", captured.err)

    def test_cats_params_only(self, capsys):
        assert main(["bench", "--model", "cats"]) == 0
        out = capsys.readouterr().out
        assert "param.cats = " in out
        assert "q4.param_ratio" not in out


class TestThreads:
    def test_env_var_mirrors_flag(self, workdir, tmp_path, monkeypatch):
        rep1 = str(tmp_path / "r1.txt")
        rep2 = str(tmp_path / "r2.txt")
        base = ["eval", "--data", workdir["data"], "--checkpoint",
                workdir["ck"], "--set", "train.lr_aggregator=1e-3", *CATSPP]
        assert main([*base, "--report", rep1, "--threads", "2"]) == 0
        monkeypatch.setenv("CATAGG_THREADS", "2")
        assert main([*base, "--report", rep2]) == 0
        strip = lambda p: [l for l in open(p).read().splitlines()
                           if not l.startswith("#")]
        assert strip(rep1) == strip(rep2)

    def test_pair_parallel_rows_equal_serial(self, workdir, tmp_path):
        reports = {}
        for n in ("1", "2"):
            reports[n] = tmp_path / f"r{n}.txt"
            assert main(["eval", "--data", workdir["data"], "--checkpoint",
                         workdir["ck"], "--report", str(reports[n]),
                         "--threads", n, *CATSPP]) == 0
        rows = {n: [l for l in p.read_bytes().splitlines(keepends=True)
                    if not l.startswith(b"#")] for n, p in reports.items()}
        assert len(rows["1"]) == 4  # three pairs and the summary
        assert rows["2"] == rows["1"]

    def test_dead_worker_is_one_error_line(self, workdir, tmp_path,
                                           monkeypatch, capsys):
        rep = tmp_path / "r.txt"
        monkeypatch.setattr(pl, "_eval_one", lambda *args: os._exit(3))
        code = main(["eval", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--report", str(rep), "--threads", "2",
                     *CATSPP])
        captured = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(r"error: evaluation worker exited [^\n]*\n",
                            captured.err)
        assert captured.out == ""
        assert not rep.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_thread_count_below_one_usage_error(self, workdir, tmp_path,
                                                monkeypatch, capsys, via):
        rep = tmp_path / "r.txt"
        args = ["eval", "--data", workdir["data"], "--checkpoint",
                workdir["ck"], "--report", str(rep), *CATSPP]
        if via == "flag":
            args += ["--threads", "0"]
        else:
            monkeypatch.setenv("CATAGG_THREADS", "0")
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(r"^usage error: .*threads", err, re.M)
        assert "Traceback" not in err
        assert not rep.exists()


class TestIntegerRange:
    @pytest.mark.parametrize("setting", [
        "cats.heads=0", "catspp.s=0", "catspp.embed.stride=0", "catspp.a=0",
        "catspp.r=0", "seed=-1", "catspp.p=0", "cats.ffn_ratio=0",
        "grid.h=-1"])
    def test_out_of_range_integer_usage_error(self, workdir, tmp_path, capsys,
                                              setting):
        ck = tmp_path / "ck.catb"
        model = "cats" if setting.startswith("cats.") else "catspp"
        code = main(["train", "--data", workdir["data"], "--out", str(ck),
                     "--set", "train.steps=0", *CATSPP, "--set", f"model={model}",
                     "--set", setting])
        err = capsys.readouterr().err
        assert code == 2
        key = setting.split("=")[0]
        assert re.search(rf"^usage error: {re.escape(key)}: must be >= ", err, re.M)
        assert "Traceback" not in err
        assert not ck.exists()

    @pytest.mark.parametrize("size", [8, 24])
    def test_image_size_not_multiple_of_16_usage_error(self, tmp_path, capsys,
                                                       size):
        out = tmp_path / "data"
        code = main(["gen-data", "--out", str(out), "--pairs", "1",
                     "--set", f"data.size={size}"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(r"^usage error: data\.size: must be a multiple of 16",
                         err, re.M)
        assert "Traceback" not in err
        assert not out.exists()


class TestModelShape:
    @pytest.mark.parametrize("sets,message", [
        (["catspp.embed.kernel=4"], "catspp.embed.kernel: must be odd"),
        (["catspp.proj_kernel=4"], "catspp.proj_kernel: must be odd"),
        (["catspp.ffn_kernel=4"], "catspp.ffn_kernel: must be odd"),
        (["layers=5,5"], "layers must be distinct"),
        (["model=cats", "layers=4,4"], "layers must be distinct"),
        (["layers=6"], "layers must come from 3,4,5"),
        (["model=cats", "layers=6"], "layers must come from 3,4,5")])
    def test_unrunnable_model_usage_error(self, workdir, tmp_path, capsys,
                                          sets, message):
        ck = tmp_path / "ck.catb"
        code = main(["train", "--data", workdir["data"], "--out", str(ck),
                     "--set", "train.steps=1", *CATSPP,
                     *[a for s in sets for a in ("--set", s)]])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(rf"^usage error: {re.escape(message)}", err, re.M)
        assert "Traceback" not in err
        assert not ck.exists()


class TestFloatRange:
    @pytest.mark.parametrize("setting", [
        "beta=nan", "train.stop_below=inf", "beta=0",
        "train.lr_aggregator=-1", "train.lr_backbone=-1",
        "train.weight_decay=-1", "data.magnitude=-0.5"])
    def test_out_of_range_float_usage_error(self, workdir, tmp_path, capsys,
                                            setting):
        ck = tmp_path / "ck.catb"
        code = main(["train", "--data", workdir["data"], "--out", str(ck),
                     "--set", "train.steps=0", *CATSPP, "--set", setting])
        err = capsys.readouterr().err
        assert code == 2
        key = setting.split("=")[0]
        assert re.search(rf"^usage error: {re.escape(key)}: must be ", err, re.M)
        assert "Traceback" not in err
        assert not ck.exists()


class TestNonSquareCatsGrid:
    def test_gen_train_eval(self, tmp_path):
        grid = ["--set", "grid.h=4", "--set", "grid.w=6"]
        data = str(tmp_path / "data")
        ck = str(tmp_path / "ck.catb")
        rep = tmp_path / "report.txt"
        assert main(["gen-data", "--out", data, "--pairs", "1", "--seed", "5",
                     *grid]) == 0
        assert main(["train", "--data", f"{data}/manifest.txt", "--out", ck,
                     "--set", "train.steps=1", *grid]) == 0
        assert main(["eval", "--data", f"{data}/manifest.txt", "--checkpoint",
                     ck, "--report", str(rep), *grid]) == 0
        lines = rep.read_text().splitlines()
        assert "# grid.w = 6" in lines
        assert lines[-1].startswith("summary aepe=")


class TestNonUtf8Input:
    BAD = "# caf\xe9\n".encode("latin-1")  # 0xe9 alone is not UTF-8

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"beta = 12.5\n" + self.BAD)
        out = tmp_path / "data"
        code = main(["gen-data", "--config", str(cfg), "--out", str(out),
                     "--pairs", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(rf"^usage error: .*{re.escape(str(cfg))}.*UTF-8", err, re.M)
        assert "Traceback" not in err
        assert not out.exists()

    def test_dataset_manifest(self, workdir, tmp_path, capsys):
        man = tmp_path / "manifest.txt"
        man.write_bytes(self.BAD + open(workdir["data"], "rb").read())
        ck = tmp_path / "ck.catb"
        code = main(["train", "--data", str(man), "--out", str(ck),
                     "--set", "train.steps=1", *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(rf"^error: .*{re.escape(str(man))}.*UTF-8", err, re.M)
        assert "Traceback" not in err
        assert not ck.exists()

    def test_keypoint_file(self, workdir, tmp_path, capsys):
        kps = tmp_path / "kps.txt"
        kps.write_bytes(b"128 128\n" + self.BAD + b"10.0 20.0\n")
        out = tmp_path / "preds"
        code = main(["infer", "--data", workdir["data"], "--checkpoint",
                     workdir["ck"], "--out", str(out), "--keypoints", str(kps),
                     "--set", "train.lr_aggregator=1e-3", *CATSPP])
        err = capsys.readouterr().err
        assert code == 1
        assert re.search(rf"^error: .*{re.escape(str(kps))}.*UTF-8", err, re.M)
        assert "Traceback" not in err
        assert not out.exists()


class TestArgumentErrors:
    """argparse failures print one `usage error:` line, like every other
    usage error; `-h` still prints the help."""

    @pytest.mark.parametrize("argv,message", [
        (["eval", "--data", "x"], "the following arguments are required: "
                                  "--checkpoint, --report"),
        (["gen-data", "--out", "x", "--pairs", "abc"],
         "argument --pairs: invalid int value: 'abc'"),
        (["frobnicate"], "invalid choice: 'frobnicate'")])
    def test_one_usage_line(self, tmp_path, monkeypatch, capsys, argv,
                            message):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("usage error: catagg")
        assert message in lines[0]
        assert "Traceback" not in captured.err
        assert os.listdir(tmp_path) == []

    def test_help_unchanged(self, capsys):
        assert main(["eval", "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: catagg eval ")
        assert captured.err == ""
