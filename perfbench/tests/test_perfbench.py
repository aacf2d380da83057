"""The benchmark's own tests: its checks catch bad outputs, its runs complete.

    python3 -m pytest perfbench/tests -q

Each workload runs one round at a reduced size; the output checks are fed
real outputs of the package, then perturbed copies that they must reject.
"""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import catagg
import checks
import run
import spans
import workloads as wl
from catagg import tensor as tt
from catagg.tensor_io import load_tensor, save_tensor

SMALL_DESKS = {
    "cats-desk": dataclasses.replace(wl.DESKS["cats-desk"], pool=1, passes=4,
                                     held=2),
    "catspp-desk": dataclasses.replace(wl.DESKS["catspp-desk"], pool=2,
                                       passes=3, held=3),
}
SMALL_CLI = wl.CliSpec(train_pairs=3, held=3, steps=8, window=2)


@pytest.fixture(scope="module")
def catspp_round():
    """One small catspp-desk round's session, model, predictions and reports."""
    session = wl.DeskSession(SMALL_DESKS["catspp-desk"],
                             wl.workload_held_start("catspp-desk", 3))
    model, opt = session.build()
    for pair in session.pool * 3:
        catagg.pipeline.train_step(model, opt, [pair])
    with tt.no_grad():
        preds = [model.flow(p.source, p.target).grid.data.astype(np.float64)
                 for p in session.held]
    threaded = catagg.pipeline.evaluate(model, session.held, threads=2)
    serial = catagg.pipeline.evaluate(model, session.held, threads=1)
    return session, model, preds, threaded, serial


def _expected(session, model, preds):
    return [checks.pair_metrics(
                p, checks.gt_flow(pair.warp, wl.IMAGE_SIZE, model.flow_grid),
                wl.IMAGE_SIZE, session.alphas)
            for p, pair in zip(preds, session.held)]


def _rows(report):
    return [checks.row_fields(r) for r in report.rows]


# ---- the checks accept real outputs and reject perturbed ones --------------


def test_recomputation_matches_the_report(catspp_round):
    session, model, preds, threaded, serial = catspp_round
    rows = _rows(threaded)
    assert checks.check_rows(rows, _expected(session, model, preds), "t") == []
    assert checks.check_monotone(rows, session.alphas, "t") == []
    assert checks.check_same_rows(rows, _rows(serial), "t") == []


def test_perturbed_flow_is_caught(catspp_round):
    session, model, preds, threaded, _ = catspp_round
    bent = [p.copy() for p in preds]
    bent[1][2, 3, 0] += 1e-3
    assert checks.check_rows(_rows(threaded), _expected(session, model, bent), "t")


def test_perturbed_report_value_is_caught(catspp_round):
    session, model, preds, threaded, _ = catspp_round
    expected = _expected(session, model, preds)
    for key, delta in (("aepe", 1e-6), ("pck@0.1", 0.04)):
        rows = _rows(threaded)
        rows[0][key] += delta
        assert checks.check_rows(rows, expected, "t"), key
    rows = _rows(threaded)
    rows[2]["pck@0.05"] = rows[2]["pck@0.1"] + 0.04
    assert checks.check_monotone(rows, session.alphas, "t")


def test_mismatched_threaded_row_is_caught(catspp_round):
    _, _, _, threaded, serial = catspp_round
    rows = _rows(threaded)
    rows[1]["aepe"] = float(np.nextafter(rows[1]["aepe"], np.inf))
    assert checks.check_same_rows(rows, _rows(serial), "t")
    assert checks.check_same_rows(_rows(threaded)[:2], _rows(serial), "t")


def test_held_window_skips_seeds_the_generator_rejects():
    # 1015016 is rejected on an 8x8 grid; data seed 101's window starts
    # at 1015000 and must move past it
    start = wl.held_start(101, 24, (8, 8))
    assert start == 1015017
    assert wl.held_start(3, 24, (8, 8)) == 35000


def test_loss_checks():
    assert checks.check_losses([3.0, 2.0, 1.0, 0.5], 2, "t") == []
    assert checks.check_losses([3.0, float("nan"), 1.0, 0.5], 2, "t")
    assert checks.check_losses([1.0, 1.0, 2.0, 3.0], 2, "t")


def test_catt_parser_reads_what_the_package_writes(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    for dtype in (np.float32, np.float64):
        save_tensor(tmp_path / "t.catt", arr.astype(dtype))
        ours = checks.read_catt(tmp_path / "t.catt")
        assert np.array_equal(ours, load_tensor(tmp_path / "t.catt"))
    (tmp_path / "t.catt").write_bytes(b"CATX" + bytes(8))
    with pytest.raises(ValueError):
        checks.read_catt(tmp_path / "t.catt")


def test_split_step_reproduces_train_step(catspp_round):
    session = catspp_round[0]
    split = wl.decompose_step(session.build, session.pool[0])
    assert split["failures"] == []
    assert split["pipeline.train.backward_ms"] > 0


# ---- spans -----------------------------------------------------------------


def test_tracer_counts_and_restores(catspp_round):
    session = catspp_round[0]
    original = catagg.tensor.matmul
    model, _ = session.build()
    pair = session.held[0]
    tracer = spans.Tracer(catagg)
    with tracer, tt.no_grad():
        model.flow(pair.source, pair.target)
    assert catagg.tensor.matmul is original
    totals = tracer.totals()
    assert totals["volume_ops.conv4d.calls"] > 0
    assert totals["volume_ops.conv4d.flops"] > 0
    assert totals["model.backbone.calls"] == 2
    assert totals.get("cats.transform.calls", 0) == 0
    assert set(k for k in totals if k.endswith((".ms", ".calls"))) <= set(
        spans.span_metrics())


# ---- whole workloads, reduced ----------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL_DESKS))
def test_desk_round_is_correct(name):
    session = wl.DeskSession(SMALL_DESKS[name], wl.workload_held_start(name, 4))
    samples, tally = wl.Samples(), wl.Tally()
    out = session.run_round(samples, tally)
    assert out.failures == []
    assert tally.failed == 0 and tally.attempted > 0
    assert 0 < samples.median("pck_0.1") <= 1


def test_cli_round_is_correct_and_catches_a_bent_flow_file(tmp_path):
    start = wl.workload_held_start("catspp-cli", 5)
    assert wl.cli_setup(SMALL_CLI, start, tmp_path / "data") == [0, 0]
    session = wl.CliSession(SMALL_CLI, tmp_path / "data", tmp_path)
    samples, tally = wl.Samples(), wl.Tally()
    out = session.run_round(samples, tally)
    assert out.failures == []
    assert tally.counts["cli_command"] == (3, 0)
    assert len(samples.values["train_step_ms"]) == SMALL_CLI.steps

    flows = tmp_path / "round1" / "flows"
    rows, summary = checks.parse_report(
        (tmp_path / "round1" / "report.txt").read_text())
    assert session._check_files(rows, summary, flows) == []
    bent = load_tensor(flows / "pred_flow_0001.catt")
    bent[0, 0, 1] += 1e-3
    save_tensor(flows / "pred_flow_0001.catt", bent)
    assert session._check_files(rows, summary, flows)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(monkeypatch, trace):
    monkeypatch.setitem(wl.DESKS, "catspp-desk", SMALL_DESKS["catspp-desk"])
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "catspp-desk", "--seed", "6",
                       "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert not run.TMP.exists()


def test_run_refuses_a_tree_without_the_package(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cats-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench-tmp").exists()
