"""The benchmark's three workloads, driven through catagg's public API.

`cats-desk` and `catspp-desk` are library sessions on the desk configs of
the acceptance criteria: train a pool of synthetic pairs with
`pipeline.train_step`, run `model.flow` under `no_grad` on held-out pairs,
then `pipeline.evaluate` them with one thread per core and again serially.
`catspp-cli` is the README's command-line flow through `cli.main`: a short
`train` that writes a checkpoint, `eval` at the default single thread and
`infer --keypoints`, on datasets written by `gen-data` during set-up.

A round is one whole session from a freshly built model, so every round of
a workload does the same operations and ends in the same losses and report;
`run.py` repeats rounds to fill the measuring time. Every round's outputs
are checked against the numpy recomputations in `checks.py`.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from catagg import pipeline as pl
from catagg import synth
from catagg import tensor as tt
from catagg.cli import main as cli_main
from catagg.config import RunConfig
from catagg.errors import ArgumentError, CatAggError
from catagg.flow import aepe
from catagg.model import CatsPPModel

PARAM_SEED = 7       # parameters and the training stream, as in c5/c6
IMAGE_SIZE = 128     # the config default `data.size`
POOL_SEED = 1000     # training pairs are c6's first ones, whatever the data seed

CATSPP_DESK = ("model=catspp", "grid.h=8", "grid.w=8", "mode=parallel")


def held_start(data_seed: int, n: int, grid: tuple[int, int]) -> int:
    """First of `n` consecutive pair seeds, from 10000 * data_seed + 5000 on,
    that `generate_pair` accepts on `grid`; held-out pair i uses it + i.

    The generator gives up on about one seed in a thousand at the default
    warp magnitude. A window holding such a seed moves past it, so no
    operation of a run fails on its inputs. Held-out seeds are >= 5000 and
    never meet the training pool.
    """
    start, i = data_seed * 10_000 + 5000, 0
    while i < n:
        try:
            synth.generate_pair(start + i, grid=grid)
        except ArgumentError:
            start, i = start + i + 1, 0
        else:
            i += 1
    return start


def workload_held_start(workload: str, data_seed: int) -> int:
    """`held_start` for a workload's held-out count and grid."""
    spec, sets = ((DESKS[workload], DESKS[workload].sets) if workload in DESKS
                  else (CLI, CATSPP_DESK))
    return held_start(data_seed, spec.held, RunConfig.load(None, sets=sets).grid())


def eval_threads() -> int:
    """Cores this process may run on: the desks' `evaluate` thread count."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# bookkeeping


@dataclass
class Tally:
    """Operations attempted and failed, by kind."""

    counts: dict = field(default_factory=dict)

    def add(self, kind: str, attempted: int, failed: int = 0):
        a, f = self.counts.get(kind, (0, 0))
        self.counts[kind] = (a + attempted, f + failed)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


@dataclass
class Samples:
    """Timings gathered over the rounds of one run."""

    values: dict = field(default_factory=dict)

    def add(self, name: str, *vals: float):
        self.values.setdefault(name, []).extend(vals)

    def median(self, name: str) -> float:
        return statistics.median(self.values[name])


@dataclass
class RoundOutcome:
    """What a round produced, for comparing rounds bitwise."""

    losses: list
    report_rows: list
    failures: list


# ---------------------------------------------------------------------------
# desk sessions


@dataclass(frozen=True)
class DeskSpec:
    sets: tuple          # config overrides on top of the defaults
    pool: int            # training pairs
    passes: int          # passes over the pool, in pool order
    held: int            # held-out pairs for forwards and evaluation

    @property
    def steps(self) -> int:
        return self.pool * self.passes


DESKS = {
    # c5's single-pair learning rates
    "cats-desk": DeskSpec(
        sets=("model=cats", "train.lr_aggregator=1e-3",
              "train.lr_backbone=1e-4"),
        pool=4, passes=4, held=16),
    "catspp-desk": DeskSpec(
        sets=CATSPP_DESK + ("train.lr_aggregator=2e-3",
                            "train.lr_backbone=2e-4"),
        pool=8, passes=4, held=24),
}


class DeskSession:
    """The config, training pool and held-out pairs of one desk workload."""

    def __init__(self, spec: DeskSpec, held_start: int):
        self.spec = spec
        self.cfg = RunConfig.load(None, sets=[
            *spec.sets, f"seed={PARAM_SEED}", f"train.steps={spec.steps}"])
        grid = self.cfg.grid()
        self.pool = [synth.generate_pair(POOL_SEED + i, grid=grid)
                     for i in range(spec.pool)]
        self.held = [synth.generate_pair(held_start + i, grid=grid)
                     for i in range(spec.held)]
        self.alphas = self.cfg.alphas()

    def build(self):
        model = self.cfg.build_model()
        return model, pl.make_optimizer(model, self.cfg.train_config())

    def run_round(self, samples: Samples, tally: Tally) -> RoundOutcome:
        spec, failures = self.spec, []
        model, opt = self.build()

        losses, step_ms = [], []
        t_phase = time.perf_counter()
        for s in range(spec.steps):
            t0 = time.perf_counter()
            try:
                losses.append(pl.train_step(model, opt, [self.pool[s % spec.pool]]))
            except CatAggError as e:
                failures.append(f"train step {s}: {e}")
                losses.append(float("nan"))
            step_ms.append((time.perf_counter() - t0) * 1e3)
        samples.add("train_s", time.perf_counter() - t_phase)
        samples.add("train_step_ms", *step_ms)
        tally.add("train_step", spec.steps, len(failures))

        preds, fwd_ms = [], []
        t_phase = time.perf_counter()
        for pair in self.held:
            t0 = time.perf_counter()
            try:
                with tt.no_grad():
                    flow = model.flow(pair.source, pair.target)
                preds.append(flow.grid.data.astype(np.float64))
            except CatAggError as e:
                failures.append(f"forward: {e}")
                preds.append(None)
            fwd_ms.append((time.perf_counter() - t0) * 1e3)
        samples.add("infer_s", time.perf_counter() - t_phase)
        samples.add("forward_ms", *fwd_ms)
        tally.add("forward", len(self.held), sum(p is None for p in preds))

        reports = {}
        for kind, threads in (("eval_pair", eval_threads()),
                              ("eval_pair_serial", 1)):
            t0 = time.perf_counter()
            try:
                reports[kind] = pl.evaluate(model, self.held, alphas=self.alphas,
                                            threads=threads)
            except CatAggError as e:
                failures.append(f"evaluate threads={threads}: {e}")
            samples.add(f"{kind}_s", time.perf_counter() - t0)
            tally.add(kind, len(self.held), 0 if kind in reports else len(self.held))
        samples.add("eval_s", samples.values["eval_pair_s"][-1])

        failures += checks.check_losses(losses, spec.pool, "train")
        rows = []
        if "eval_pair" in reports:
            rows = [checks.row_fields(r) for r in reports["eval_pair"].rows]
            expected = [checks.pair_metrics(
                            p, checks.gt_flow(pair.warp, IMAGE_SIZE, model.flow_grid),
                            IMAGE_SIZE, self.alphas)
                        for p, pair in zip(preds, self.held) if p is not None]
            if len(expected) == len(rows):
                failures += checks.check_rows(rows, expected, "evaluate")
            failures += checks.check_monotone(rows, self.alphas, "evaluate")
            samples.add("pck_0.1", reports["eval_pair"].mean_pck(0.1))
        if len(reports) == 2:
            failures += checks.check_same_rows(
                rows, [checks.row_fields(r) for r in reports["eval_pair_serial"].rows],
                "threaded vs serial evaluate")
        samples.add("final_loss", float(np.mean(losses[-spec.pool:])))
        return RoundOutcome(losses, rows, failures)

    def peak_bytes(self) -> dict:
        """tracemalloc peaks of one train step and one forward, untimed."""
        model, opt = self.build()
        pair = self.pool[0]
        tracemalloc.start()
        try:
            pl.train_step(model, opt, [pair])
            train_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            with tt.no_grad():
                model.flow(pair.source, pair.target)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return {"train_peak_bytes": train_peak,
                "forward_peak_bytes": forward_peak}


# ---------------------------------------------------------------------------
# command-line flow


@dataclass(frozen=True)
class CliSpec:
    train_pairs: int     # pairs in the training dataset
    held: int            # pairs in the held-out dataset
    steps: int           # `train.steps` of the train command
    window: int          # steps averaged into final_loss


CLI = CliSpec(train_pairs=16, held=24, steps=24, window=8)

_COMMON = [a for s in CATSPP_DESK + (f"seed={PARAM_SEED}",) for a in ("--set", s)]
_TRAIN_SETS = ("train.lr_aggregator=2e-3", "train.lr_backbone=2e-4")


def _run_cli(argv) -> int:
    """One `catagg` command in-process, its console output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([str(a) for a in argv])


def cli_setup(spec: CliSpec, held_start: int, out: Path) -> list[int]:
    """`gen-data` for the training and held-out datasets; the exit codes."""
    codes = []
    for name, n, seed in (("train", spec.train_pairs, POOL_SEED),
                          ("held", spec.held, held_start)):
        codes.append(_run_cli(["gen-data", "--out", out / name, "--pairs", n,
                               "--seed", seed, *_COMMON]))
    return codes


@contextlib.contextmanager
def _stopwatch(owner, name: str, record: list):
    """Time each call of `owner.name`, keeping (seconds, result) pairs."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        record.append((time.perf_counter() - t0, out))
        return out

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


class CliSession:
    """The README flow on datasets that `cli_setup` wrote under `data`."""

    def __init__(self, spec: CliSpec, data: Path, work: Path):
        self.spec = spec
        self.train_manifest = data / "train" / "manifest.txt"
        self.held_manifest = data / "held" / "manifest.txt"
        self.held_dir = data / "held"
        self.work = work
        self.cfg = RunConfig.load(None, sets=[
            *CATSPP_DESK, f"seed={PARAM_SEED}", f"train.steps={spec.steps}",
            *_TRAIN_SETS])
        self.alphas = self.cfg.alphas()
        self.kp_file = work / "probe_keypoints.txt"
        pts = checks.lattice(IMAGE_SIZE)
        self.kp_file.write_text(f"{IMAGE_SIZE} {IMAGE_SIZE}\n" + "".join(
            f"{float(x)!r} {float(y)!r}\n" for x, y in pts))
        self._round = 0

    def build(self):
        """The model and optimizer the train command starts from."""
        model = self.cfg.build_model()
        return model, pl.make_optimizer(model, self.cfg.train_config())

    def train_argv(self, ckpt, steps=None):
        sets = (f"train.steps={steps or self.spec.steps}",) + _TRAIN_SETS
        return ["train", "--data", self.train_manifest, "--out", ckpt, *_COMMON,
                *[a for s in sets for a in ("--set", s)]]

    def eval_argv(self, ckpt, report):
        return ["eval", "--data", self.held_manifest, "--checkpoint", ckpt,
                "--report", report, *_COMMON]

    def infer_argv(self, ckpt, out):
        return ["infer", "--data", self.held_manifest, "--checkpoint", ckpt,
                "--out", out, "--keypoints", self.kp_file, *_COMMON]

    def run_round(self, samples: Samples, tally: Tally) -> RoundOutcome:
        self._round += 1
        rdir = self.work / f"round{self._round}"
        rdir.mkdir()
        ckpt, report, inferred = rdir / "run.ckpt", rdir / "report.txt", rdir / "flows"
        failures = []
        steps, evals, flows = [], [], []

        def command(kind, argv, watch):
            t0 = time.perf_counter()
            with watch:
                rc = _run_cli(argv)
            samples.add(kind, time.perf_counter() - t0)
            tally.add("cli_command", 1, int(rc != 0))
            if rc != 0:
                failures.append(f"{argv[0]} exited {rc}")

        command("train_s", self.train_argv(ckpt),
                _stopwatch(pl, "train_step", steps))
        command("eval_s", self.eval_argv(ckpt, report),
                _stopwatch(pl, "evaluate", evals))
        command("infer_s", self.infer_argv(ckpt, inferred),
                _stopwatch(CatsPPModel, "flow", flows))

        losses = [v for _, v in steps]
        tally.add("train_step", self.spec.steps, self.spec.steps - len(steps))
        tally.add("forward", self.spec.held, self.spec.held - len(flows))
        samples.add("train_step_ms", *(t * 1e3 for t, _ in steps))
        samples.add("forward_ms", *(t * 1e3 for t, _ in flows))
        samples.add("eval_pair_s", *(t for t, _ in evals))
        failures += checks.check_losses(losses, self.spec.window, "train")
        if losses:
            samples.add("final_loss", float(np.mean(losses[-self.spec.window:])))

        rows = []
        if report.exists():
            rows, summary = checks.parse_report(report.read_text())
            tally.add("eval_pair", self.spec.held, self.spec.held - len(rows))
            failures += self._check_files(rows, summary, inferred)
            if summary is not None:
                samples.add("pck_0.1", summary["pck@0.1"])
        else:
            tally.add("eval_pair", self.spec.held, self.spec.held)
        return RoundOutcome(losses, rows, failures)

    def _check_files(self, rows, summary, inferred: Path) -> list[str]:
        """Recompute the report from the flow files `gen-data` and `infer` wrote."""
        failures, expected = [], []
        pts = checks.lattice(IMAGE_SIZE)
        for i in range(self.spec.held):
            try:
                gt = checks.read_catt(self.held_dir / f"flow_{i:04d}.catt")
                pred = checks.read_catt(inferred / f"pred_flow_{i:04d}.catt")
                moved = checks.read_keypoint_file(inferred / f"pred_kp_{i:04d}.txt")
            except (OSError, ValueError) as e:
                return [f"infer output {i}: {e}"]
            expected.append(checks.pair_metrics(pred, gt, IMAGE_SIZE, self.alphas))
            gap = np.abs(moved - checks.transfer(pred, pts, IMAGE_SIZE)).max()
            if not gap <= checks.KEYPOINT_TOL:
                failures.append(f"infer keypoints {i}: off by {gap!r} px")
        failures += checks.check_rows(rows, expected, "eval report")
        failures += checks.check_summary(rows, summary, self.alphas, "eval report")
        failures += checks.check_monotone(rows, self.alphas, "eval report")
        return failures

    def peak_bytes(self) -> dict:
        """tracemalloc peaks of a one-step `train` and of `infer`, untimed."""
        mdir = self.work / "memory"
        mdir.mkdir()
        peaks = {}
        for key, argv in (("train_peak_bytes", self.train_argv(mdir / "one.ckpt", 1)),
                          ("forward_peak_bytes", self.infer_argv(mdir / "one.ckpt",
                                                                 mdir / "flows"))):
            tracemalloc.start()
            try:
                rc = _run_cli(argv)
                peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if rc != 0:
                raise RuntimeError(f"{argv[0]} exited {rc} in the memory pass")
        return peaks


# ---------------------------------------------------------------------------
# the traced run's one-step decomposition


def decompose_step(build, pair) -> dict:
    """One train step split into forward, backward and optimizer, untraced.

    Two models built alike take one step on the same pair: one through
    `pipeline.train_step`, one through the split. The split must reproduce
    the loss and every updated parameter bitwise, or the per-phase times
    would describe a different computation.
    """
    model, opt = build()
    mem = tt.MEM
    base = mem.current
    mem.reset_peak()
    loss_ref = pl.train_step(model, opt, [pair])
    meter = mem.peak - base

    twin, twin_opt = build()
    t_fwd = time.perf_counter()
    pred = twin.flow(pair.source, pair.target)
    gt = pair.gt_flow(twin.flow_grid, dtype=twin.store.dtype)
    loss = tt.tmean(tt.reshape(aepe(pred, gt), (1,)))
    value = loss.item()
    t_bwd = time.perf_counter()
    twin.store.zero_grad()
    tt.backward(loss)
    t_opt = time.perf_counter()
    twin_opt.step()
    t_end = time.perf_counter()

    failures = []
    if value != loss_ref:
        failures.append(f"split loss {value!r} != train_step loss {loss_ref!r}")
    ref, got = model.store.state_arrays(), twin.store.state_arrays()
    differ = [k for k in ref if not np.array_equal(ref[k], got[k])]
    if differ:
        failures.append(f"split step leaves {len(differ)} parameters unlike "
                        f"train_step's, first {differ[0]}")

    return {
        "failures": failures,
        "pipeline.train.forward_ms": (t_bwd - t_fwd) * 1e3,
        "pipeline.train.backward_ms": (t_opt - t_bwd) * 1e3,
        "pipeline.train.optimizer_ms": (t_end - t_opt) * 1e3,
        "tensor.meter_peak_bytes": meter,
    }


def tracing_overhead_ms(build, pair, tracer) -> float:
    """Median traced minus median untraced train step on one model.

    One untimed step first, then three pairs of steps, alternating which of
    the two goes first.
    """
    model, opt = build()
    pl.train_step(model, opt, [pair])
    times = {False: [], True: []}
    for r in range(3):
        for traced in ((False, True) if r % 2 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                pl.train_step(model, opt, [pair])
                times[traced].append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times[True]) - statistics.median(times[False])
