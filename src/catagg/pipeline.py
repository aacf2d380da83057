"""Training, evaluation, dataset files, and checkpointing.

Datasets are manifest-driven: `src= tgt= flow= seed=` lines point at tensor
files, and the echoed `# key = value` header carries enough provenance to
regenerate every pair exactly from its seed. Evaluation reports AEPE plus
PCK at each alpha for both the model and the raw-correlation WTA baseline,
one line per pair and a trailing summary. Checkpoints bundle parameters,
optimizer moments, the step counter and the training RNG state so a resumed
run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .errors import ArgumentError, CheckpointError, NumericError, read_lines
from .flow import (FlowField, KeypointSet, aepe, pck, transfer_keypoints)
from .optim import AdamW
from .params import ParamStore
from .synth import SyntheticPair, generate_pair
from .tensor import Tensor
from .tensor_io import (atomic_write, load_bundle, load_tensor, save_bundle,
                        save_tensor)

__all__ = ["TrainConfig", "make_optimizer", "train_step", "train", "evaluate",
           "EvalReport", "PairResult", "eval_keypoints", "save_checkpoint",
           "load_checkpoint", "write_dataset", "read_manifest", "load_pairs",
           "DatasetEntry"]

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    lr_aggregator: float = 3e-5
    lr_backbone: float = 3e-6
    weight_decay: float = 0.05
    steps: int = 500
    batch_size: int = 1
    seed: int = 0

    def validate(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ArgumentError("steps must be >= 0 and batch_size positive")
        for name in ("lr_aggregator", "lr_backbone", "weight_decay"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ArgumentError(f"{name} must be finite and >= 0, got {value!r}")


def make_optimizer(model, cfg: TrainConfig) -> AdamW:
    """Two LR groups: aggregator parameters and backbone parameters."""
    agg_prefix, backbone_prefix = model.lr_prefixes
    return AdamW(model.store,
                 groups=[(agg_prefix, cfg.lr_aggregator),
                         (backbone_prefix, cfg.lr_backbone)],
                 total_steps=cfg.steps,
                 weight_decay=cfg.weight_decay)


def _batch_loss(model, batch: list[SyntheticPair]) -> Tensor:
    losses = []
    for pair in batch:
        pred = model.flow(pair.source, pair.target)
        gt = pair.gt_flow(model.flow_grid, dtype=model.store.dtype)
        losses.append(tt.reshape(aepe(pred, gt), (1,)))
    return tt.tmean(tt.concat(losses, axis=0))


def train_step(model, opt: AdamW, batch: list[SyntheticPair]) -> float:
    """Forward, AEPE loss, backward, one optimizer update; returns the loss.

    The last step's gradients are dropped first, so they are not held
    while the forward builds its activations.
    """
    model.store.zero_grad()
    loss = _batch_loss(model, batch)
    value = loss.item()
    if not np.isfinite(value):
        # rerun under the numeric tripwire to name the first offending op
        try:
            with tt.finite_check():
                _batch_loss(model, batch)
        except NumericError as e:
            raise NumericError(
                f"non-finite loss at step {opt.step_count + 1}: {e}") from e
        raise NumericError(
            f"non-finite loss at step {opt.step_count + 1} "
            f"(not reproduced under finite_check)")
    tt.backward(loss)
    opt.step()
    return value


def train(model, opt: AdamW, pairs: list[SyntheticPair], cfg: TrainConfig,
          rng: np.random.Generator, stop_below: float | None = None,
          log=None) -> list[float]:
    """Run from the optimizer's current step up to cfg.steps; returns losses.

    Pair selection draws from `rng`, which is part of the persisted training
    state, so resuming from a checkpoint continues the same sample sequence.
    """
    if not pairs:
        raise ArgumentError("no training pairs")
    cfg.validate()
    history = []
    while opt.step_count < cfg.steps:
        idx = rng.integers(0, len(pairs), size=cfg.batch_size)
        batch = [pairs[int(i)] for i in idx]
        value = train_step(model, opt, batch)
        history.append(value)
        if log is not None and (opt.step_count % 50 == 0 or opt.step_count == 1):
            log(f"step={opt.step_count} loss={value:.4f}")
        if stop_below is not None and value < stop_below:
            break
    return history


# ---------------------------------------------------------------------------
# evaluation


def eval_keypoints(extents: tuple[int, int]) -> KeypointSet:
    """Fixed 5 x 5 interior pixel lattice used by every evaluation."""
    h, w = extents
    n = 5
    ys = (np.arange(1, n + 1) / (n + 1)) * h
    xs = (np.arange(1, n + 1) / (n + 1)) * w
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return KeypointSet(np.stack([gx.ravel(), gy.ravel()], axis=1), extents)


@dataclass
class PairResult:
    pair_id: int
    aepe: float
    pck: dict[float, float]
    wta_pck: dict[float, float]

    def line(self) -> str:
        cols = [f"pair={self.pair_id}", f"aepe={self.aepe!r}"]
        cols += [f"pck@{a:g}={v!r}" for a, v in self.pck.items()]
        cols += [f"wta_pck@{a:g}={v!r}" for a, v in self.wta_pck.items()]
        return " ".join(cols)


@dataclass
class EvalReport:
    alphas: tuple[float, ...]
    rows: list[PairResult] = field(default_factory=list)

    def mean_aepe(self) -> float:
        return float(np.mean([r.aepe for r in self.rows]))

    def mean_pck(self, alpha: float, wta: bool = False) -> float:
        return float(np.mean([(r.wta_pck if wta else r.pck)[alpha]
                              for r in self.rows]))

    def summary_line(self) -> str:
        cols = [f"summary aepe={self.mean_aepe()!r}"]
        cols += [f"pck@{a:g}={self.mean_pck(a)!r}" for a in self.alphas]
        cols += [f"wta_pck@{a:g}={self.mean_pck(a, wta=True)!r}"
                 for a in self.alphas]
        cols.append(f"pairs={len(self.rows)}")
        return " ".join(cols)

    def to_text(self, config_echo: dict | None = None) -> str:
        lines = []
        if config_echo:
            lines += [f"# {k} = {v}" for k, v in sorted(config_echo.items())]
        lines += [r.line() for r in self.rows]
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"


def _as_f64(f: FlowField) -> FlowField:
    return FlowField(Tensor(f.grid.data.astype(np.float64)))


def _eval_one(model, pair: SyntheticPair, pair_id: int,
              alphas: tuple[float, ...]) -> PairResult:
    with tt.no_grad():
        pred = _as_f64(model.flow(pair.source, pair.target))
        wta = model.wta(pair.source, pair.target)
        gt = pair.gt_flow(model.flow_grid)  # analytic, f64
        err = aepe(pred, gt).item()
    kps = eval_keypoints(pair.extents)
    gt_kp = transfer_keypoints(gt, kps)
    pred_kp = transfer_keypoints(pred, kps)
    wta_kp = transfer_keypoints(wta, kps)
    return PairResult(
        pair_id=pair_id,
        aepe=err,
        pck={a: pck(pred_kp, gt_kp, alpha=a) for a in alphas},
        wta_pck={a: pck(wta_kp, gt_kp, alpha=a) for a in alphas})


# numpy >= 2 wheels, numpy 1.x wheels, then an unsuffixed OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.lru_cache(maxsize=None)
def _openblas():
    """Thread-count getter and setter of numpy's bundled OpenBLAS, or None.

    Opening the wheel's copy with `ctypes.CDLL` returns the library numpy
    already loaded, so the setter acts on numpy's own GEMMs.
    """
    np_dir = os.path.dirname(np.__file__)
    paths = (glob.glob(os.path.join(np_dir + ".libs", "*openblas*"))
             + glob.glob(os.path.join(np_dir, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore it.

    A no-op when numpy does not bundle OpenBLAS (MKL, Accelerate, a distro
    build). OpenBLAS splits a GEMM by rows and columns, never along the
    summed axis, so the thread count changes no result.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def evaluate(model, pairs: list[SyntheticPair],
             alphas: tuple[float, ...] = (0.05, 0.1, 0.15),
             threads: int = 1) -> EvalReport:
    """Side-effect-free scoring of every pair; optionally pair-parallel.

    With `threads > 1` each worker runs its GEMMs on one BLAS thread, so
    pair workers do not contend with OpenBLAS's own pool; the previous
    count is restored once every worker has finished. Without numpy's
    bundled OpenBLAS the cap is a no-op.
    """
    if not pairs:
        raise ArgumentError("no evaluation pairs")
    if threads < 1:
        raise ArgumentError(f"threads must be at least 1, got {threads}")
    report = EvalReport(alphas=tuple(alphas))
    if threads == 1:
        report.rows = [_eval_one(model, p, i, report.alphas)
                       for i, p in enumerate(pairs)]
        return report
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_eval_one, model, p, i, report.alphas)
                   for i, p in enumerate(pairs)]
        report.rows = [f.result() for f in futures]
    return report


# ---------------------------------------------------------------------------
# dataset files


@dataclass
class DatasetEntry:
    src: str
    tgt: str
    flow: str
    seed: int


def write_dataset(out_dir, n_pairs: int, seed: int, grid: tuple[int, int],
                  warp_magnitude: float, size: int = 128,
                  config_echo: dict | None = None) -> str:
    """Generate pairs, write their tensors, return the manifest path.

    Pairs take consecutive seeds from `seed` on, skipping any seed that
    `generate_pair` rejects; the manifest records each pair's own seed. The
    generator's error is raised once as many seeds were rejected as pairs
    were asked for.
    """
    if n_pairs < 1:
        raise ArgumentError(f"n_pairs must be positive, got {n_pairs}")
    os.makedirs(out_dir, exist_ok=True)
    echo = dict(config_echo or {})
    echo.update({"data.grid.h": grid[0], "data.grid.w": grid[1],
                 "data.magnitude": warp_magnitude, "data.size": size,
                 "data.seed": seed, "data.pairs": n_pairs})
    lines = [f"# {k} = {v}" for k, v in sorted(echo.items())]
    seeds, rejected = itertools.count(seed), 0
    for i in range(n_pairs):
        while True:
            try:
                pair = generate_pair(next(seeds), grid=grid,
                                     warp_magnitude=warp_magnitude, size=size)
                break
            except ArgumentError:
                rejected += 1
                if rejected == n_pairs:
                    raise
        names = (f"src_{i:04d}.catt", f"tgt_{i:04d}.catt", f"flow_{i:04d}.catt")
        save_tensor(os.path.join(out_dir, names[0]), pair.source.data)
        save_tensor(os.path.join(out_dir, names[1]), pair.target.data)
        save_tensor(os.path.join(out_dir, names[2]),
                    pair.gt_flow(grid).grid.data)
        lines.append(
            f"src={names[0]} tgt={names[1]} flow={names[2]} seed={pair.seed}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with atomic_write(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def read_manifest(path) -> tuple[dict, list[DatasetEntry]]:
    """Echo header as a dict plus one entry per `src= tgt= flow= seed=` line."""
    echo: dict[str, str] = {}
    entries: list[DatasetEntry] = []
    base = os.path.dirname(os.path.abspath(path))
    for lineno, raw in enumerate(read_lines(path, ArgumentError), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, _, v = body.partition("=")
                echo[k.strip()] = v.strip()
            continue
        where = f"manifest {path} line {lineno}"
        tokens = line.split()
        bad = [tok for tok in tokens if "=" not in tok]
        if bad:
            raise ArgumentError(f"{where}: token {bad[0]!r} is not key=value")
        fields = dict(tok.split("=", 1) for tok in tokens)
        missing = {"src", "tgt", "flow", "seed"} - set(fields)
        if missing:
            raise ArgumentError(f"{where}: missing {sorted(missing)}: {line!r}")
        try:
            seed = int(fields["seed"])
        except ValueError:
            raise ArgumentError(
                f"{where}: seed {fields['seed']!r} is not an integer") from None
        if seed < 0:
            raise ArgumentError(f"{where}: seed {seed} is negative")
        entries.append(DatasetEntry(
            src=os.path.join(base, fields["src"]),
            tgt=os.path.join(base, fields["tgt"]),
            flow=os.path.join(base, fields["flow"]),
            seed=seed))
    if not entries:
        raise ArgumentError(f"manifest {path} lists no pairs")
    return echo, entries


def load_pairs(path) -> list[SyntheticPair]:
    """Regenerate every pair from its seed using the manifest's echoed config.

    The tensor files exist for external consumers; seeds plus the echoed
    generation settings reproduce them bit-exactly, which is spot-checked
    on the first pair's stored flow.
    """
    echo, entries = read_manifest(path)
    try:
        grid = (int(echo["data.grid.h"]), int(echo["data.grid.w"]))
        magnitude = float(echo["data.magnitude"])
        size = int(echo["data.size"])
    except KeyError as e:
        raise ArgumentError(f"manifest {path} lacks generation echo {e}") from e
    pairs = [generate_pair(en.seed, grid=grid, warp_magnitude=magnitude,
                           size=size) for en in entries]
    stored = load_tensor(entries[0].flow)
    analytic = pairs[0].gt_flow(grid).grid.data
    if not np.array_equal(stored, analytic):
        raise CheckpointError(
            f"{entries[0].flow} disagrees with regeneration from seed "
            f"{entries[0].seed}; manifest echo out of date?")
    return pairs


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, kind: str, store: ParamStore, opt: AdamW,
                    rng: np.random.Generator, config: dict):
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "step": opt.step_count,
        "rng": rng.bit_generator.state,
        "config": {str(k): config[k] for k in sorted(config)},
    }
    arrays = dict(store.state_arrays())
    arrays.update(opt.state_arrays())
    save_bundle(path, arrays, meta)


def load_checkpoint(path, store: ParamStore, opt: AdamW,
                    rng: np.random.Generator) -> dict:
    """Restore parameters, moments, step and RNG state; returns the metadata."""
    arrays, meta = load_bundle(path)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('version')} != {CHECKPOINT_VERSION}")
    step = meta.get("step")
    if type(step) is not int or step < 0:
        raise CheckpointError(
            f"checkpoint step must be an int >= 0, got {step!r}")
    params = {k: v for k, v in arrays.items() if not k.startswith("opt.")}
    moments = {k: v for k, v in arrays.items() if k.startswith("opt.")}
    store.load_arrays(params)
    opt.load_arrays(moments)
    opt.step_count = step
    try:
        rng.bit_generator.state = meta["rng"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(
            f"checkpoint rng is not a PCG64 state: {e!r}") from None
    return meta
