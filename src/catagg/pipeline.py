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

import concurrent.futures
import ctypes
import functools
import glob
import itertools
import multiprocessing
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tt
from .errors import (ArgumentError, CheckpointError, NumericError, StateError,
                     read_lines)
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
           "DatasetEntry", "ManifestPairs"]

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


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


@functools.lru_cache(maxsize=None)
def _keep_heap():
    """Keep a train step's freed heap in the process, once per process.

    glibc raises its mmap threshold to the largest block freed so far (on
    cats, the FFN hidden of about 4.7 MB) and trims the heap top above
    twice that, so each backward handed the activations' pages back to the
    kernel and the next forward faulted them in again: about 17,500 minor
    faults per cats desk step. Setting either threshold turns that dynamic
    rule off and leaves the other at its 128 KiB default, which faults
    more, so both are set: blocks up to 32 MiB, the largest mmap threshold
    glibc takes, come from the heap, which is trimmed only above 1 GiB of
    free top. In a long-lived process (a whole test session) part of each
    step still came from a second arena, whose extra 64 MiB heaps glibc
    unmaps whenever they empty, whatever the trim threshold: 2,400 to
    12,000 faults a step. So all threads share one arena from here on,
    and that step takes none. Results are unchanged. Where the C library has no `mallopt` (not
    glibc), nothing is done.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_ARENA_MAX, 1)


def train_step(model, opt: AdamW, batch: list[SyntheticPair]) -> float:
    """Forward, AEPE loss, backward, one optimizer update; returns the loss.

    The last step's gradients are dropped first, so they are not held
    while the forward builds its activations. The first step of a process
    sets glibc's heap policy (see `_keep_heap`).
    """
    _keep_heap()
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


def train(model, opt: AdamW, pairs: Sequence[SyntheticPair], cfg: TrainConfig,
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
        # one backbone pass per image serves both the model and the baseline
        fs, ft = model.features(pair.source), model.features(pair.target)
        pred = _as_f64(model.flow_from_features(fs, ft))
        wta = model.wta_from_features(fs, ft)
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


# (model, pairs, alphas); set only inside forked workers, by `_start_worker`
_worker_job = None


def _start_worker(model, pairs: Sequence[SyntheticPair],
                  alphas: tuple[float, ...]):
    """Pool initializer: keep the job the fork handed over, one BLAS thread.

    Under `fork` the initializer's arguments are inherited, never pickled.
    OpenBLAS splits a GEMM by rows and columns, never along the summed axis,
    so the thread count changes no result. Without numpy's bundled OpenBLAS
    (MKL, Accelerate, a distro build) the cap is skipped.
    """
    global _worker_job
    _worker_job = (model, pairs, alphas)
    blas = _openblas()
    if blas is not None:
        blas[1](1)


def _eval_in_worker(pair_id: int) -> PairResult:
    model, pairs, alphas = _worker_job
    return _eval_one(model, pairs[pair_id], pair_id, alphas)


def evaluate(model, pairs: Sequence[SyntheticPair],
             alphas: tuple[float, ...] = (0.05, 0.1, 0.15),
             threads: int = 1) -> EvalReport:
    """Side-effect-free scoring of every pair; optionally pair-parallel.

    With `threads > 1` the pairs run in `min(threads, len(pairs))` worker
    processes forked from the caller. Each worker inherits the model and
    the pairs, receives only pair indices and sends back only its rows, and
    runs its GEMMs on one BLAS thread; the caller's BLAS setting is never
    changed. A `load_pairs` sequence holds no pair, so each worker
    regenerates the pairs it scores. The report equals the serial one bit
    for bit, rows in pair order. Only platforms with the `fork` start
    method run pairs in parallel; elsewhere, and for a single pair,
    evaluation is serial.
    A worker that dies (a signal, the OOM killer) raises `StateError`, and
    no worker outlives the call.
    """
    if not pairs:
        raise ArgumentError("no evaluation pairs")
    if threads < 1:
        raise ArgumentError(f"threads must be at least 1, got {threads}")
    report = EvalReport(alphas=tuple(alphas))
    workers = min(threads, len(pairs))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        report.rows = [_eval_one(model, p, i, report.alphas)
                       for i, p in enumerate(pairs)]
        return report
    # `concurrent.futures` imports its process module on first use, so a
    # command that never evaluates in parallel does not pay for it at start-up
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(model, pairs, report.alphas))
    with pool:
        try:
            report.rows = list(pool.map(_eval_in_worker, range(len(pairs))))
        except concurrent.futures.BrokenExecutor as e:
            raise StateError(f"evaluation worker exited early: {e}") from None
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


class ManifestPairs(Sequence):
    """A manifest's pairs, each regenerated from its seed when indexed.

    The sequence keeps no pair: `pairs[i]` runs `generate_pair` with the
    manifest's echoed settings and returns a new pair, so a caller holds
    only the pairs it keeps references to. Every regenerated pair is
    checked against its stored flow file; a mismatch raises the
    `CheckpointError` that names the file. A seed the generator rejects
    raises its `ArgumentError` at the pair's first use.
    """

    def __init__(self, entries: list[DatasetEntry], grid: tuple[int, int],
                 magnitude: float, size: int):
        self.entries = entries
        self.grid, self.magnitude, self.size = grid, magnitude, size

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> SyntheticPair:
        entry = self.entries[i]
        pair = generate_pair(entry.seed, grid=self.grid,
                             warp_magnitude=self.magnitude, size=self.size)
        if not np.array_equal(load_tensor(entry.flow),
                              pair.gt_flow(self.grid).grid.data):
            raise CheckpointError(
                f"{entry.flow} disagrees with regeneration from seed "
                f"{entry.seed}; manifest echo out of date?")
        return pair


def load_pairs(path) -> ManifestPairs:
    """The manifest's pairs as a read-only sequence that regenerates each
    pair from its seed and the echoed generation settings when indexed.

    The tensor files exist for external consumers; seeds plus the echoed
    settings reproduce them bit-exactly. Each pair is verified against its
    stored flow when it is regenerated, and the first pair once here, so a
    stale echo fails before any work starts. `train` and `evaluate` hold
    one batch (one pair per evaluation worker), never the whole dataset;
    a seed the generator rejects fails at its first use.
    """
    echo, entries = read_manifest(path)
    try:
        grid = (int(echo["data.grid.h"]), int(echo["data.grid.w"]))
        magnitude = float(echo["data.magnitude"])
        size = int(echo["data.size"])
    except KeyError as e:
        raise ArgumentError(f"manifest {path} lacks generation echo {e}") from e
    pairs = ManifestPairs(entries, grid, magnitude, size)
    pairs[0]  # regenerated and verified now, before any work starts
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
