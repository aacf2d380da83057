"""Command-line entry point.

Subcommands: gen-data, train, eval, infer, gradcheck, bench. Exit codes:
0 success; 2 usage error (one `usage error:` line, bad flags included); 1
for a failing gradcheck, any other `CatAggError` (`error:`), an `OSError`
(`i/o error:`) or a `MemoryError`. Every artifact
a command writes carries the fully resolved config as `# key = value`
header lines (or inside checkpoint metadata).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import pipeline as pl
from . import tensor as tt
from .bench import compare_blocks, param_table, time_model
from .config import RunConfig
from .errors import CatAggError, CheckpointError, ConfigError, UsageError
from .flow import read_keypoints, transfer_keypoints, write_keypoints
from .gradcheck import CHECKS, run_all
from .synth import generate_pair
from .tensor import Tensor
from .tensor_io import atomic_write, load_tensor, save_tensor

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Raises a bad argument as a `UsageError`, which prints one line."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="catagg",
        description="cost-aggregation matching models on synthetic pairs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None,
                       help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key")

    g = sub.add_parser("gen-data", help="write a synthetic pair dataset")
    common(g)
    g.add_argument("--out", required=True)
    g.add_argument("--pairs", type=int, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--warp-magnitude", type=float, default=None)

    t = sub.add_parser("train", help="train a model on a dataset")
    common(t)
    t.add_argument("--data", required=True, help="dataset manifest")
    t.add_argument("--out", required=True, help="checkpoint to write")
    t.add_argument("--resume", default=None, help="checkpoint to continue")

    e = sub.add_parser("eval", help="score a checkpoint on a dataset")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--report", required=True, help="report file to write")
    e.add_argument("--threads", type=int, default=None)

    i = sub.add_parser("infer", help="write predicted flow for every pair")
    common(i)
    i.add_argument("--data", required=True)
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--out", required=True, help="output directory")
    i.add_argument("--keypoints", default=None,
                   help="keypoint file to transfer through each flow")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    common(gc)
    gc.add_argument("--ops", default="all", help="all or one op name")
    gc.add_argument("--dtype", default="f64", choices=["f64"],
                    help="checks always run in f64")
    gc.add_argument("--seeds", type=int, default=5)

    b = sub.add_parser("bench", help="parameter, memory, and timing report")
    common(b)
    b.add_argument("--model", default=None, choices=["cats", "catspp"],
                   help="overrides the config's model key")
    return ap


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config, args.set)
    if getattr(args, "model", None):
        cfg.set("model", args.model)
    if getattr(args, "threads", None) is not None:
        cfg.set("threads", args.threads)
    elif os.environ.get("CATAGG_THREADS"):
        cfg.set("threads", os.environ["CATAGG_THREADS"])
    if getattr(args, "seed", None) is not None:
        cfg.set("seed", args.seed)
    if getattr(args, "pairs", None) is not None:
        cfg.set("data.pairs", args.pairs)
    if getattr(args, "warp_magnitude", None) is not None:
        cfg.set("data.magnitude", args.warp_magnitude)
    return cfg


def _require_file(path, what: str):
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")


def _build(cfg: RunConfig, checkpoint_path=None):
    """The model, optimizer and RNG, restored from a checkpoint if given.

    The config's grid must be the model's flow grid: `catspp` derives its
    grid from the image size and embed stride, so a `grid.*` that differs
    would be echoed into the outputs without having run.
    """
    if checkpoint_path is not None:
        _require_file(checkpoint_path, "checkpoint")
    model = cfg.build_model()
    if cfg.grid() != model.flow_grid:
        raise UsageError(
            f"grid.h x grid.w is {cfg.grid()}, but the {cfg['model']} model's "
            f"flow grid is {model.flow_grid}")
    opt = pl.make_optimizer(model, cfg.train_config())
    rng = np.random.default_rng(cfg["seed"])
    if checkpoint_path is not None:
        meta = pl.load_checkpoint(checkpoint_path, model.store, opt, rng)
        if meta.get("kind") != cfg["model"]:
            raise CheckpointError(
                f"checkpoint holds a {meta.get('kind')} model but the config "
                f"selects {cfg['model']}")
    return model, opt, rng


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    manifest = pl.write_dataset(
        args.out, n_pairs=cfg["data.pairs"], seed=cfg["seed"],
        grid=cfg.grid(), warp_magnitude=cfg["data.magnitude"],
        size=cfg["data.size"], config_echo=cfg.echo())
    print(f"wrote {cfg['data.pairs']} pairs to {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _require_file(args.data, "dataset manifest")
    pairs = pl.load_pairs(args.data)
    model, opt, rng = _build(cfg, args.resume)
    if args.resume:
        print(f"resumed {cfg['model']} checkpoint at step {opt.step_count}")
    stop = cfg["train.stop_below"] or None
    losses = pl.train(model, opt, pairs, cfg.train_config(), rng,
                      stop_below=stop, log=print)
    pl.save_checkpoint(args.out, cfg["model"], model.store, opt, rng,
                       cfg.echo())
    last = losses[-1] if losses else float("nan")
    print(f"trained to step {opt.step_count}; final loss {last:.4f}; "
          f"checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    alphas = cfg.alphas()
    _require_file(args.data, "dataset manifest")
    model = _build(cfg, args.checkpoint)[0]
    pairs = pl.load_pairs(args.data)
    report = pl.evaluate(model, pairs, alphas=alphas, threads=cfg["threads"])
    text = report.to_text(cfg.echo())
    with atomic_write(args.report, "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    _require_file(args.data, "dataset manifest")
    model = _build(cfg, args.checkpoint)[0]
    _, entries = pl.read_manifest(args.data)
    kps = read_keypoints(args.keypoints) if args.keypoints else None
    os.makedirs(args.out, exist_ok=True)
    lines = [f"# {k} = {v}" for k, v in cfg.echo().items()]
    for i, entry in enumerate(entries):
        src = Tensor(load_tensor(entry.src))
        tgt = Tensor(load_tensor(entry.tgt))
        with tt.no_grad():
            pred = model.flow(src, tgt)
        flow_name = f"pred_flow_{i:04d}.catt"
        save_tensor(os.path.join(args.out, flow_name),
                    pred.grid.data.astype(np.float64))
        row = f"pair={i} flow={flow_name}"
        if kps is not None:
            moved = transfer_keypoints(pred, kps)
            kp_name = f"pred_kp_{i:04d}.txt"
            write_keypoints(os.path.join(args.out, kp_name), moved)
            row += f" kps={kp_name}"
        lines.append(row)
    out_manifest = os.path.join(args.out, "infer_manifest.txt")
    with atomic_write(out_manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(entries)} flow fields to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    if args.ops != "all" and args.ops not in CHECKS:
        raise UsageError(
            f"unknown op '{args.ops}'; choose from all, "
            + ", ".join(sorted(CHECKS)))
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    rows = run_all(args.ops, seeds=args.seeds)
    width = max(len(name) for name, _, _ in rows)
    failed = False
    for name, err, ok in rows:
        print(f"{name:<{width}}  {err:12.3e}  {'pass' if ok else 'FAIL'}")
        failed |= not ok
    print(f"{'all ops' if args.ops == 'all' else args.ops}: "
          f"{'FAIL' if failed else 'pass'} ({len(rows)} checks)")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    model = cfg.build_model()
    for k, v in cfg.echo().items():
        print(f"# {k} = {v}")
    for name, count in param_table(model.store).items():
        print(f"param.{name} = {count}")
    if cfg["model"] == "catspp":
        for q in cfg.layers():
            row = compare_blocks(model, q)
            print(f"q{q}.tokens = {row['tokens']}")
            print(f"q{q}.feat = {row['feat']}")
            print(f"q{q}.efficient.params = {row['efficient.params']}")
            print(f"q{q}.standard.params = {row['standard.params']}")
            print(f"q{q}.param_ratio = {row['ratio']:.4f}")
            print(f"q{q}.efficient.peak_bytes = {row['efficient.peak_bytes']}")
            print(f"q{q}.standard.peak_bytes = {row['standard.peak_bytes']}")
    pair = generate_pair(cfg["seed"], grid=cfg.grid(),
                         warp_magnitude=cfg["data.magnitude"],
                         size=cfg["data.size"])
    times = time_model(model, pair)
    print(f"forward_ms = {times['forward_ms']:.1f}")
    print(f"forward_backward_ms = {times['forward_backward_ms']:.1f}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:  # -h prints the help and exits
            return int(e.code) if e.code else 0
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CatAggError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
