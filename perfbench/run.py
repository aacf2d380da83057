"""Benchmark of catagg: two desk sessions and the command-line flow.

    python3 perfbench/run.py --workload cats-desk --seed 3 --seconds 15 --trace 0

Run from a checkout's root; the package is imported from its `src/`. With
`--trace 0` the run prints the end-to-end metrics, measured with no spans
installed. With `--trace 1` it prints the per-layer metrics: self times and
counts from spans around the package's public functions (see `spans.py`),
a one-step forward/backward/optimizer split, and the tracing overhead.
The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Every run does whole rounds of its workload until `--seconds` have passed;
the README has the inputs, the metric-to-layer map and the bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"

WORKLOADS = ("cats-desk", "catspp-desk", "catspp-cli")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "train_step_ms": "ms",
    "forward_ms": "ms",
    "eval_pairs_per_s": "pairs/s",
    "train_peak_bytes": "bytes",
    "forward_peak_bytes": "bytes",
    "final_loss": "cells",
    "pck_0.1": "fraction",
    "train_s": "s",
    "eval_s": "s",
    "infer_s": "s",
}

# per-layer metrics besides the spans' `.ms` / `.calls`
EXTRA_LAYER = {
    "tensor.matmul.flops": "flop",
    "tensor.out_bytes": "bytes",
    "tensor.meter_peak_bytes": "bytes",
    "volume_ops.conv4d.flops": "flop",
    "pipeline.train.forward_ms": "ms",
    "pipeline.train.backward_ms": "ms",
    "pipeline.train.optimizer_ms": "ms",
    "pipeline.eval_serial_pairs_per_s": "pairs/s",
    "tensor_io.save_tensor.bytes": "bytes",
    "tensor_io.load_tensor.bytes": "bytes",
    "trace.overhead_ms": "ms",
}


def per_layer_units() -> dict:
    import spans
    units = {}
    for name in spans.span_metrics():
        units[name] = "ms" if name.endswith(".ms") else "count"
    units.update(EXTRA_LAYER)
    return units


# ---------------------------------------------------------------------------
# machine fingerprint


def _blas_threads() -> str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs since boot, where the kernel shows them."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def fingerprint() -> str:
    import numpy as np
    from workloads import eval_threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"machine: nproc={eval_threads()} python={sys.version.split()[0]} "
            f"numpy={np.__version__} blas={blas.get('name')} "
            f"{blas.get('version')} blas_threads={_blas_threads()} "
            f"eval_threads={eval_threads()}")


# ---------------------------------------------------------------------------
# running


def cold_setups(workload: str, start: int, work: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes doing the set-up."""
    times = []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload, str(start),
             str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr}")
    return times


def run_rounds(session, seconds: float, samples, tally) -> tuple[list[str], int]:
    """Whole rounds until `seconds` pass; failures, including rounds that differ."""
    first, failures, rounds = None, [], 0
    t0 = time.perf_counter()
    while True:
        out = session.run_round(samples, tally)
        rounds += 1
        failures += out.failures
        if first is None:
            first = out
        elif (out.losses, out.report_rows) != (first.losses, first.report_rows):
            failures.append(f"round {rounds} differs from round 1")
        if time.perf_counter() - t0 >= seconds:
            return failures, rounds


def make_session(workload: str, start: int, work: Path, tracer=None):
    """The workload's session, set up here (traced) when a tracer is given.

    Without one, the command-line workload reuses the datasets of the last
    cold start.
    """
    import workloads as wl
    with tracer or contextlib.nullcontext():
        if workload in wl.DESKS:
            return wl.DeskSession(wl.DESKS[workload], start)
        data = work / f"setup{SETUP_REPEATS - 1}"
        if tracer is not None:
            data = work / "data"
            codes = wl.cli_setup(wl.CLI, start, data)
            if any(codes):
                raise RuntimeError(f"gen-data exited {codes}")
        return wl.CliSession(wl.CLI, data, work)


def _tail(values) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"n={n} median={statistics.median(values):.6g}"
    if n >= 40:
        q = math.floor(100 * (1 - 10 / n))
        text += f" p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return text


def end_to_end(workload, seed, seconds, work, tally) -> tuple[dict, list]:
    import workloads as wl
    start = wl.workload_held_start(workload, seed)
    setups = cold_setups(workload, start, work)
    if workload == "catspp-cli":
        tally.add("cli_command", 2 * SETUP_REPEATS)
    session = make_session(workload, start, work)
    samples = wl.Samples()
    failures, rounds = run_rounds(session, seconds, samples, tally)
    peaks = session.peak_bytes()
    held = session.spec.held
    values = {
        "setup_s": statistics.median(setups),
        "train_step_ms": samples.median("train_step_ms"),
        "forward_ms": samples.median("forward_ms"),
        "eval_pairs_per_s": held / samples.median("eval_pair_s"),
        **peaks,
        "final_loss": samples.median("final_loss"),
        "pck_0.1": samples.median("pck_0.1"),
        "train_s": samples.median("train_s"),
        "eval_s": samples.median("eval_s"),
        "infer_s": samples.median("infer_s"),
    }
    print(f"rounds={rounds} setup_s=[{', '.join(f'{t:.4f}' for t in setups)}]")
    for name in ("train_step_ms", "forward_ms", "eval_pair_s", "train_s",
                 "eval_s", "infer_s"):
        print(f"{name}: {_tail(samples.values[name])}")
    return values, failures


def per_layer(workload, seed, seconds, work, tally) -> tuple[dict, list]:
    import catagg
    import spans
    import workloads as wl
    from catagg import pipeline as pl
    start = wl.workload_held_start(workload, seed)
    setup_tracer = spans.Tracer(catagg)
    session = make_session(workload, start, work, tracer=setup_tracer)
    if workload in wl.DESKS:
        pair, held = session.pool[0], session.held
    else:
        tally.add("cli_command", 2)
        pair = pl.load_pairs(session.train_manifest)[0]
        held = pl.load_pairs(session.held_manifest)
    split = wl.decompose_step(session.build, pair)
    failures = split.pop("failures")
    model, _ = session.build()
    t0 = time.perf_counter()
    pl.evaluate(model, held, threads=1)
    split["pipeline.eval_serial_pairs_per_s"] = len(held) / (time.perf_counter() - t0)
    overhead_ms = wl.tracing_overhead_ms(session.build, pair, spans.Tracer(catagg))

    tracer = spans.Tracer(catagg)
    samples = wl.Samples()
    with tracer:
        round_failures, rounds = run_rounds(session, seconds, samples, tally)
    failures += round_failures
    print(f"traced rounds={rounds}")

    setup_totals, totals = setup_tracer.totals(), tracer.totals()
    values = {}
    for name in per_layer_units():
        values[name] = setup_totals.get(name, 0) + totals.get(name, 0) / rounds
    values.update(split)
    values["trace.overhead_ms"] = overhead_ms
    return values, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "catagg" / "__init__.py").is_file():
        print(f"error: no catagg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    print(fingerprint())
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP))
    tally = wl.Tally()
    ticks = cpu_ticks()
    try:
        measure = per_layer if args.trace else end_to_end
        values, failures = measure(args.workload, args.seed, args.seconds,
                                   work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            TMP.rmdir()  # only if no other run is using it
        except OSError:
            pass

    end = cpu_ticks()
    if ticks and end and end[1] > ticks[1]:
        # time the hypervisor gave to other guests: the main source of noise
        # on a shared host
        print(f"host: cpu steal {100 * (end[0] - ticks[0]) / (end[1] - ticks[1]):.1f}%"
              f" during this run")
    units = per_layer_units() if args.trace else END_TO_END
    print("ops: " + " ".join(f"{k}={a}/{f}" for k, (a, f)
                             in sorted(tally.counts.items())) + " (attempted/failed)")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
