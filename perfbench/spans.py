"""Spans around the package's public functions, installed from outside.

`Tracer.install()` rebinds each traced function, wherever a `catagg` module
or class holds it, to a wrapper that records a span: wall time, call count,
and the time covered by child spans, so every figure is self time. Spans
nest per thread (threaded evaluation gets one stack per worker) and are
summed over all threads. Computed counters ride along: matmul and conv4d
flops from operand shapes, bytes returned by tensor ops, and bytes moved by
`tensor_io`. `uninstall()` restores every original binding.

Nothing here imports `catagg` at module load; `Tracer` takes the imported
package so the benchmark decides where it comes from.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from math import prod

# Functions timed as spans, by module; each reports `<module>.<name>.ms` and
# `.calls`. Methods are given as "Class.method".
SPANS = {
    "tensor": ["matmul", "gelu", "softmax", "layer_norm", "concat",
               "transpose", "reshape", "backward"],
    "volume_ops": ["conv4d", "upsample4d_bilinear", "resize_bilinear2d"],
    "model": ["ToyBackbone.forward", "CatsModel.wta", "CatsPPModel.wta"],
    "correlation": ["build_stack", "build_hypercorrelation"],
    "cats": ["CatsAggregator.aggregate", "CatsAggregator.transform"],
    "catspp": ["CatsPPAggregator.aggregate", "CatsPPAggregator.conv_embed",
               "CatsPPAggregator.efficient_block",
               "CatsPPAggregator.volumetric_ffn"],
    "flow": ["soft_argmax_flow", "aepe", "transfer_keypoints", "pck"],
    "optim": ["AdamW.step"],
    "pipeline": ["write_dataset", "load_pairs", "save_checkpoint",
                 "load_checkpoint"],
    "synth": ["generate_pair"],
    "tensor_io": ["save_tensor", "load_tensor", "save_bundle", "load_bundle"],
}

# Metric names for spans whose method name alone would be unclear.
_RENAME = {
    "model.ToyBackbone.forward": "model.backbone",
    "model.CatsModel.wta": "model.wta",
    "model.CatsPPModel.wta": "model.wta",
}

# Tensor ops whose returned bytes count toward `tensor.out_bytes`. The
# composites `linear` and `tmean` return another op's output, so they are
# left out to avoid counting one buffer twice.
COUNTED_OPS = ["add", "sub", "mul", "scale", "reshape", "transpose", "concat",
               "tsum", "matmul", "softmax", "relu", "gelu", "layer_norm",
               "l2norm_last", "l2_normalize_last"]


def _matmul_flops(args, out) -> int:
    return 2 * out.data.size * args[0].shape[-1]


def _conv4d_flops(args, out) -> int:
    kernel = args[1]
    return 2 * out.data.size * kernel.shape[4] * prod(kernel.shape[:4])


def _saved_bytes(args, out) -> int:
    return args[1].nbytes


def _loaded_bytes(args, out) -> int:
    return out.nbytes


# span metric -> (counter metric, function of (args, result))
_COUNTERS = {
    "tensor.matmul": ("tensor.matmul.flops", _matmul_flops),
    "volume_ops.conv4d": ("volume_ops.conv4d.flops", _conv4d_flops),
    "tensor_io.save_tensor": ("tensor_io.save_tensor.bytes", _saved_bytes),
    "tensor_io.load_tensor": ("tensor_io.load_tensor.bytes", _loaded_bytes),
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []      # [start, child_seconds] per open span
        self.totals = None   # this thread's dict, registered on first use


class Tracer:
    """Self-time spans and computed counters over `catagg`'s public calls."""

    def __init__(self, catagg):
        self._pkg = catagg
        self._lock = threading.Lock()
        self._per_thread: list[dict] = []
        self._local = _ThreadState()
        self._undo: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def _totals(self) -> dict:
        t = self._local.totals
        if t is None:
            t = self._local.totals = {}
            with self._lock:
                self._per_thread.append(t)
        return t

    def _add(self, key: str, value):
        t = self._totals()
        t[key] = t.get(key, 0) + value

    def _span(self, metric: str, fn, counter=None, count_bytes=False):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._local.stack
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[0]
                if stack:
                    stack[-1][1] += elapsed
                tracer._add(metric + ".ms", (elapsed - frame[1]) * 1e3)
                tracer._add(metric + ".calls", 1)
            if counter is not None:
                tracer._add(counter[0], counter[1](args, out))
            if count_bytes:
                tracer._add("tensor.out_bytes", out.data.nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer._add("tensor.out_bytes", out.data.nbytes)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ----------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every `catagg` module global naming `original` at `replacement`."""
        pkg = self._pkg.__name__
        for name, mod in list(sys.modules.items()):
            if name != pkg and not name.startswith(pkg + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        counted = set(COUNTED_OPS)
        for module, quals in SPANS.items():
            mod = importlib.import_module(f"{self._pkg.__name__}.{module}")
            for qualname in quals:
                metric = metric_name(module, qualname)
                counter = _COUNTERS.get(metric)
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    original = vars(cls)[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._span(metric, original, counter))
                    continue
                is_op = module == "tensor" and qualname in counted
                if is_op:
                    counted.discard(qualname)
                original = getattr(mod, qualname)
                self._rebind(original, self._span(metric, original, counter,
                                                  count_bytes=is_op))
        tensor = importlib.import_module(f"{self._pkg.__name__}.tensor")
        for name in sorted(counted):
            original = getattr(tensor, name)
            self._rebind(original, self._counting(original))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- results ---------------------------------------------------------

    def totals(self) -> dict:
        """Summed over threads: `<span>.ms` self time, `.calls`, counters."""
        out: dict = {}
        with self._lock:
            for t in self._per_thread:
                for k, v in t.items():
                    out[k] = out.get(k, 0) + v
        return out


def metric_name(module: str, qualname: str) -> str:
    """`tensor.matmul`, `cats.transform`, `model.backbone`, ..."""
    full = f"{module}.{qualname}"
    if full in _RENAME:
        return _RENAME[full]
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def span_metrics() -> list[str]:
    """Every `.ms` / `.calls` metric name the spans can produce, in order."""
    names = []
    for module, quals in SPANS.items():
        for q in quals:
            m = metric_name(module, q)
            if m + ".ms" not in names:
                names += [m + ".ms", m + ".calls"]
    return names
