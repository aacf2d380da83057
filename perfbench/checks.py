"""Output checks, recomputed in plain numpy apart from the package.

Nothing here imports `catagg`: ground-truth flow comes from a pair's 2x3
affine `warp`, keypoints are moved with this file's own bilinear transfer,
`.catt` files are read with this file's own parser, and evaluation reports
are parsed from their text. Each check returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import struct

import numpy as np

AEPE_TOL = 1e-9   # cells; the package computes the same sum in f64
PCK_TOL = 1e-12   # a fraction of 25 points either matches or is off by 0.04
KEYPOINT_TOL = 1e-9  # pixels, infer's keypoint file vs this transfer


def read_catt(path) -> np.ndarray:
    """`CATT` tensor file: magic, u8 dtype tag, u8 rank, u32 extents, data."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"CATT":
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    tag, rank = raw[4], raw[5]
    dtype = {0: "<f4", 1: "<f8"}[tag]
    shape = struct.unpack_from(f"<{rank}I", raw, 6)
    offset = 6 + 4 * rank
    n = int(np.prod(shape)) if rank else 1
    if len(raw) != offset + n * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: size does not match shape {shape}")
    data = np.frombuffer(raw, dtype=dtype, count=n, offset=offset)
    return data.reshape(shape).astype(np.float64)


def read_keypoint_file(path) -> np.ndarray:
    """Header `H W`, then one `x y` line per point."""
    with open(path) as fh:
        lines = [ln.split() for ln in fh if ln.strip()]
    return np.array([[float(x), float(y)] for x, y in lines[1:]])


def lattice(size: int, n: int = 5) -> np.ndarray:
    """n x n interior pixel lattice, (x, y) rows, like the evaluation's."""
    ticks = (np.arange(1, n + 1) / (n + 1)) * size
    return np.array([(x, y) for y in ticks for x in ticks])


def gt_flow(warp: np.ndarray, size: int, grid: tuple[int, int]) -> np.ndarray:
    """Affine displacement at grid cell centers, in cells, (dx, dy) last."""
    h, w = grid
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    px = (xs + 0.5) * size / w
    py = (ys + 0.5) * size / h
    mx = warp[0, 0] * px + warp[0, 1] * py + warp[0, 2]
    my = warp[1, 0] * px + warp[1, 1] * py + warp[1, 2]
    return np.stack([(mx - px) * w / size, (my - py) * h / size], axis=-1)


def transfer(flow: np.ndarray, pts: np.ndarray, size: int) -> np.ndarray:
    """Move pixel points through a [h, w, 2] cell flow, clamped bilinear."""
    h, w = flow.shape[:2]
    gx = pts[:, 0] * w / size - 0.5
    gy = pts[:, 1] * h / size - 0.5
    cx, cy = np.clip(gx, 0.0, w - 1.0), np.clip(gy, 0.0, h - 1.0)
    x0 = np.clip(np.floor(cx).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(cy).astype(int), 0, h - 1)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (cx - x0)[:, None], (cy - y0)[:, None]
    top = flow[y0, x0] * (1 - fx) + flow[y0, x1] * fx
    bot = flow[y1, x0] * (1 - fx) + flow[y1, x1] * fx
    d = top * (1 - fy) + bot * fy
    px = (gx + d[:, 0] + 0.5) * size / w
    py = (gy + d[:, 1] + 0.5) * size / h
    eps = 1e-6
    return np.stack([np.clip(px, 0, size - eps), np.clip(py, 0, size - eps)],
                    axis=1)


def pair_metrics(pred: np.ndarray, gt: np.ndarray, size: int,
                 alphas) -> tuple[float, dict[float, float]]:
    """AEPE in cells and PCK at each alpha (threshold alpha * image size)."""
    aepe = float(np.sqrt(((pred - gt) ** 2).sum(-1)).mean())
    pts = lattice(size)
    dist = np.sqrt(((transfer(pred, pts, size) - transfer(gt, pts, size)) ** 2)
                   .sum(-1))
    return aepe, {a: float((dist <= a * size).mean()) for a in alphas}


# ---- reports ---------------------------------------------------------------


def parse_report(text: str) -> tuple[list[dict], dict | None]:
    """Rows and summary of an evaluation report, as {key: float} dicts."""
    rows, summary = [], None
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        toks = ln.split()
        fields = {k: float(v) for k, v in
                  (t.split("=", 1) for t in toks if "=" in t)}
        if toks[0] == "summary":
            summary = fields
        else:
            rows.append(fields)
    return rows, summary


def row_fields(row) -> dict:
    """An in-memory report row (`PairResult`) in the parsed-text form."""
    out = {"pair": float(row.pair_id), "aepe": row.aepe}
    out.update({f"pck@{a:g}": v for a, v in row.pck.items()})
    out.update({f"wta_pck@{a:g}": v for a, v in row.wta_pck.items()})
    return out


def check_rows(rows: list[dict], expected: list[tuple[float, dict]],
               where: str) -> list[str]:
    """Each row's AEPE and PCK against an independent recomputation."""
    if len(rows) != len(expected):
        return [f"{where}: {len(rows)} report rows for {len(expected)} pairs"]
    bad = []
    for i, (row, (aepe, pcks)) in enumerate(zip(rows, expected)):
        if not abs(row["aepe"] - aepe) <= AEPE_TOL:
            bad.append(f"{where} pair {i}: aepe {row['aepe']!r} vs "
                       f"recomputed {aepe!r}")
        for a, v in pcks.items():
            got = row[f"pck@{a:g}"]
            if not abs(got - v) <= PCK_TOL:
                bad.append(f"{where} pair {i}: pck@{a:g} {got!r} vs "
                           f"recomputed {v!r}")
    return bad


def check_summary(rows: list[dict], summary: dict | None, alphas,
                  where: str) -> list[str]:
    """The summary line is the mean of the rows."""
    if summary is None:
        return [f"{where}: no summary line"]
    bad = []
    keys = ["aepe"] + [f"{c}@{a:g}" for c in ("pck", "wta_pck") for a in alphas]
    for k in keys:
        mean = float(np.mean([r[k] for r in rows]))
        if not abs(summary[k] - mean) <= AEPE_TOL:
            bad.append(f"{where}: summary {k} {summary[k]!r} vs row mean {mean!r}")
    if summary.get("pairs") != len(rows):
        bad.append(f"{where}: summary pairs {summary.get('pairs')} vs {len(rows)}")
    return bad


def check_monotone(rows: list[dict], alphas, where: str) -> list[str]:
    """PCK never falls as alpha grows, for the model and the WTA baseline."""
    order = sorted(alphas)
    bad = []
    for i, row in enumerate(rows):
        for col in ("pck", "wta_pck"):
            vals = [row[f"{col}@{a:g}"] for a in order]
            if vals != sorted(vals):
                bad.append(f"{where} pair {i}: {col} falls with alpha: {vals}")
    return bad


def check_same_rows(threaded: list[dict], serial: list[dict],
                    where: str) -> list[str]:
    """Threaded and serial evaluation agree bitwise, row by row."""
    if len(threaded) != len(serial):
        return [f"{where}: {len(threaded)} threaded rows vs {len(serial)} serial"]
    return [f"{where} pair {i}: threaded {a} != serial {b}"
            for i, (a, b) in enumerate(zip(threaded, serial)) if a != b]


def check_losses(losses: list[float], window: int, where: str) -> list[str]:
    """Finite losses, and the last `window` steps average below the first."""
    bad = [f"{where}: step {i} loss {v!r} not finite"
           for i, v in enumerate(losses) if not np.isfinite(v)]
    if bad:
        return bad
    if len(losses) < 2 * window:
        return [f"{where}: {len(losses)} losses, need {2 * window}"]
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    if not last < first:
        bad.append(f"{where}: final loss {last!r} not below first {first!r}")
    return bad
