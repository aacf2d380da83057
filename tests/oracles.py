"""Slow reference implementations used to verify the fast paths."""

import numpy as np


def conv4d_oracle(x: np.ndarray, k: np.ndarray, stride=(1, 1, 1, 1)) -> np.ndarray:
    """Direct 8-loop 4D cross-correlation with zero same-padding (f64)."""
    x = x.astype(np.float64)
    k = k.astype(np.float64)
    ns = x.shape[:4]
    ks = k.shape[:4]
    cout = k.shape[5]
    outs, pads = [], []
    for n, kk, s in zip(ns, ks, stride):
        o = -(-n // s)
        total = max((o - 1) * s + kk - n, 0)
        outs.append(o)
        pads.append(total // 2)
    out = np.zeros((*outs, cout))
    for i1 in range(outs[0]):
        for i2 in range(outs[1]):
            for i3 in range(outs[2]):
                for i4 in range(outs[3]):
                    acc = np.zeros(cout)
                    for o1 in range(ks[0]):
                        p1 = i1 * stride[0] + o1 - pads[0]
                        if not 0 <= p1 < ns[0]:
                            continue
                        for o2 in range(ks[1]):
                            p2 = i2 * stride[1] + o2 - pads[1]
                            if not 0 <= p2 < ns[1]:
                                continue
                            for o3 in range(ks[2]):
                                p3 = i3 * stride[2] + o3 - pads[2]
                                if not 0 <= p3 < ns[2]:
                                    continue
                                for o4 in range(ks[3]):
                                    p4 = i4 * stride[3] + o4 - pads[3]
                                    if not 0 <= p4 < ns[3]:
                                        continue
                                    acc += x[p1, p2, p3, p4] @ k[o1, o2, o3, o4]
                    out[i1, i2, i3, i4] = acc
    return out


def conv4d_vjp_oracle(x: np.ndarray, k: np.ndarray, g: np.ndarray,
                      stride=(1, 1, 1, 1)) -> tuple[np.ndarray, np.ndarray]:
    """(dx, dk) of sum(conv4d(x, k, stride) * g) by direct loops (f64):
    every output position and kernel tap that reads an in-volume input
    adds its outer product to dk and its k[tap] @ g to dx."""
    x = x.astype(np.float64)
    k = k.astype(np.float64)
    g = g.astype(np.float64)
    ns, ks, outs = x.shape[:4], k.shape[:4], g.shape[:4]
    pads = [max((o - 1) * s + kk - n, 0) // 2
            for n, kk, s, o in zip(ns, ks, stride, outs)]
    dx = np.zeros_like(x)
    dk = np.zeros_like(k)
    for i in np.ndindex(*outs):
        for t in np.ndindex(*ks):
            p = tuple(ii * s + tt - pp for ii, s, tt, pp in zip(i, stride, t, pads))
            if all(0 <= pj < n for pj, n in zip(p, ns)):
                dk[t] += np.outer(x[p], g[i])
                dx[p] += k[t] @ g[i]
    return dx, dk


def bilinear2d_oracle(img: np.ndarray, out_hw) -> np.ndarray:
    """Per-pixel half-pixel-center bilinear resize of an [h, w, ...] array."""
    h_in, w_in = img.shape[:2]
    h, w = out_hw
    out = np.zeros((h, w) + img.shape[2:])
    for i in range(h):
        for j in range(w):
            sy = min(max((i + 0.5) * h_in / h - 0.5, 0.0), h_in - 1.0)
            sx = min(max((j + 0.5) * w_in / w - 0.5, 0.0), w_in - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h_in - 1), min(x0 + 1, w_in - 1)
            ty, tx = sy - y0, sx - x0
            out[i, j] = (
                img[y0, x0] * (1 - ty) * (1 - tx)
                + img[y0, x1] * (1 - ty) * tx
                + img[y1, x0] * ty * (1 - tx)
                + img[y1, x1] * ty * tx
            )
    return out


def cosine_corr_oracle(ds: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Pairwise ReLU(cosine) between spatial vectors of two [h,w,c] maps (f64)."""
    a = ds.astype(np.float64).reshape(-1, ds.shape[-1])
    b = dt.astype(np.float64).reshape(-1, dt.shape[-1])
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        na = np.linalg.norm(a[i])
        for j in range(b.shape[0]):
            nb = np.linalg.norm(b[j])
            if na == 0.0 or nb == 0.0:
                continue
            out[i, j] = max(float(a[i] @ b[j]) / (na * nb), 0.0)
    return out


def attention_oracle(x: np.ndarray, wq, bq, wk, bk, wv, bv, n_heads: int) -> np.ndarray:
    """Multi-head scaled dot-product self-attention over [tokens, feat] (f64)."""
    x = x.astype(np.float64)
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    t, d = q.shape
    dh = d // n_heads
    out = np.zeros_like(q)
    for h in range(n_heads):
        qs = q[:, h * dh : (h + 1) * dh]
        ks = k[:, h * dh : (h + 1) * dh]
        vs = v[:, h * dh : (h + 1) * dh]
        logits = qs @ ks.T / np.sqrt(dh)
        logits -= logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        att = e / e.sum(axis=-1, keepdims=True)
        out[:, h * dh : (h + 1) * dh] = att @ vs
    return out


def softargmax_flow_oracle(corr: np.ndarray, h: int, w: int, beta: float) -> np.ndarray:
    """Per-row expected displacement on an h*w grid from an [hw, hw] map (f64)."""
    hw = h * w
    flow = np.zeros((hw, 2))
    gy, gx = np.divmod(np.arange(hw), w)
    for i in range(hw):
        logits = beta * corr[i].astype(np.float64)
        logits -= logits.max()
        p = np.exp(logits)
        p /= p.sum()
        ey = float(p @ gy)
        ex = float(p @ gx)
        flow[i] = (ex - gx[i], ey - gy[i])
    return flow
