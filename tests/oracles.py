"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops against the
textbook formulas, sharing no code with the library paths it checks.
"""

from __future__ import annotations

import math

import numpy as np


def naive_mha(x, wq, wk, wv, wo, bq, bk, bv, bo, heads):
    """Per-sample, per-head loop implementation of scaled-dot attention."""
    bsz, n, d = x.shape
    dh = d // heads
    out = np.zeros((bsz, n, d))
    for i in range(bsz):
        q = x[i] @ wq + bq
        k = x[i] @ wk + bk
        v = x[i] @ wv + bv
        o_cat = np.zeros((n, d))
        for m in range(heads):
            sl = slice(m * dh, (m + 1) * dh)
            qm, km, vm = q[:, sl], k[:, sl], v[:, sl]
            scores = qm @ km.T / math.sqrt(dh)
            a = np.zeros_like(scores)
            for r in range(n):
                row = scores[r] - scores[r].max()
                e = np.exp(row)
                a[r] = e / e.sum()
            o_cat[:, sl] = a @ vm
        out[i] = o_cat @ wo + bo
    return out


def jacobi_min_singular(a, sweeps: int = 60) -> float:
    """Smallest singular value via Jacobi eigen-sweeps on the Gram matrix."""
    a = np.asarray(a, dtype=np.float64)
    g = a.T @ a if a.shape[1] <= a.shape[0] else a @ a.T
    g = g.copy()
    n = g.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(g[p, q]))
                if abs(g[p, q]) < 1e-300:
                    continue
                theta = 0.5 * math.atan2(2.0 * g[p, q], g[q, q] - g[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                g = rot.T @ g @ rot
        if off < 1e-14:
            break
    eig_min = min(max(float(v), 0.0) for v in np.diag(g))
    return math.sqrt(eig_min)


def ssim_direct(img1, img2, window=7, k1=0.01, k2=0.03, dynamic_range=1.0) -> float:
    """Window-by-window SSIM straight from the definition."""
    img1 = np.asarray(img1, dtype=np.float64)
    img2 = np.asarray(img2, dtype=np.float64)
    c1 = (k1 * dynamic_range) ** 2
    c2 = (k2 * dynamic_range) ** 2
    h, w = img1.shape
    vals = []
    for y in range(h - window + 1):
        for x in range(w - window + 1):
            p = img1[y:y + window, x:x + window].ravel()
            t = img2[y:y + window, x:x + window].ravel()
            mp, mt = p.mean(), t.mean()
            vp = ((p - mp) ** 2).mean()
            vt = ((t - mt) ** 2).mean()
            cov = ((p - mp) * (t - mt)).mean()
            vals.append(
                ((2 * mp * mt + c1) * (2 * cov + c2))
                / ((mp**2 + mt**2 + c1) * (vp + vt + c2))
            )
    return float(np.mean(vals))


def two_pass_total_variance(samples) -> float:
    """Population total variance with explicit two-pass accumulation."""
    samples = [np.asarray(s, dtype=np.float64).ravel() for s in samples]
    n = len(samples)
    mean = sum(samples) / n
    return float(math.fsum(float(np.sum((s - mean) ** 2)) for s in samples) / n)


def naive_conv2d(x, kernel, bias, stride):
    """3x3 pad-1 convolution, one output value at a time.

    x is (B, Cin, H, W), kernel (Cout, Cin, 3, 3), bias (Cout,).
    """
    bsz, cin, h, w = x.shape
    cout = kernel.shape[0]
    padded = np.zeros((bsz, cin, h + 2, w + 2))
    padded[:, :, 1:h + 1, 1:w + 1] = x
    ho = (h - 1) // stride + 1
    wo = (w - 1) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for b in range(bsz):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = bias[co]
                    for ci in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                acc += kernel[co, ci, ky, kx] * padded[b, ci, oy * stride + ky, ox * stride + kx]
                    out[b, co, oy, ox] = acc
    return out


def naive_conv2d_param_grads(x, grad_out, stride):
    """(grad_kernel, grad_bias) of naive_conv2d for upstream grad_out."""
    bsz, cin, h, w = x.shape
    _, cout, ho, wo = grad_out.shape
    padded = np.zeros((bsz, cin, h + 2, w + 2))
    padded[:, :, 1:h + 1, 1:w + 1] = x
    grad_kernel = np.zeros((cout, cin, 3, 3))
    grad_bias = np.zeros(cout)
    for b in range(bsz):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    g = grad_out[b, co, oy, ox]
                    grad_bias[co] += g
                    for ci in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                grad_kernel[co, ci, ky, kx] += g * padded[b, ci, oy * stride + ky, ox * stride + kx]
    return grad_kernel, grad_bias


def naive_contingency(pred, truth, thr):
    """Per-frame (hits, false alarms, misses, correct negatives), pixel by pixel.

    pred and truth are (frames, H, W); a pixel is an event when its value
    times 255 is at or above thr.
    """
    tables = []
    for frame_p, frame_t in zip(pred, truth):
        hits = false_alarms = misses = correct_negatives = 0
        for row_p, row_t in zip(frame_p, frame_t):
            for vp, vt in zip(row_p, row_t):
                event_p = float(vp) * 255.0 >= thr
                event_t = float(vt) * 255.0 >= thr
                if event_p and event_t:
                    hits += 1
                elif event_p:
                    false_alarms += 1
                elif event_t:
                    misses += 1
                else:
                    correct_negatives += 1
        tables.append((hits, false_alarms, misses, correct_negatives))
    return tables


def naive_max_pool(frames, pool):
    """Non-overlapping pool x pool maximum of each (H, W) frame, cell by cell."""
    n, h, w = frames.shape
    out = np.zeros((n, h // pool, w // pool))
    for k in range(n):
        for i in range(h // pool):
            for j in range(w // pool):
                best = frames[k, i * pool, j * pool]
                for di in range(pool):
                    for dj in range(pool):
                        best = max(best, frames[k, i * pool + di, j * pool + dj])
                out[k, i, j] = best
    return out
