"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops against the
textbook formulas, sharing no code with the library paths it checks.

The bitwise references at the end are the other kind of oracle: the plain
out-of-place, unblocked array expressions that the bound suite and the
normal draws were first written as.  The library computes the same
operations in a faster order of passes, so tests require bit-equal results,
and a NumPy release that changes a reduction's summation order fails a
named test instead of silently changing the verification report.  The
hand-written denoiser (every stage spelled out) pins the stage-table
denoiser the same way, the padded-window convolution pins the flat
polyphase convolution, and the frame-by-frame renderer pins the
whole-stack event renderer.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from harecast.attention import init_attention, mha_backward, mha_forward, sigma_min
from harecast.bounds import EXACT_EPS, BoundReport, TheoremResult
from harecast.nowcast.convnet import (
    conv2d_backward,
    conv2d_forward,
    conv_init,
    tanh_backward,
    time_embedding,
    upsample2_backward,
    upsample2_forward,
)
from harecast.nowcast.model import block_params
from harecast.synthdata import SAT_BLUR_SIGMA, SAT_OFFSET


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


def unpatchify(tokens, t, h, w, patch):
    """(B, T*(H/P)*(W/P), P*P) tokens back to (B, T, H, W) frames: the inverse of patchify."""
    b = tokens.shape[0]
    gy, gx = h // patch, w // patch
    out = tokens.reshape(b, t, gy, gx, patch, patch).transpose(0, 1, 2, 4, 3, 5)
    return out.reshape(b, t, h, w)


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


# ---------------------------------------------------------------------------
# Bitwise references for the bound suite and its normal draws.
# ---------------------------------------------------------------------------


def reference_softmax_rows(a):
    """Row softmax as NumPy's own max and sum over the last axis."""
    shifted = a - np.max(a, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def reference_mha_forward(x, params, heads):
    """Multi-head attention with 3-D (B, N, d) @ (d, d) projections.

    Returns (y, q, k, a, v, o), the head tensors split (B, M, N, d_h).
    """
    b, n, d = x.shape
    dh = d // heads

    def split(t):
        return t.reshape(b, n, heads, dh).transpose(0, 2, 1, 3)

    q, k, v = (split(x @ params["w" + c] + params["b" + c]) for c in "qkv")
    a = reference_softmax_rows(np.matmul(q, k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)))
    o = np.matmul(a, v)
    y = o.transpose(0, 2, 1, 3).reshape(b, n, d) @ params["wo"] + params["bo"]
    return y, q, k, a, v, o


def box_muller_normal(uniform, shape):
    """Out-of-place Box-Muller over uniform((2, pairs)) draws.

    uniform is a callable returning [0, 1) draws of a given shape, such as
    SeededRng.uniform, so the reference consumes the same stream.
    """
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    u = uniform((2, pairs))
    r = np.sqrt(-2.0 * np.log(1.0 - u[0]))
    theta = 2.0 * math.pi * u[1]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:n].reshape(shape)


def sweep_statistics(y, yhat):
    """Per-trial (mse, bias_sq, var_y, var_yhat) over all trials in one pass."""
    mse = np.mean(np.sum((y - yhat) ** 2, axis=2), axis=1)
    mu_gap = yhat.mean(axis=1) - y.mean(axis=1)
    bias_sq = np.sum(mu_gap**2, axis=1)
    vy = np.mean(np.sum((y - y.mean(axis=1, keepdims=True)) ** 2, axis=2), axis=1)
    vyh = np.mean(np.sum((yhat - yhat.mean(axis=1, keepdims=True)) ** 2, axis=2), axis=1)
    return mse, bias_sq, vy, vyh


def reference_error_sweep(rng, dim, out, draws=None):
    """The bound suite's error-bound sweep at one dim, drawn whole in stream order.

    Writes the per-trial (mse, bias_sq, var_y, var_yhat) into out, (4, trials);
    draws, the library's buffer for per-trial draws, is not used.
    """
    trials = out.shape[1]
    y = box_muller_normal(rng.uniform, (trials, 32, dim)) * (0.5 + rng.uniform((trials, 1, 1)))
    coupling = rng.uniform((trials, 1, 1)) * 2.0 - 1.0
    noise = box_muller_normal(rng.uniform, (trials, 32, dim)) * rng.uniform((trials, 1, 1))
    offset = box_muller_normal(rng.uniform, (trials, 1, dim))
    out[:] = sweep_statistics(y, coupling * y + noise + offset)


def moment_total_variance(samples) -> float:
    """Population total variance: np.sum of squared deviations per row, then the mean."""
    arr = np.asarray(samples, dtype=np.float64)
    flat = arr.reshape(arr.shape[0], -1)
    dev = flat - flat.mean(axis=0)
    return float(np.mean(np.sum(dev * dev, axis=1)))


def _block_mean_se(lhs_terms, rhs_terms, blocks=10):
    n = lhs_terms.shape[0]
    if n < blocks:
        blocks = max(2, n)
    edges = np.linspace(0, n, blocks + 1, dtype=int)
    vals = [
        float(np.mean(lhs_terms[edges[b]:edges[b + 1]]) - np.mean(rhs_terms[edges[b]:edges[b + 1]]))
        for b in range(blocks)
    ]
    return float(np.std(vals, ddof=1) / np.sqrt(blocks))


def _bound_report(name, lhs, rhs, eps, constants):
    margin = lhs - rhs
    return BoundReport(
        name=name, lhs=float(lhs), rhs=float(rhs), margin=float(margin),
        holds=bool(margin >= -eps), eps_num=float(eps), constants=constants,
    )


def reference_check_lemma1(head, f_samples):
    """check_lemma1 with every variance and block term formed from scratch."""
    f = np.asarray(f_samples, dtype=np.float64)
    yhat = f @ head.w.T + head.b
    c_g = sigma_min(head.w)
    var_f = moment_total_variance(f)
    var_yhat = moment_total_variance(yhat)
    dev_y = yhat - yhat.mean(axis=0)
    dev_f = f - f.mean(axis=0)
    se = _block_mean_se(np.sum(dev_y * dev_y, axis=1), c_g**2 * np.sum(dev_f * dev_f, axis=1))
    return _bound_report(
        "head_variance_propagation", var_yhat, c_g**2 * var_f, 3.0 * se,
        {"c_G": c_g, "var_f": var_f, "var_yhat": var_yhat},
    )


def reference_check_theorem1(x_samples, response_map, head, y_samples,
                             var_tol=1e-9, check_reduced_forms=False):
    """check_theorem1 reshaping and centring each array for every moment."""
    x = np.asarray(x_samples, dtype=np.float64)
    y = np.asarray(y_samples, dtype=np.float64)
    f = response_map(x)
    yhat = f @ head.w.T + head.b
    var_x = moment_total_variance(x)
    var_y = moment_total_variance(y)
    var_f = moment_total_variance(f)
    var_yhat = moment_total_variance(yhat)
    c_f = float(np.sqrt(var_f / var_x))
    c_g = sigma_min(head.w)
    if c_g * c_f <= 1.0:
        return TheoremResult(refused=True, refusal_reason=f"requires c_G*c_F > 1, got {c_g * c_f!r}")
    if abs(var_y - var_x) > var_tol * max(var_x, 1e-300):
        return TheoremResult(
            refused=True,
            refusal_reason=f"requires Var(Y) == Var(X), got Var(Y)={var_y!r} Var(X)={var_x!r}",
        )
    mse = float(np.mean(np.sum((y.reshape(len(y), -1) - yhat.reshape(len(yhat), -1)) ** 2, axis=1)))
    bias_sq = float(
        np.sum((yhat.reshape(len(yhat), -1).mean(axis=0) - y.reshape(len(y), -1).mean(axis=0)) ** 2)
    )
    consts = {
        "c_F": c_f, "c_G": c_g, "bias_sq": bias_sq,
        "var_x": var_x, "var_f": var_f, "var_y": var_y, "var_yhat": var_yhat,
    }
    eps = EXACT_EPS * max(1.0, mse)
    reports = [
        _bound_report("mse_vs_response_sd_gap", mse,
                      bias_sq + (c_g * np.sqrt(var_f) - np.sqrt(var_y)) ** 2, eps, consts),
        _bound_report("mse_vs_response_variance", mse,
                      bias_sq + (c_g - 1.0 / c_f) ** 2 * var_f, eps, consts),
        _bound_report("mse_vs_target_variance", mse,
                      bias_sq + (c_g * c_f - 1.0) ** 2 * var_y, eps, consts),
    ]
    if check_reduced_forms:
        reports.append(_bound_report("reduced_response_variance", mse,
                                     (c_g - 1.0 / c_f) ** 2 * var_f, eps, consts))
        reports.append(_bound_report("reduced_input_variance", mse,
                                     (c_g * c_f - 1.0) ** 2 * var_x, eps, consts))
    return TheoremResult(refused=False, refusal_reason=None, reports=reports)


def reference_init_denoiser_params(cfg, rng) -> dict:
    """Denoiser parameters with every stage's entry and substream written out."""
    p = {
        "den.in.w": conv_init(rng.spawn(1), cfg.den_base, cfg.den_in),
        "den.in.b": np.zeros(cfg.den_base),
        "den.t1.w": rng.spawn(2).normal((cfg.time_dim, cfg.den_base)) / np.sqrt(cfg.time_dim),
        "den.t1.b": np.zeros(cfg.den_base),
        "den.d1.w": conv_init(rng.spawn(3), cfg.den_mid, cfg.den_base),
        "den.d1.b": np.zeros(cfg.den_mid),
        "den.t2.w": rng.spawn(4).normal((cfg.time_dim, cfg.den_mid)) / np.sqrt(cfg.time_dim),
        "den.t2.b": np.zeros(cfg.den_mid),
        "den.d2.w": conv_init(rng.spawn(5), cfg.den_bottleneck, cfg.den_mid),
        "den.d2.b": np.zeros(cfg.den_bottleneck),
        "den.t3.w": rng.spawn(6).normal((cfg.time_dim, cfg.den_bottleneck)) / np.sqrt(cfg.time_dim),
        "den.t3.b": np.zeros(cfg.den_bottleneck),
        "den.u1.w": conv_init(rng.spawn(7), cfg.den_mid, cfg.den_bottleneck),
        "den.u1.b": np.zeros(cfg.den_mid),
        "den.u2.w": conv_init(rng.spawn(8), cfg.den_base, cfg.den_mid),
        "den.u2.b": np.zeros(cfg.den_base),
        "den.out.w": conv_init(rng.spawn(9), cfg.frames_out, cfg.den_base),
        "den.out.b": np.zeros(cfg.frames_out),
    }
    for name, arr in init_attention(cfg.den_bottleneck, rng.spawn(11)).items():
        p[f"den.attn.{name}"] = arr
    return p


def reference_denoiser_forward(x_t, t, cond, cfg, params):
    """The denoiser forward as six hand-ordered stage calls."""
    x_t = np.asarray(x_t, dtype=np.float64)
    bsz, _, h, w = x_t.shape
    cond = np.asarray(cond, dtype=np.float64)
    cond_map = np.broadcast_to(cond[:, :, None, None], (bsz, cfg.cond_dim, h, w))
    inp = np.concatenate([x_t, cond_map], axis=1)
    temb = time_embedding(np.asarray(t), cfg.time_dim)

    convs, tanhs = {}, {}

    def stage(name, src, stride, tkey=None):
        pre, convs[name] = conv2d_forward(src, params[f"den.{name}.w"], params[f"den.{name}.b"], stride)
        if tkey is not None:
            pre = pre + (temb @ params[f"den.{tkey}.w"] + params[f"den.{tkey}.b"])[:, :, None, None]
        out = np.tanh(pre)
        tanhs[name] = out
        return out

    h0 = stage("in", inp, 1, "t1")
    h1 = stage("d1", h0, 2, "t2")
    h2 = stage("d2", h1, 2, "t3")

    s_h, s_w = h2.shape[2], h2.shape[3]
    tokens = h2.reshape(bsz, cfg.den_bottleneck, s_h * s_w).transpose(0, 2, 1)
    att_y, attn_cache = mha_forward(tokens, block_params(params, "den.attn"), cfg.den_heads)
    h2a = h2 + att_y.transpose(0, 2, 1).reshape(h2.shape)

    u1 = stage("u1", upsample2_forward(h2a), 1) + h1
    u2 = stage("u2", upsample2_forward(u1), 1) + h0
    eps_hat, convs["out"] = conv2d_forward(u2, params["den.out.w"], params["den.out.b"], 1)
    cache = SimpleNamespace(temb=temb, convs=convs, tanhs=tanhs, attn_cache=attn_cache, h2_shape=h2.shape)
    return eps_hat, cache


def reference_denoiser_backward(grad_eps, cfg, params, cache, grads):
    """The denoiser backward as a hand-ordered conv/time-projection sequence."""
    convs, tanhs = cache.convs, cache.tanhs

    def conv_back(name, g, first_grad_channel=0):
        gw, gb, gx = conv2d_backward(
            g, params[f"den.{name}.w"], convs[name], first_grad_channel=first_grad_channel
        )
        grads[f"den.{name}.w"] += gw
        grads[f"den.{name}.b"] += gb
        return gx

    def time_back(tkey, g_pre):
        g_ch = g_pre.sum(axis=(2, 3))
        grads[f"den.{tkey}.w"] += cache.temb.T @ g_ch
        grads[f"den.{tkey}.b"] += g_ch.sum(axis=0)

    g_u2s = conv_back("out", grad_eps)
    g_h0_skip = g_u2s
    g_u1s = upsample2_backward(conv_back("u2", tanh_backward(g_u2s, tanhs["u2"])))
    g_h1_skip = g_u1s
    g_h2a = upsample2_backward(conv_back("u1", tanh_backward(g_u1s, tanhs["u1"])))

    s_b, s_c, s_h, s_w = cache.h2_shape
    g_tokens = g_h2a.reshape(s_b, s_c, s_h * s_w).transpose(0, 2, 1)
    att_grads, g_tok_in = mha_backward(
        block_params(params, "den.attn"), cfg.den_heads, cache.attn_cache, g_tokens
    )
    for name, arr in att_grads.items():
        grads[f"den.attn.{name}"] += arr
    g_h2 = (g_tokens + g_tok_in).transpose(0, 2, 1).reshape(s_b, s_c, s_h, s_w)

    g_pre = tanh_backward(g_h2, tanhs["d2"])
    time_back("t3", g_pre)
    g_h1 = conv_back("d2", g_pre) + g_h1_skip
    g_pre = tanh_backward(g_h1, tanhs["d1"])
    time_back("t2", g_pre)
    g_h0 = conv_back("d1", g_pre) + g_h0_skip
    g_pre = tanh_backward(g_h0, tanhs["in"])
    time_back("t1", g_pre)
    g_cond_map = conv_back("in", g_pre, first_grad_channel=cfg.frames_out)
    return g_cond_map.sum(axis=(2, 3))


# ---------------------------------------------------------------------------
# Bitwise reference for the convolution: the shifted-GEMM form that pads
# the input with np.pad and copies every tap's strided window out of it.
# ---------------------------------------------------------------------------


def _reference_windows(ho, wo, stride):
    for ky in range(3):
        for kx in range(3):
            window = (slice(ky, ky + ho * stride, stride), slice(kx, kx + wo * stride, stride))
            yield ky * 3 + kx, (slice(None), slice(None)) + window


def reference_conv2d_forward(x, w, b, stride=1):
    """3x3 pad-1 convolution; returns (out, (padded input, stride))."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = w.reshape(cout, cin, 9)
    out = np.zeros((bsz, cout, ho * wo))
    for k, window in _reference_windows(ho, wo, stride):
        out += taps[:, :, k] @ padded[window].reshape(bsz, cin, ho * wo)
    out += b[:, None]
    return out.reshape(bsz, cout, ho, wo), (padded, stride)


def reference_conv2d_backward(grad_out, w, cache, first_grad_channel=0):
    """(grad_w, grad_b, grad_x) of reference_conv2d_forward."""
    padded, stride = cache
    bsz, cout, ho, wo = grad_out.shape
    cin = padded.shape[1]
    g = grad_out.reshape(bsz, cout, ho * wo)
    taps = w.reshape(cout, cin, 9)
    grad_w = np.empty_like(taps)
    grad_pad = np.zeros((bsz, cin - first_grad_channel) + padded.shape[2:])
    for k, window in _reference_windows(ho, wo, stride):
        view = padded[window].reshape(bsz, cin, ho * wo)
        grad_w[:, :, k] = np.matmul(g, view.transpose(0, 2, 1)).sum(axis=0)
        grad_pad[window] += (taps[:, first_grad_channel:, k].T @ g).reshape(bsz, -1, ho, wo)
    return grad_w.reshape(w.shape), g.sum(axis=(0, 2)), grad_pad[:, :, 1:-1, 1:-1]


# ---------------------------------------------------------------------------
# Bitwise reference for the event renderer: one frame at a time, each frame
# blurred through np.pad and shifted on its own.
# ---------------------------------------------------------------------------


def _reference_blur_shift(frame):
    ax = np.arange(-2, 3, dtype=np.float64)
    g = np.exp(-(ax**2) / (2 * SAT_BLUR_SIGMA**2))
    k = np.outer(g, g)
    k = k / k.sum()
    padded = np.pad(frame, 2, mode="constant")
    out = np.zeros_like(frame)
    for dy in range(5):
        for dx in range(5):
            out += k[dy, dx] * padded[dy:dy + frame.shape[0], dx:dx + frame.shape[1]]
    shifted = np.zeros_like(out)
    oy, ox = SAT_OFFSET
    shifted[oy:, ox:] = out[: out.shape[0] - oy, : out.shape[1] - ox]
    return shifted


def reference_generate_event(spec, t_len, height, width):
    """(radar, satellite) (T, H, W) stacks of generate_event, frame by frame."""
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    radar = np.zeros((t_len, height, width))
    for t in range(t_len):
        acc = np.zeros((height, width))
        for b in spec.blobs:
            cy = b.center[0] + t * b.velocity[0]
            cx = b.center[1] + t * b.velocity[1]
            amp = b.amplitude * np.exp(b.growth * t)
            acc += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * b.radius**2))
        radar[t] = np.clip(acc, 0.0, 1.0)
    sat = np.clip(np.stack([_reference_blur_shift(f) for f in radar]), 0.0, 1.0)
    return radar, sat
