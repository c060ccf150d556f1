"""Denoising-diffusion predictor: schedule, conv denoiser, DDIM sampling.

Future frames ride as channels of a single image; the stabilized latent
conditions the denoiser through broadcast-and-concatenated channels.
Pixels are diffused in [-1, 1] and mapped back to [0, 1] after sampling.
The denoiser is a small U-shaped conv net (two stride-2 downsamples, one
attention block at the bottleneck, symmetric nearest-neighbour upsampling)
with a sinusoidal time embedding added per stage, and carries an exact
hand-derived backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention import AttentionConfig, mha_backward, mha_forward
from ..errors import ConfigError, ShapeError
from ..tensor_core import SeededRng
from .convnet import (
    conv2d_backward,
    conv2d_forward,
    conv_init,
    tanh_backward,
    time_embedding,
    upsample2_backward,
    upsample2_forward,
)
from .model import block_params


@dataclass(frozen=True)
class DiffusionSchedule:
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def steps(self) -> int:
        return self.betas.shape[0]


def make_schedule(steps: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02) -> DiffusionSchedule:
    if steps < 1:
        raise ConfigError("schedule needs at least one step")
    if not (0.0 < beta_start < beta_end < 1.0):
        raise ConfigError(f"invalid beta endpoints ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, steps)
    alphas = 1.0 - betas
    return DiffusionSchedule(betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas))


@dataclass(frozen=True)
class DenoiserConfig:
    out_channels: int  # predicted frames, as channels
    cond_dim: int
    base: int = 8
    mid: int = 16
    bottleneck: int = 16
    heads: int = 2
    time_dim: int = 8

    def __post_init__(self):
        if self.bottleneck % self.heads:
            raise ConfigError("bottleneck channels must divide across heads")
        # The sinusoidal embedding has 2 * (time_dim // 2) columns.
        if self.time_dim < 2 or self.time_dim % 2:
            raise ConfigError(f"time_dim must be a positive even number, got {self.time_dim}")

    @property
    def in_channels(self) -> int:
        return self.out_channels + self.cond_dim

    @property
    def attention(self) -> AttentionConfig:
        return AttentionConfig(model_dim=self.bottleneck, heads=self.heads)


def init_denoiser_params(cfg: DenoiserConfig, rng: SeededRng) -> dict:
    p = {
        "den.in.w": conv_init(rng.spawn(1), cfg.base, cfg.in_channels),
        "den.in.b": np.zeros(cfg.base),
        "den.t1.w": rng.spawn(2).normal((cfg.time_dim, cfg.base)) / np.sqrt(cfg.time_dim),
        "den.t1.b": np.zeros(cfg.base),
        "den.d1.w": conv_init(rng.spawn(3), cfg.mid, cfg.base),
        "den.d1.b": np.zeros(cfg.mid),
        "den.t2.w": rng.spawn(4).normal((cfg.time_dim, cfg.mid)) / np.sqrt(cfg.time_dim),
        "den.t2.b": np.zeros(cfg.mid),
        "den.d2.w": conv_init(rng.spawn(5), cfg.bottleneck, cfg.mid),
        "den.d2.b": np.zeros(cfg.bottleneck),
        "den.t3.w": rng.spawn(6).normal((cfg.time_dim, cfg.bottleneck)) / np.sqrt(cfg.time_dim),
        "den.t3.b": np.zeros(cfg.bottleneck),
        "den.u1.w": conv_init(rng.spawn(7), cfg.mid, cfg.bottleneck),
        "den.u1.b": np.zeros(cfg.mid),
        "den.u2.w": conv_init(rng.spawn(8), cfg.base, cfg.mid),
        "den.u2.b": np.zeros(cfg.base),
        "den.out.w": conv_init(rng.spawn(9), cfg.out_channels, cfg.base),
        "den.out.b": np.zeros(cfg.out_channels),
    }
    from ..attention import AttentionParams

    for name, arr in AttentionParams.init(cfg.attention, rng.spawn(11)).items():
        p[f"den.attn.{name}"] = arr
    return p


@dataclass
class DenoiserCache:
    temb: np.ndarray
    convs: dict
    tanhs: dict
    attn_cache: object
    h_shapes: dict


def denoiser_forward(x_t, t, cond, cfg: DenoiserConfig, params: dict):
    """Predict the injected noise from (noisy frames, step, conditioning)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    bsz, c, h, w = x_t.shape
    if c != cfg.out_channels:
        raise ShapeError(f"expected {cfg.out_channels} frame channels, got {c}")
    if h % 4 or w % 4:
        raise ShapeError(f"spatial dims {(h, w)} must be divisible by 4")
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
    tokens = h2.reshape(bsz, cfg.bottleneck, s_h * s_w).transpose(0, 2, 1)
    att_y, attn_cache = mha_forward(tokens, cfg.attention, block_params(params, "den.attn"))
    h2a = h2 + att_y.transpose(0, 2, 1).reshape(h2.shape)

    u1 = stage("u1", upsample2_forward(h2a), 1) + h1
    u2 = stage("u2", upsample2_forward(u1), 1) + h0
    eps_hat, convs["out"] = conv2d_forward(u2, params["den.out.w"], params["den.out.b"], 1)

    cache = DenoiserCache(
        temb=temb, convs=convs, tanhs=tanhs, attn_cache=attn_cache,
        h_shapes={"h2": h2.shape, "u1": u1.shape, "u2": u2.shape},
    )
    return eps_hat, cache


def denoiser_backward(grad_eps, cfg: DenoiserConfig, params: dict, cache: DenoiserCache, grads: dict):
    """Accumulate denoiser grads; returns grad wrt the conditioning vector."""
    convs, tanhs = cache.convs, cache.tanhs
    bsz = grad_eps.shape[0]

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

    s_b, s_c, s_h, s_w = cache.h_shapes["h2"]
    g_tokens = g_h2a.reshape(s_b, s_c, s_h * s_w).transpose(0, 2, 1)
    att_grads, g_tok_in = mha_backward(
        cfg.attention, block_params(params, "den.attn"), cache.attn_cache, g_tokens
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
    # Only the broadcast conditioning channels of the input get a gradient.
    g_cond_map = conv_back("in", g_pre, first_grad_channel=cfg.out_channels)
    return g_cond_map.sum(axis=(2, 3))


def noising(y01: np.ndarray, t: np.ndarray, eps: np.ndarray, sched: DiffusionSchedule):
    """Forward-noise [0,1] frames at per-sample steps t (1-based)."""
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    ab = sched.alpha_bars[np.asarray(t) - 1][:, None, None, None]
    return np.sqrt(ab) * y + np.sqrt(1.0 - ab) * eps


def diffusion_loss(x_t, t, cond, eps, cfg: DenoiserConfig, params: dict, grads: dict | None = None):
    """Noise-prediction MSE.

    Returns (loss, per_sample, g_cond).  With a grads registry supplied,
    denoiser gradients are accumulated into it and g_cond is the gradient
    wrt the conditioning vector; otherwise g_cond is None.
    """
    eps_hat, cache = denoiser_forward(x_t, t, cond, cfg, params)
    diff = eps_hat - eps
    count = diff.size
    loss = float(np.sum(diff * diff)) / count
    per_sample = np.sum(diff * diff, axis=(1, 2, 3)) * (diff.shape[0] / count)
    g_cond = None
    if grads is not None:
        g_cond = denoiser_backward(2.0 * diff / count, cfg, params, cache, grads)
    return loss, per_sample, g_cond


def ddim_steps(total: int, n_steps: int) -> np.ndarray:
    """Descending sub-schedule of diffusion steps, endpoints included."""
    if not (1 <= n_steps <= total):
        raise ConfigError(f"n_steps must be in [1, {total}], got {n_steps}")
    taus = np.unique(np.round(np.linspace(1, total, n_steps)).astype(np.int64))
    return taus[::-1]


def ddim_sample(eps_fn, sched: DiffusionSchedule, shape, n_steps: int, rng: SeededRng):
    """Deterministic (eta = 0) DDIM trajectory from seeded Gaussian noise.

    eps_fn(x, t_batch) predicts the noise; the final state is clipped to
    [-1, 1] and mapped to [0, 1].
    """
    x = rng.normal(shape)
    taus = ddim_steps(sched.steps, n_steps)
    for i, t in enumerate(taus):
        ab_t = sched.alpha_bars[t - 1]
        eps = eps_fn(x, np.full(shape[0], t, dtype=np.int64))
        x0 = (x - np.sqrt(1.0 - ab_t) * eps) / np.sqrt(ab_t)
        ab_prev = sched.alpha_bars[taus[i + 1] - 1] if i + 1 < len(taus) else 1.0
        x = np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps
    return (np.clip(x, -1.0, 1.0) + 1.0) / 2.0
