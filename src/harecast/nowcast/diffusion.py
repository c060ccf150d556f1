"""Denoising-diffusion predictor: schedule, conv denoiser, DDIM sampling.

Future frames ride as channels of a single image; the stabilized latent
conditions the denoiser through broadcast-and-concatenated channels.
Pixels are diffused in [-1, 1] and mapped back to [0, 1] after sampling.
The denoiser is a small U-shaped conv net with an exact hand-derived
backward pass.  DENOISER_STAGES describes it once: parameter init, forward,
backward and the input-size rule (SIZE_MULTIPLE, the product of the
strides) all read that table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..attention import init_attention, mha_backward, mha_forward
from ..errors import ConfigError, ShapeError
from ..tensor_core import SeededRng, mse
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

if TYPE_CHECKING:
    from .training import TrainConfig


@dataclass(frozen=True)
class DiffusionSchedule:
    betas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def steps(self) -> int:
        return self.betas.shape[0]


def make_schedule(steps: int) -> DiffusionSchedule:
    """Linear beta schedule from 1e-4 to 0.02 over steps."""
    if steps < 1:
        raise ConfigError("schedule needs at least one step")
    betas = np.linspace(1e-4, 0.02, steps)
    return DiffusionSchedule(betas=betas, alpha_bars=np.cumprod(1.0 - betas))


# The denoiser in forward order: (name, in channels, out channels, stride,
# time key), channels naming TrainConfig attributes; the predicted frames are
# the output channels.  Stages with a time key form the down path (conv, plus
# time projection, tanh), the last feeding the bottleneck attention; later
# stages upsample 2x, conv, tanh and add the mirrored skip, and the final one
# is linear.
DENOISER_STAGES = (
    ("in", "den_in", "den_base", 1, "t1"),
    ("d1", "den_base", "den_mid", 2, "t2"),
    ("d2", "den_mid", "den_bottleneck", 2, "t3"),
    ("u1", "den_bottleneck", "den_mid", 1, None),
    ("u2", "den_mid", "den_base", 1, None),
    ("out", "den_base", "frames_out", 1, None),
)
_DOWN = tuple(stage for stage in DENOISER_STAGES if stage[4] is not None)
_UP = DENOISER_STAGES[len(_DOWN):-1]
_OUT = DENOISER_STAGES[-1]
SIZE_MULTIPLE = math.prod(stage[3] for stage in DENOISER_STAGES)


def init_denoiser_params(cfg: TrainConfig, rng: SeededRng) -> dict:
    p, streams = {}, itertools.count(1)
    for name, cin, cout, _, tkey in DENOISER_STAGES:
        cin, cout = getattr(cfg, cin), getattr(cfg, cout)
        p[f"den.{name}.w"] = conv_init(rng.spawn(next(streams)), cout, cin)
        p[f"den.{name}.b"] = np.zeros(cout)
        if tkey is not None:
            p[f"den.{tkey}.w"] = rng.spawn(next(streams)).normal((cfg.time_dim, cout)) / np.sqrt(cfg.time_dim)
            p[f"den.{tkey}.b"] = np.zeros(cout)
    for name, arr in init_attention(cfg.den_bottleneck, rng.spawn(11)).items():
        p[f"den.attn.{name}"] = arr
    return p


@dataclass
class DenoiserCache:
    temb: np.ndarray
    convs: dict
    tanhs: dict
    attn_cache: object


def denoiser_forward(x_t, t, cond, cfg: TrainConfig, params: dict):
    """Predict the injected noise from (noisy frames, step, conditioning)."""
    x_t = np.asarray(x_t, dtype=np.float64)
    bsz, c, h, w = x_t.shape
    if c != cfg.frames_out:
        raise ShapeError(f"expected {cfg.frames_out} frame channels, got {c}")
    if h % SIZE_MULTIPLE or w % SIZE_MULTIPLE:
        raise ShapeError(f"spatial dims {(h, w)} must be divisible by {SIZE_MULTIPLE}")
    cond = np.asarray(cond, dtype=np.float64)
    cond_map = np.broadcast_to(cond[:, :, None, None], (bsz, cfg.cond_dim, h, w))
    x = np.concatenate([x_t, cond_map], axis=1)
    temb = time_embedding(np.asarray(t), cfg.time_dim)

    convs, tanhs, skips = {}, {}, []

    def conv(name, src, stride):
        pre, convs[name] = conv2d_forward(src, params[f"den.{name}.w"], params[f"den.{name}.b"], stride)
        return pre

    for name, _, _, stride, tkey in _DOWN:
        proj = temb @ params[f"den.{tkey}.w"] + params[f"den.{tkey}.b"]
        pre = conv(name, x, stride)
        # Biased and squashed in place: out of place read the forecast op 1.004-1.009x.
        pre += proj[:, :, None, None]
        x = tanhs[name] = np.tanh(pre, out=pre)
        skips.append(x)
    skips.pop()  # the bottleneck output is not a skip

    tokens = x.reshape(bsz, x.shape[1], -1).transpose(0, 2, 1)
    att_y, attn_cache = mha_forward(tokens, block_params(params, "den.attn"), cfg.den_heads)
    x = x + att_y.transpose(0, 2, 1).reshape(x.shape)

    for name, _, _, stride, _ in _UP:
        pre = conv(name, upsample2_forward(x), stride)
        tanhs[name] = np.tanh(pre, out=pre)
        x = tanhs[name] + skips.pop()
    eps_hat = conv(_OUT[0], x, _OUT[3])
    return eps_hat, DenoiserCache(temb=temb, convs=convs, tanhs=tanhs, attn_cache=attn_cache)


def denoiser_backward(grad_eps, cfg: TrainConfig, params: dict, cache: DenoiserCache, grads: dict):
    """Accumulate denoiser grads; returns grad wrt the conditioning vector."""
    convs, tanhs = cache.convs, cache.tanhs

    def conv_back(name, g, first=0):
        gw, gb, gx = conv2d_backward(g, params[f"den.{name}.w"], convs[name], first_grad_channel=first)
        grads[f"den.{name}.w"] += gw
        grads[f"den.{name}.b"] += gb
        return gx

    g = conv_back(_OUT[0], grad_eps)
    skip_grads = []
    for name, *_ in reversed(_UP):
        skip_grads.append(g)
        g = upsample2_backward(conv_back(name, tanh_backward(g, tanhs[name])))

    g_tokens = g.reshape(*g.shape[:2], -1).transpose(0, 2, 1)
    bp = block_params(params, "den.attn")
    att_grads, g_tok_in = mha_backward(bp, cfg.den_heads, cache.attn_cache, g_tokens)
    for name, arr in att_grads.items():
        grads[f"den.attn.{name}"] += arr
    g = (g_tok_in + g_tokens).transpose(0, 2, 1).reshape(g.shape)

    for name, _, _, _, tkey in reversed(_DOWN):
        g_pre = tanh_backward(g, tanhs[name])
        g_ch = g_pre.sum(axis=(2, 3))
        grads[f"den.{tkey}.w"] += cache.temb.T @ g_ch
        grads[f"den.{tkey}.b"] += g_ch.sum(axis=0)
        if skip_grads:
            g = conv_back(name, g_pre) + skip_grads.pop()
    # Only the broadcast conditioning channels of the input get a gradient.
    g_cond_map = conv_back(_DOWN[0][0], g_pre, first=cfg.frames_out)
    return g_cond_map.sum(axis=(2, 3))


def noising(y01: np.ndarray, t: np.ndarray, eps: np.ndarray, sched: DiffusionSchedule):
    """Forward-noise [0,1] frames at per-sample steps t (1-based)."""
    # In place: one out-of-place expression read the train op 1.000-1.012x.
    x = 2.0 * np.asarray(y01, dtype=np.float64)
    x -= 1.0
    ab = sched.alpha_bars[np.asarray(t) - 1][:, None, None, None]
    x *= np.sqrt(ab)
    x += np.sqrt(1.0 - ab) * eps
    return x


def diffusion_loss(x_t, t, cond, eps, cfg: TrainConfig, params: dict, grads: dict | None):
    """Noise-prediction MSE.

    Returns (loss, per_sample, g_cond).  With a grads registry, denoiser
    gradients are accumulated into it and g_cond is the gradient wrt the
    conditioning vector; with grads None, g_cond is None.
    """
    eps_hat, cache = denoiser_forward(x_t, t, cond, cfg, params)
    loss, per_sample, grad_eps = mse(eps_hat, eps)
    g_cond = None
    if grads is not None:
        g_cond = denoiser_backward(grad_eps, cfg, params, cache, grads)
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
