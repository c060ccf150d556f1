"""Patch-token encoder, reconstruction decoders and latent conditioning.

Frames are cut into non-overlapping patches, linearly embedded, given a
learned positional embedding and passed through residual attention blocks.
Decoders are linear de-patchifiers used only by the training objective;
the inference path never touches them.  The whole model lives in a flat
name -> array parameter registry so the optimizer, checkpoints and the
finite-difference harness all share one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..attention import PARAM_NAMES, init_attention, mha_backward, mha_forward
from ..errors import ConfigError, ShapeError
from ..tensor_core import SeededRng, mse, weight_grad

if TYPE_CHECKING:
    from .training import TrainConfig

def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(B, T, H, W) -> (B, T*(H/P)*(W/P), P*P), frame-major token order."""
    b, t, h, w = frames.shape
    gy, gx = h // patch, w // patch
    out = frames.reshape(b, t, gy, patch, gx, patch)
    return out.transpose(0, 1, 2, 4, 3, 5).reshape(b, t * gy * gx, patch * patch)


def modalities(cfg: TrainConfig) -> tuple:
    """The input modalities, in patch-feature order: radar, then satellite if multimodal."""
    return ("radar", "satellite") if cfg.mode == "multimodal" else ("radar",)


def block_params(params: dict, prefix: str) -> dict:
    """The attention parameters stored under prefix, keyed by PARAM_NAMES."""
    return {k: params[f"{prefix}.{k}"] for k in PARAM_NAMES}


def init_encoder_params(cfg: TrainConfig, rng: SeededRng) -> dict:
    """Embedding, attention blocks, one decoder per modality and the conditioning projection."""
    pixels = cfg.patch * cfg.patch
    patch_vec = len(modalities(cfg)) * pixels
    tokens = cfg.frames_in * (cfg.height // cfg.patch) * (cfg.width // cfg.patch)
    params = {
        "enc.embed.w": rng.normal((patch_vec, cfg.dim)) / np.sqrt(patch_vec),
        "enc.embed.b": np.zeros(cfg.dim),
        "enc.pos": 0.02 * rng.normal((tokens, cfg.dim)),
    }
    for layer in range(cfg.layers):
        for name, arr in init_attention(cfg.dim, rng.spawn(10 + layer)).items():
            params[f"enc.block{layer}.{name}"] = arr
    for stream, modality in enumerate(modalities(cfg), start=50):
        params[f"dec.{modality}.w"] = rng.spawn(stream).normal((cfg.dim, pixels)) / np.sqrt(cfg.dim)
        params[f"dec.{modality}.b"] = np.zeros(pixels)
    params["cond.w"] = rng.spawn(52).normal((cfg.dim, cfg.cond_dim)) / np.sqrt(cfg.dim)
    params["cond.b"] = np.zeros(cfg.cond_dim)
    return params


@dataclass
class EncoderCache:
    patches: np.ndarray
    block_caches: list  # MhaCache per layer; .o feeds the energy statistics


def encode(x_radar: np.ndarray, x_sat: np.ndarray | None, cfg: TrainConfig, params: dict):
    """Token latent F (B, N, dim) plus per-layer activations.

    x_radar is (B, T_I, H, W); x_sat must be given exactly in multimodal
    mode and is concatenated per patch along the feature axis.
    """
    x_radar = np.asarray(x_radar, dtype=np.float64)
    if x_radar.ndim != 4:
        raise ShapeError(f"x_radar must be (B,T,H,W), got {x_radar.shape}")
    if x_radar.shape[1:] != (cfg.frames_in, cfg.height, cfg.width):
        raise ShapeError(
            f"x_radar shape {x_radar.shape[1:]} != {(cfg.frames_in, cfg.height, cfg.width)}"
        )
    if (x_sat is not None) != (cfg.mode == "multimodal"):
        raise ConfigError(f"satellite input must be supplied iff mode is multimodal")
    pieces = [patchify(x_radar, cfg.patch)]
    if x_sat is not None:
        x_sat = np.asarray(x_sat, dtype=np.float64)
        if x_sat.shape != x_radar.shape:
            raise ShapeError(f"x_sat shape {x_sat.shape} != x_radar shape {x_radar.shape}")
        pieces.append(patchify(x_sat, cfg.patch))
    patches = np.concatenate(pieces, axis=2)

    h = patches @ params["enc.embed.w"] + params["enc.embed.b"] + params["enc.pos"]
    block_caches = []
    for layer in range(cfg.layers):
        y, cache = mha_forward(h, block_params(params, f"enc.block{layer}"), cfg.heads)
        h = y + h  # the residual sum; the cache keeps the old h
        block_caches.append(cache)
    return h, EncoderCache(patches=patches, block_caches=block_caches)


def encode_backward(
    cfg: TrainConfig,
    params: dict,
    cache: EncoderCache,
    grad_f: np.ndarray,
    grad_o_extra: list | None,
    grads: dict,
) -> None:
    """Accumulate encoder gradients into the registry.

    grad_o_extra is an optional per-layer list of gradients injected at
    each block's head responses (the energy-stabilization path).
    """
    g = np.asarray(grad_f, dtype=np.float64)
    for layer in reversed(range(cfg.layers)):
        extra = grad_o_extra[layer] if grad_o_extra is not None else None
        bp = block_params(params, f"enc.block{layer}")
        block_grads, gx = mha_backward(bp, cfg.heads, cache.block_caches[layer], g, extra)
        for name, arr in block_grads.items():
            grads[f"enc.block{layer}.{name}"] += arr
        g = gx + g
    grads["enc.pos"] += g.sum(axis=0)
    grads["enc.embed.b"] += g.sum(axis=(0, 1))
    grads["enc.embed.w"] += weight_grad(cache.patches, g)


def reconstruction_loss(
    f: np.ndarray,
    patches: np.ndarray,
    cfg: TrainConfig,
    params: dict,
    grads: dict | None,
):
    """Mean-squared reconstruction error of the encoder's patches, summed over the modalities.

    Modality i's target is block i of P*P features of EncoderCache.patches.  Returns
    (loss, grad_f); with grads None nothing is accumulated and grad_f is None.
    """
    loss = 0.0
    grad_f = np.zeros_like(f) if grads is not None else None
    pixels = cfg.patch * cfg.patch
    for i, modality in enumerate(modalities(cfg)):
        recon_tokens = f @ params[f"dec.{modality}.w"] + params[f"dec.{modality}.b"]
        term, _, g_tokens = mse(recon_tokens, patches[:, :, i * pixels:(i + 1) * pixels])
        loss += term
        if grads is not None:
            grads[f"dec.{modality}.w"] += weight_grad(f, g_tokens)
            grads[f"dec.{modality}.b"] += g_tokens.sum(axis=(0, 1))
            grad_f += g_tokens @ params[f"dec.{modality}.w"].T
    return loss, grad_f


def conditioning_forward(f: np.ndarray, params: dict):
    """Mean-pooled latent through a linear projection: (B, cond_dim)."""
    pooled = f.mean(axis=1)
    return pooled @ params["cond.w"] + params["cond.b"], pooled


def conditioning_backward(grad_c: np.ndarray, pooled: np.ndarray, f_shape, params: dict, grads: dict):
    """Accumulate projection grads; returns grad wrt the latent F."""
    grads["cond.w"] += pooled.T @ grad_c
    grads["cond.b"] += grad_c.sum(axis=0)
    g_pooled = grad_c @ params["cond.w"].T
    return np.repeat(g_pooled[:, None, :], f_shape[1], axis=1) / f_shape[1]
