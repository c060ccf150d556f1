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

import numpy as np

from ..attention import AttentionConfig, AttentionParams, mha_backward, mha_forward
from ..errors import ConfigError, ShapeError
from ..tensor_core import SeededRng, weight_grad

MODALITIES = ("radar", "satellite")


@dataclass(frozen=True)
class EncoderConfig:
    height: int
    width: int
    frames_in: int
    patch: int
    dim: int
    layers: int
    heads: int
    mode: str = "unimodal"

    def __post_init__(self):
        if self.mode not in ("unimodal", "multimodal"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.patch < 1:
            raise ConfigError(f"patch must be >= 1, got {self.patch}")
        if self.height % self.patch or self.width % self.patch:
            raise ConfigError(
                f"spatial dims {(self.height, self.width)} not divisible by patch {self.patch}"
            )
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        self.attention  # AttentionConfig validates dim and heads

    @property
    def channels(self) -> int:
        return 2 if self.mode == "multimodal" else 1

    @property
    def tokens(self) -> int:
        return self.frames_in * (self.height // self.patch) * (self.width // self.patch)

    @property
    def patch_vec(self) -> int:
        return self.channels * self.patch * self.patch

    @property
    def attention(self) -> AttentionConfig:
        return AttentionConfig(model_dim=self.dim, heads=self.heads)


def patchify(frames: np.ndarray, patch: int) -> np.ndarray:
    """(B, T, H, W) -> (B, T*(H/P)*(W/P), P*P), frame-major token order."""
    b, t, h, w = frames.shape
    gy, gx = h // patch, w // patch
    out = frames.reshape(b, t, gy, patch, gx, patch)
    return out.transpose(0, 1, 2, 4, 3, 5).reshape(b, t * gy * gx, patch * patch)


def unpatchify(tokens: np.ndarray, t: int, h: int, w: int, patch: int) -> np.ndarray:
    b = tokens.shape[0]
    gy, gx = h // patch, w // patch
    out = tokens.reshape(b, t, gy, gx, patch, patch).transpose(0, 1, 2, 4, 3, 5)
    return out.reshape(b, t, h, w)


def block_params(params: dict, prefix: str) -> AttentionParams:
    return AttentionParams(**{k: params[f"{prefix}.{k}"] for k in
                              ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")})


def init_encoder_params(cfg: EncoderConfig, rng: SeededRng, cond_dim: int) -> dict:
    params = {
        "enc.embed.w": rng.normal((cfg.patch_vec, cfg.dim)) / np.sqrt(cfg.patch_vec),
        "enc.embed.b": np.zeros(cfg.dim),
        "enc.pos": 0.02 * rng.normal((cfg.tokens, cfg.dim)),
    }
    for layer in range(cfg.layers):
        ap = AttentionParams.init(cfg.attention, rng.spawn(10 + layer))
        for name, arr in ap.items():
            params[f"enc.block{layer}.{name}"] = arr
    params["dec.radar.w"] = rng.spawn(50).normal((cfg.dim, cfg.patch * cfg.patch)) / np.sqrt(cfg.dim)
    params["dec.radar.b"] = np.zeros(cfg.patch * cfg.patch)
    if cfg.mode == "multimodal":
        params["dec.satellite.w"] = rng.spawn(51).normal((cfg.dim, cfg.patch * cfg.patch)) / np.sqrt(cfg.dim)
        params["dec.satellite.b"] = np.zeros(cfg.patch * cfg.patch)
    params["cond.w"] = rng.spawn(52).normal((cfg.dim, cond_dim)) / np.sqrt(cfg.dim)
    params["cond.b"] = np.zeros(cond_dim)
    return params


@dataclass
class EncoderCache:
    patches: np.ndarray
    block_caches: list
    acts: list  # HeadActivations per layer, for the energy statistics


def encode(x_radar: np.ndarray, x_sat: np.ndarray | None, cfg: EncoderConfig, params: dict):
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
        y, cache = mha_forward(h, cfg.attention, block_params(params, f"enc.block{layer}"))
        h = h + y
        block_caches.append(cache)
    return h, EncoderCache(patches=patches, block_caches=block_caches,
                           acts=[c.acts for c in block_caches])


def encode_backward(
    cfg: EncoderConfig,
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
        block_grads, gx = mha_backward(cfg.attention, bp, cache.block_caches[layer], g, extra)
        for name, arr in block_grads.items():
            grads[f"enc.block{layer}.{name}"] += arr
        g = g + gx
    grads["enc.pos"] += g.sum(axis=0)
    grads["enc.embed.b"] += g.sum(axis=(0, 1))
    grads["enc.embed.w"] += weight_grad(cache.patches, g)


def reconstruct(f: np.ndarray, cfg: EncoderConfig, params: dict) -> dict:
    """Linear de-patchify of the latent into per-modality frame stacks."""
    out = {}
    for modality in MODALITIES[: cfg.channels]:
        tokens = f @ params[f"dec.{modality}.w"] + params[f"dec.{modality}.b"]
        out[modality] = unpatchify(tokens, cfg.frames_in, cfg.height, cfg.width, cfg.patch)
    return out


def reconstruction_loss(
    f: np.ndarray,
    inputs: dict,
    cfg: EncoderConfig,
    params: dict,
    grads: dict | None = None,
):
    """Mean-squared reconstruction error summed over present modalities.

    Returns (loss, per_sample, grad_f).  With a grads registry supplied,
    decoder gradients are accumulated into it; otherwise grad_f is None.
    """
    loss = 0.0
    grad_f = np.zeros_like(f) if grads is not None else None
    bsz = f.shape[0]
    per_sample = np.zeros(bsz)
    for modality in MODALITIES[: cfg.channels]:
        recon_tokens = f @ params[f"dec.{modality}.w"] + params[f"dec.{modality}.b"]
        target = patchify(np.asarray(inputs[modality], dtype=np.float64), cfg.patch)
        diff = recon_tokens - target
        count = diff.size
        loss += float(np.sum(diff * diff)) / count
        per_sample += np.sum(diff * diff, axis=(1, 2)) * (bsz / count)
        if grads is not None:
            g_tokens = 2.0 * diff / count
            grads[f"dec.{modality}.w"] += weight_grad(f, g_tokens)
            grads[f"dec.{modality}.b"] += g_tokens.sum(axis=(0, 1))
            grad_f += g_tokens @ params[f"dec.{modality}.w"].T
    return loss, per_sample, grad_f


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
