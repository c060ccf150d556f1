"""Convolution, upsampling and activation primitives with exact backward.

A 3x3 pad-1 convolution is the sum of nine shifted products: for each
kernel offset (ky, kx), the matching strided view of the padded input is
multiplied by the (out_channels, in_channels) slice of the weight.  Every
stride takes this one path, and no (B, Ho*Wo, Cin*9) column buffer is ever
built (low-memory GEMM convolution, Anderson et al., arXiv 1709.03395).
Weights are stored flat as (out_channels, in_channels * k * k), ordered
(channel, ky, kx), so the whole model lives in one flat name -> array
registry.  Backward passes are hand-derived adjoints of the forward
slicing, which keeps them exactly consistent with finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

KERNEL = 3
PAD = 1


@dataclass
class ConvCache:
    padded: np.ndarray  # (B, Cin, H + 2*PAD, W + 2*PAD)
    stride: int


def _offsets(ho: int, wo: int, stride: int):
    """(tap index, window of the padded image) for every kernel offset."""
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            window = (slice(ky, ky + ho * stride, stride), slice(kx, kx + wo * stride, stride))
            yield ky * KERNEL + kx, (slice(None), slice(None)) + window


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 padded convolution; w is (Cout, Cin*9)."""
    bsz, cin, h, wd = x.shape
    if w.shape[1] != cin * KERNEL * KERNEL:
        raise ShapeError(f"conv weight {w.shape} incompatible with {cin} input channels")
    cout = w.shape[0]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    padded = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    taps = w.reshape(cout, cin, KERNEL * KERNEL)
    out = np.zeros((bsz, cout, ho * wo))
    for k, window in _offsets(ho, wo, stride):
        out += taps[:, :, k] @ padded[window].reshape(bsz, cin, ho * wo)
    out += b[:, None]
    return out.reshape(bsz, cout, ho, wo), ConvCache(padded=padded, stride=stride)


def conv2d_backward(grad_out: np.ndarray, w: np.ndarray, cache: ConvCache, first_grad_channel: int = 0):
    """Returns (grad_w, grad_b, grad_x).

    grad_x covers input channels first_grad_channel onward only, so a
    caller that reads just the trailing channels skips the rest.
    """
    bsz, cout, ho, wo = grad_out.shape
    padded = cache.padded
    cin = padded.shape[1]
    g = grad_out.reshape(bsz, cout, ho * wo)
    taps = w.reshape(cout, cin, KERNEL * KERNEL)
    grad_w = np.empty_like(taps)
    grad_pad = np.zeros((bsz, cin - first_grad_channel) + padded.shape[2:])
    for k, window in _offsets(ho, wo, cache.stride):
        view = padded[window].reshape(bsz, cin, ho * wo)
        grad_w[:, :, k] = np.matmul(g, view.transpose(0, 2, 1)).sum(axis=0)
        grad_pad[window] += (taps[:, first_grad_channel:, k].T @ g).reshape(bsz, -1, ho, wo)
    return grad_w.reshape(w.shape), g.sum(axis=(0, 2)), grad_pad[:, :, PAD:-PAD, PAD:-PAD]


def tanh_backward(grad_y: np.ndarray, y: np.ndarray) -> np.ndarray:
    return grad_y * (1.0 - y * y)


def upsample2_forward(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling."""
    return x.repeat(2, axis=2).repeat(2, axis=3)


def upsample2_backward(grad_y: np.ndarray) -> np.ndarray:
    b, c, h, w = grad_y.shape
    return grad_y.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of integer diffusion steps, (B, dim)."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-math.log(10_000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def conv_init(rng, cout: int, cin: int) -> np.ndarray:
    fan_in = cin * KERNEL * KERNEL
    return rng.normal((cout, fan_in)) / math.sqrt(fan_in)
