"""Convolution, upsampling and activation primitives with exact backward.

Convolutions run as im2col matrix products; weights are stored flat as
(out_channels, in_channels * k * k) so the whole model lives in one flat
name -> array registry.  Backward passes are hand-derived adjoints of the
forward slicing, which keeps them exactly consistent with finite
differences.
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
    cols: np.ndarray  # (B, Ho*Wo, Cin*k*k)
    x_shape: tuple
    stride: int
    out_hw: tuple


def _im2col(x: np.ndarray, stride: int) -> tuple[np.ndarray, tuple]:
    b, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (KERNEL, KERNEL), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * KERNEL * KERNEL)
    return np.ascontiguousarray(cols), (ho, wo)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 padded convolution; w is (Cout, Cin*9)."""
    cin = x.shape[1]
    if w.shape[1] != cin * KERNEL * KERNEL:
        raise ShapeError(f"conv weight {w.shape} incompatible with {cin} input channels")
    cols, (ho, wo) = _im2col(x, stride)
    out = cols @ w.T + b
    out = out.transpose(0, 2, 1).reshape(x.shape[0], w.shape[0], ho, wo)
    return out, ConvCache(cols=cols, x_shape=x.shape, stride=stride, out_hw=(ho, wo))


def conv2d_backward(grad_out: np.ndarray, w: np.ndarray, cache: ConvCache):
    """Returns (grad_w, grad_b, grad_x)."""
    bsz, cout, ho, wo = grad_out.shape
    g_flat = grad_out.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)
    grad_w = np.einsum("bpc,bpk->ck", g_flat, cache.cols)
    grad_b = g_flat.sum(axis=(0, 1))
    g_cols = g_flat @ w  # (B, Ho*Wo, Cin*k*k)

    _, cin, h, wd = cache.x_shape
    s = cache.stride
    g_win = g_cols.reshape(bsz, ho, wo, cin, KERNEL, KERNEL).transpose(0, 3, 1, 2, 4, 5)
    padded = np.zeros((bsz, cin, h + 2 * PAD, wd + 2 * PAD))
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            padded[:, :, ky:ky + ho * s:s, kx:kx + wo * s:s] += g_win[:, :, :, :, ky, kx]
    return grad_w, grad_b, padded[:, :, PAD:PAD + h, PAD:PAD + wd]


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
