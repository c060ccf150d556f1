"""Convolution, upsampling and activation primitives with exact backward.

A 3x3 pad-1 convolution is the sum of nine shifted products: for each
kernel offset (ky, kx), the matching view of the padded input is multiplied
by the (out_channels, in_channels) slice of the weight.  No (B, Ho*Wo,
Cin*9) column buffer is ever built (low-memory GEMM convolution, Anderson
et al., arXiv 1709.03395), and the forward copies no tap window either.

The input is written once, by zeros plus slice assignment, into a flat
polyphase buffer (B, Cin, s*s, rows*gw) at stride s: plane (py, px) holds
the padded image's rows py::s and columns px::s on a grid gw columns wide
(Wo + 2 at stride 1, Wo + 1 at stride 2), with one slack row.
At that fixed row pitch, tap (ky, kx) of output (oy, ox) sits at flat
index (oy + ky // s) * gw + ox + kx // s of plane (ky % s, kx % s), so each
tap reads one contiguous run of Ho*gw values in place.  The output is
formed on the gw-wide grid and its last gw - Wo columns, whose taps wrap
into the next row, are dropped.  The nine tap products are summed a chunk
of whole samples at a time, at most GRAD_CHUNK values of the output grid
(at least one sample), the backward's rule below: each chunk's sum is a
fresh array of +0.0 to which the tap products are added in tap order, so
the temporaries stay cache-sized at any batch size and every sum is the
whole-batch one.  When one chunk holds the batch (a batch-1 forecast, or
a small stage), the sum is formed over the whole batch and the bias added
in one expression, with no chunk loop, which is faster there.  Each
valid output still sums the same per-tap products in the same tap order
as a copied window would give, so for a stage with at least two output
channels and more than one output cell the result is bit-identical to the
padded-window form.  With one
output channel, NumPy hands each tap's (1, Cin) @ (Cin, N) product to BLAS
gemv, whose tail columns depend on the row length N (Ho*gw here, Ho*Wo for
copied windows), so at some sizes a few outputs differ at roundoff; a
one-cell output (N = 1 for a copied window) is a gemv there and a GEMM
here, and differs at roundoff too.

The backward pass reads the same layout.  The input gradient is gathered,
not scattered: grad_out is written once onto the gw-wide output grid, with
zeros in its wrap columns and before its first row, and each plane cell
adds, in tap order, tap k's product read from one contiguous run of that
buffer shifted by the tap's flat offset; the valid cells are then gathered
back through the polyphase slices.  A product read off the output grid is
an exact zero added to a sum that starts at +0.0, so every input gradient
is bit-identical to adding each tap's product into its window.  grad_out
goes through in chunks of whole samples, at most GRAD_CHUNK values on the
padded grid (at least one sample), which bounds the buffers at any batch
size and keeps them in cache; each plane's sum starts as a fresh array of
+0.0.  For the weight gradient, the taps that share a plane and a
column shift dx read one contiguous copy of that plane's columns
dx..dx + Wo (3 copies at stride 1, 6 at stride 2, made in turn in one
reused buffer), tap (ky, kx) taking rows ky // s.. of it as a view.

Two shapes keep the window form, each tap's product added into its window
and each tap's window copied for the weight gradient, because there NumPy
multiplies the two forms by different paths, whose bits differ at
roundoff: one gradient channel (each tap's (1, Cout) @ (Cout, N) product
is a BLAS gemv, as above) and a one-column output (each window is a
strided view rather than a contiguous copy, and a one-cell output makes
the product a gemv).  One layout serves every stride, and its geometry is
computed once per input shape.

Weights are stored flat as (out_channels, in_channels * k * k), ordered
(channel, ky, kx), so the whole model lives in one flat name -> array
registry.  Backward passes are hand-derived adjoints of the forward
slicing, which keeps them exactly consistent with finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

KERNEL = 3
PAD = 1
# Values on the output grid that conv2d_forward sums, and of grad_out (on the
# padded output grid) that conv2d_backward spreads, at a time: 256 KiB, so
# their buffers stay cache-sized at any batch size.
GRAD_CHUNK = 2**15


@dataclass
class ConvCache:
    flat: np.ndarray  # (B, Cin, stride**2, rows * grid_width), see _layout
    stride: int
    shape: tuple  # (B, Cin, H, W) of the input


@functools.lru_cache(maxsize=64)  # a handful of shapes; uncached, the forecast op read 1.025-1.029x
def _layout(h: int, w: int, stride: int):
    """Geometry of the flat polyphase buffer of an (h, w) input.

    Returns (ho, wo, grid_width, rows, phases, taps).  Each phase is
    (plane, buffer rows, buffer cols, input rows, input cols): the slices
    that copy the input into, or gather a gradient out of, that plane.  Each
    tap, in (ky, kx) order, is (plane, row shift, col shift, flat offset).
    """
    reach = (KERNEL - 1) // stride
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    gw, rows = wo + reach, ho + reach + 1  # one slack row for the last tap's tail

    def polyphase(size, phase):
        first = -(-(PAD - phase) // stride)  # first plane index holding input
        start = stride * first + phase - PAD
        count = len(range(start, size, stride))
        return slice(first, first + count), slice(start, size, stride)

    phases = []
    for py in range(stride):
        for px in range(stride):
            (dr, sr), (dc, sc) = polyphase(h, py), polyphase(w, px)
            phases.append((py * stride + px, dr, dc, sr, sc))
    taps = []
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            dy, dx = ky // stride, kx // stride
            taps.append(((ky % stride) * stride + kx % stride, dy, dx, dy * gw + dx))
    return ho, wo, gw, rows, tuple(phases), tuple(taps)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int):
    """3x3 padded convolution; w is (Cout, Cin*9)."""
    bsz, cin, h, wd = x.shape
    if w.shape[1] != cin * KERNEL * KERNEL:
        raise ShapeError(f"conv weight {w.shape} incompatible with {cin} input channels")
    cout = w.shape[0]
    ho, wo, gw, rows, phases, offsets = _layout(h, wd, stride)
    flat = np.zeros((bsz, cin, stride * stride, rows * gw))
    planes = flat.reshape(bsz, cin, stride * stride, rows, gw)
    for p, dr, dc, sr, sc in phases:
        planes[:, :, p, dr, dc] = x[:, :, sr, sc]
    taps = w.reshape(cout, cin, KERNEL * KERNEL)
    n = ho * gw
    cache = ConvCache(flat=flat, stride=stride, shape=x.shape)
    # Chunks of samples: one whole-batch sum read the train op 1.027-1.034x.
    chunk = min(bsz, max(1, GRAD_CHUNK // (cout * n)))
    # One chunk holds the batch: the chunk loop alone read the forecast op 1.009-1.011x.
    if chunk == bsz:
        out = np.zeros((bsz, cout, n))
        for k, (p, _, _, off) in enumerate(offsets):
            out += taps[:, :, k] @ flat[:, :, p, off:off + n]
        return out.reshape(bsz, cout, ho, gw)[..., :wo] + b[:, None, None], cache
    out = np.empty((bsz, cout, ho, wo))
    for c in range(0, bsz, chunk):
        part = flat[c:c + chunk]
        total = np.zeros((part.shape[0], cout, n))
        for k, (p, _, _, off) in enumerate(offsets):
            total += taps[:, :, k] @ part[:, :, p, off:off + n]
        np.add(total.reshape(-1, cout, ho, gw)[..., :wo], b[:, None, None], out[c:c + chunk])
    return out, cache


def conv2d_backward(grad_out: np.ndarray, w: np.ndarray, cache: ConvCache, first_grad_channel: int = 0):
    """Returns (grad_w, grad_b, grad_x).

    grad_x covers input channels first_grad_channel onward only, so a
    caller that reads just the trailing channels skips the rest.
    """
    bsz, cout, ho, wo = grad_out.shape
    _, cin, h, wd = cache.shape
    stride = cache.stride
    _, _, gw, rows, phases, offsets = _layout(h, wd, stride)
    planes = cache.flat.reshape(bsz, cin, stride * stride, rows, gw)
    g = grad_out.reshape(bsz, cout, ho * wo)
    taps = w.reshape(cout, cin, KERNEL * KERNEL)
    grad_w = np.empty_like(taps)
    cg = cin - first_grad_channel
    if cg == 1 or wo == 1:  # these shapes keep the window form (module docstring)
        grad_planes = np.zeros((bsz, cg, stride * stride, rows, gw))
        for k, (p, dy, dx, _) in enumerate(offsets):
            window = (slice(None), slice(None), p, slice(dy, dy + ho), slice(dx, dx + wo))
            view = planes[window].reshape(bsz, cin, ho * wo)
            grad_w[:, :, k] = np.matmul(g, view.transpose(0, 2, 1)).sum(axis=0)
            grad_planes[window] += (taps[:, first_grad_channel:, k].T @ g).reshape(bsz, -1, ho, wo)
        grad_x = np.empty((bsz, cg, h, wd))
        for p, dr, dc, sr, sc in phases:
            grad_x[:, :, sr, sc] = grad_planes[:, :, p, dr, dc]
        return grad_w.reshape(w.shape), g.sum(axis=(0, 2)), grad_x
    # Taps sharing a plane and a column shift read rows dy.. of one copy,
    # made in one reused buffer: a fresh copy per shift read the train op 1.008-1.010x.
    shifted = np.empty((bsz, cin, rows, wo))
    for p, dx in dict.fromkeys((p, dx) for p, _, dx, _ in offsets):
        np.copyto(shifted, planes[:, :, p, :, dx:dx + wo])
        for k, (tap_p, dy, tap_dx, _) in enumerate(offsets):
            if (tap_p, tap_dx) == (p, dx):
                view = shifted[:, :, dy:dy + ho].reshape(bsz, cin, ho * wo)
                grad_w[:, :, k] = np.matmul(g, view.transpose(0, 2, 1)).sum(axis=0)
    del shifted, view
    # grad_out on the forward's output grid, after `margin` zeros: plane cell
    # j takes tap k's product at grid cell j - offset, which is zero off the
    # grid.  Whole samples go through at a time, as many as GRAD_CHUNK allows.
    margin = max(off for *_, off in offsets)
    seg = margin + rows * gw
    chunk = min(bsz, max(1, GRAD_CHUNK // (cout * seg)))
    # One zeroed grid for every chunk: a fresh one per chunk read the train op 1.005-1.008x.
    g_flat = np.zeros((chunk, cout, seg))
    grad_x = np.empty((bsz, cg, h, wd))
    for b in range(0, bsz, chunk):
        part = grad_out[b:b + chunk]
        n = part.shape[0]
        g_flat[:n, :, margin:margin + ho * gw].reshape(n, cout, ho, gw)[..., :wo] = part
        for p, dr, dc, sr, sc in phases:
            lo, hi = dr.start * gw, dr.stop * gw
            acc = np.zeros((n, cg, hi - lo))
            for k, (tap_p, _, _, off) in enumerate(offsets):
                if tap_p == p:
                    run = g_flat[:n, :, margin + lo - off:margin + hi - off]
                    acc += taps[:, first_grad_channel:, k].T @ run
            grad_x[b:b + n, :, sr, sc] = acc.reshape(n, cg, dr.stop - dr.start, gw)[..., dc]
    return grad_w.reshape(w.shape), g.sum(axis=(0, 2)), grad_x


def tanh_backward(grad_y: np.ndarray, y: np.ndarray) -> np.ndarray:
    """grad_y * (1 - y * y), the gradient through y = tanh(x)."""
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
