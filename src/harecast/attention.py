"""Multi-head self-attention with exact analytic forward and backward.

The forward pass exposes every head's attention map A, value tensor V and
response O = A V, which downstream energy statistics consume.  The backward
pass is hand-derived (the graph is small and fixed) and accepts an extra
gradient injected directly at O, which is how the energy-stabilization loss
reaches the attention parameters without re-deriving a combined objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor_core import SeededRng, _softmax_in_place, weight_grad

__all__ = [
    "PARAM_NAMES",
    "MhaCache",
    "LinearHead",
    "init_attention",
    "mha_forward",
    "mha_backward",
    "sigma_min",
]

# An attention block's parameters are a plain dict with these keys: the
# (d, d) projections then their (d,) biases.  Backward returns its
# gradients in a dict of the same layout.
PARAM_NAMES = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")


def init_attention(dim: int, rng: SeededRng, scale: float | None = None) -> dict:
    """Gaussian projections drawn wq, wk, wv, wo in order, times scale (default 1/sqrt(dim)); zero biases."""
    s = scale if scale is not None else 1.0 / np.sqrt(dim)
    params = {name: rng.normal((dim, dim)) * s for name in PARAM_NAMES[:4]}
    params.update({name: np.zeros(dim) for name in PARAM_NAMES[4:]})
    return params


@dataclass
class MhaCache:
    """Forward activations saved for the analytic backward pass.

    Per head: attention maps a (B, M, N, N), values v and responses
    o = a @ v, both (B, M, N, d_h); q and k are split the same way.
    """

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    a: np.ndarray
    v: np.ndarray
    o: np.ndarray


@dataclass
class LinearHead:
    """Affine read-out y = w @ f + b used in the variance-bound checks."""

    w: np.ndarray
    b: np.ndarray

    @classmethod
    def from_matrix(cls, w) -> "LinearHead":
        w = np.asarray(w, dtype=np.float64)
        return cls(w=w, b=np.zeros(w.shape[0]))


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    b, n, d = t.shape
    return t.reshape(b, n, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(t: np.ndarray) -> np.ndarray:
    b, m, n, dh = t.shape
    return t.transpose(0, 2, 1, 3).reshape(b, n, m * dh)


def _project(t: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t @ w + b as one (B·N, d) @ (d, d) GEMM, bitwise as NumPy's per-sample GEMMs.

    At N = 1 NumPy's per-sample product is a gemv, whose bits may differ.
    """
    if t.shape[1] == 1:
        return t @ w + b
    return (t.reshape(-1, t.shape[-1]) @ w).reshape(t.shape) + b


def mha_forward(x: np.ndarray, params: dict, heads: int):
    """Scaled-dot-product multi-head attention over a token batch.

    x is (B, N, d) with d = params["wq"].shape[0], and heads must divide d.
    Returns (y, cache) where y is (B, N, d) and cache holds A, V, O for
    every head.
    """
    d = params["wq"].shape[0]
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"input must be (B, N, {d}), got {x.shape}")
    for name in PARAM_NAMES:
        want = (d, d) if name.startswith("w") else (d,)
        if params[name].shape != want:
            raise ShapeError(f"parameter {name} has shape {params[name].shape}, expected {want}")
    if heads < 1 or d % heads:
        raise ConfigError(f"model dim {d} not divisible by heads {heads}")

    scale = 1.0 / np.sqrt(d // heads)
    q, k, v = (_split_heads(_project(x, params["w" + c], params["b" + c]), heads) for c in "qkv")

    # The scores become the attention maps in place; scaling out of place read 0.994-1.004x (noise).
    a = np.matmul(q, k.transpose(0, 1, 3, 2))
    a *= scale
    _softmax_in_place(a)
    o = np.matmul(a, v)

    y = _project(_merge_heads(o), params["wo"], params["bo"])
    return y, MhaCache(x=x, q=q, k=k, a=a, v=v, o=o)


def mha_backward(
    params: dict,
    heads: int,
    cache: MhaCache,
    grad_y: np.ndarray,
    grad_o_extra: np.ndarray | None = None,
):
    """Exact gradients of (downstream loss + extra O-path loss).

    grad_y is the array dL/dy (B, N, d), zeros when only the O path has a
    loss; grad_o_extra is an additional dL/dO (B, M, N, d_h) injected at
    the head responses.
    Returns (grads: dict keyed by PARAM_NAMES, grad_x: (B, N, d)).
    """
    if cache is None:
        raise StateError("mha_backward needs the cache saved by mha_forward")
    x, q, k, a, v, o = cache.x, cache.q, cache.k, cache.a, cache.v, cache.o
    scale = 1.0 / np.sqrt(x.shape[2] // heads)

    grad_y = np.asarray(grad_y, dtype=np.float64)
    if grad_y.shape != x.shape:
        raise ShapeError(f"grad_y shape {grad_y.shape} != input shape {x.shape}")
    if grad_o_extra is not None and grad_o_extra.shape != o.shape:
        raise ShapeError(
            f"grad_o_extra shape {grad_o_extra.shape} != O shape {o.shape}"
        )

    o_cat = _merge_heads(o)
    g_wo = weight_grad(o_cat, grad_y)
    g_bo = grad_y.sum(axis=(0, 1))

    g_o = _split_heads(grad_y @ params["wo"].T, heads)
    if grad_o_extra is not None:
        g_o = g_o + grad_o_extra

    # dS, dQ, dK and grad_x form in place: out of place read the train op 1.001-1.013x.
    g_s = np.matmul(g_o, v.transpose(0, 1, 3, 2))  # dA, then dS in place
    g_v = np.matmul(a.transpose(0, 1, 3, 2), g_o)
    # Softmax rows: dS = A * (dA - rowsum(dA * A)).
    g_s -= np.sum(g_s * a, axis=-1, keepdims=True)
    g_s *= a
    g_q = np.matmul(g_s, k)
    g_q *= scale
    g_k = np.matmul(g_s.transpose(0, 1, 3, 2), q)
    g_k *= scale

    g_q, g_k, g_v = (_merge_heads(t) for t in (g_q, g_k, g_v))

    grads = {
        "wq": weight_grad(x, g_q),
        "wk": weight_grad(x, g_k),
        "wv": weight_grad(x, g_v),
        "wo": g_wo,
        "bq": g_q.sum(axis=(0, 1)),
        "bk": g_k.sum(axis=(0, 1)),
        "bv": g_v.sum(axis=(0, 1)),
        "bo": g_bo,
    }
    grad_x = g_q @ params["wq"].T
    grad_x += g_k @ params["wk"].T
    grad_x += g_v @ params["wv"].T
    return grads, grad_x


def sigma_min(w) -> float:
    """Smallest singular value of a nonempty matrix (0 if rank-deficient)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ShapeError(f"sigma_min needs a nonempty matrix, got shape {w.shape}")
    return float(np.linalg.svd(w, compute_uv=False)[-1])
