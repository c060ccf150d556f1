"""Multi-head self-attention with exact analytic forward and backward.

The forward pass exposes every head's attention map A, value tensor V and
response O = A V, which downstream energy statistics consume.  The backward
pass is hand-derived (the graph is small and fixed) and accepts an extra
gradient injected directly at O, which is how the energy-stabilization loss
reaches the attention parameters without re-deriving a combined objective.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor_core import SeededRng, softmax_rows, weight_grad

__all__ = [
    "AttentionConfig",
    "AttentionParams",
    "HeadActivations",
    "MhaCache",
    "LinearHead",
    "mha_forward",
    "mha_backward",
    "sigma_min",
]


@dataclass(frozen=True)
class AttentionConfig:
    model_dim: int
    heads: int

    def __post_init__(self):
        if self.model_dim <= 0 or self.heads <= 0:
            raise ConfigError("model_dim and heads must be positive")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass
class AttentionParams:
    """Projection weights of one attention block.

    Doubles as the gradient container: backward returns an instance with
    the same field layout holding dL/d(parameter).
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray

    @classmethod
    def init(cls, cfg: AttentionConfig, rng: SeededRng, scale: float | None = None) -> "AttentionParams":
        d = cfg.model_dim
        s = scale if scale is not None else 1.0 / np.sqrt(d)
        return cls(
            wq=rng.normal((d, d)) * s,
            wk=rng.normal((d, d)) * s,
            wv=rng.normal((d, d)) * s,
            wo=rng.normal((d, d)) * s,
            bq=np.zeros(d),
            bk=np.zeros(d),
            bv=np.zeros(d),
            bo=np.zeros(d),
        )

    def items(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass
class HeadActivations:
    """Per-head attention maps, values and responses for one block.

    a: (B, M, N, N), v: (B, M, N, d_h), o: (B, M, N, d_h) with o = a @ v.
    """

    a: np.ndarray
    v: np.ndarray
    o: np.ndarray


@dataclass
class MhaCache:
    """Forward activations saved for the analytic backward pass."""

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    acts: HeadActivations


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


def mha_forward(x: np.ndarray, cfg: AttentionConfig, params: AttentionParams):
    """Scaled-dot-product multi-head attention over a token batch.

    x is (B, N, d).  Returns (y, cache) where y is (B, N, d) and
    cache.acts holds A, V, O for every head.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != cfg.model_dim:
        raise ShapeError(
            f"input must be (B, N, {cfg.model_dim}), got {x.shape}"
        )
    for name, p in params.items():
        want = (cfg.model_dim, cfg.model_dim) if name.startswith("w") else (cfg.model_dim,)
        if p.shape != want:
            raise ShapeError(f"parameter {name} has shape {p.shape}, expected {want}")

    scale = 1.0 / np.sqrt(cfg.head_dim)
    q = _split_heads(x @ params.wq + params.bq, cfg.heads)
    k = _split_heads(x @ params.wk + params.bk, cfg.heads)
    v = _split_heads(x @ params.wv + params.bv, cfg.heads)

    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
    a = softmax_rows(scores)
    o = np.matmul(a, v)

    y = _merge_heads(o) @ params.wo + params.bo
    return y, MhaCache(x=x, q=q, k=k, acts=HeadActivations(a=a, v=v, o=o))


def mha_backward(
    cfg: AttentionConfig,
    params: AttentionParams,
    cache: MhaCache,
    grad_y: np.ndarray | None,
    grad_o_extra: np.ndarray | None = None,
):
    """Exact gradients of (downstream loss + extra O-path loss).

    grad_y is dL/dy (B, N, d) or None for zero; grad_o_extra is an
    additional dL/dO (B, M, N, d_h) injected at the head responses.
    Returns (grads: AttentionParams, grad_x: (B, N, d)).
    """
    if cache is None:
        raise StateError("mha_backward needs the cache saved by mha_forward")
    x, q, k = cache.x, cache.q, cache.k
    a, v, o = cache.acts.a, cache.acts.v, cache.acts.o
    bsz, n, d = x.shape
    scale = 1.0 / np.sqrt(cfg.head_dim)

    if grad_y is None:
        grad_y = np.zeros_like(x)
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

    g_o = _split_heads(grad_y @ params.wo.T, cfg.heads)
    if grad_o_extra is not None:
        g_o = g_o + grad_o_extra

    g_a = np.matmul(g_o, v.transpose(0, 1, 3, 2))
    g_v = np.matmul(a.transpose(0, 1, 3, 2), g_o)
    # Softmax rows: dS = A * (dA - rowsum(dA * A)).
    g_s = a * (g_a - np.sum(g_a * a, axis=-1, keepdims=True))
    g_q = np.matmul(g_s, k) * scale
    g_k = np.matmul(g_s.transpose(0, 1, 3, 2), q) * scale

    g_q, g_k, g_v = (_merge_heads(t) for t in (g_q, g_k, g_v))

    grads = AttentionParams(
        wq=weight_grad(x, g_q),
        wk=weight_grad(x, g_k),
        wv=weight_grad(x, g_v),
        wo=g_wo,
        bq=g_q.sum(axis=(0, 1)),
        bk=g_k.sum(axis=(0, 1)),
        bv=g_v.sum(axis=(0, 1)),
        bo=g_bo,
    )
    grad_x = g_q @ params.wq.T + g_k @ params.wk.T + g_v @ params.wv.T
    return grads, grad_x


def sigma_min(w) -> float:
    """Smallest singular value of a nonempty matrix (0 if rank-deficient)."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ShapeError(f"sigma_min needs a nonempty matrix, got shape {w.shape}")
    return float(np.linalg.svd(w, compute_uv=False)[-1])
