"""Forecast-verification metrics for gridded intensity fields.

Fields live in [0, 1] and are mapped to the 0-255 convention at
binarization time.  Contingency counts pool every pixel of a sequence by
default; a per-frame averaging mode exists for diagnostics.  Thresholds at
which neither events nor predictions occur are excluded from multi-
threshold averages rather than scored 0 or 1, so degenerate thresholds
cannot dominate toy-scale scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "ContingencyCounts",
    "TTestResult",
    "SEVIR_THRESHOLDS",
    "METEONET_THRESHOLDS",
    "SSIM_WINDOW",
    "contingency",
    "csi",
    "csi_m",
    "pooled_csi",
    "hss",
    "ssim",
    "paired_t_test",
    "evaluate_pair",
]

SEVIR_THRESHOLDS = (16, 74, 133, 160, 181, 219)
METEONET_THRESHOLDS = (12, 18, 24, 32)
SSIM_WINDOW = 7  # side of SSIM's square windows, in pixels


@dataclass(frozen=True)
class ContingencyCounts:
    hits: int
    false_alarms: int
    misses: int
    correct_negatives: int

    @property
    def total(self) -> int:
        return self.hits + self.false_alarms + self.misses + self.correct_negatives


def _field(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _threshold_counts(p: np.ndarray, t: np.ndarray, thresholds) -> tuple:
    """Hits, false alarms, misses and correct negatives per threshold and frame.

    Returns four int arrays of shape (thresholds, frames).  A field of at
    most two dimensions is one frame; otherwise the leading axis indexes
    frames.  Both fields are binarized at every threshold in one pass.
    """
    if p.shape != t.shape:
        raise ShapeError(f"pred shape {p.shape} != truth shape {t.shape}")
    frames = p.shape[0] if p.ndim > 2 else 1
    pixels = math.prod(p.shape[1:]) if p.ndim > 2 else p.size
    thr = np.asarray(thresholds, dtype=np.float64).reshape(-1, 1, 1)
    pb = p.reshape(frames, pixels) * 255.0 >= thr
    tb = t.reshape(frames, pixels) * 255.0 >= thr
    hits = np.count_nonzero(pb & tb, axis=-1)
    predicted = np.count_nonzero(pb, axis=-1)
    observed = np.count_nonzero(tb, axis=-1)
    return hits, predicted - hits, observed - hits, pixels - predicted - observed + hits


def _counts_at(counts: tuple, i: int) -> ContingencyCounts:
    """The sequence-pooled table of threshold i from _threshold_counts output."""
    return ContingencyCounts(*(int(c[i].sum()) for c in counts))


def contingency(pred, truth, thr: float) -> ContingencyCounts:
    """Pixel counts after binarizing both fields at thr on the 0-255 scale."""
    return _counts_at(_threshold_counts(_field(pred), _field(truth), (thr,)), 0)


def csi(cc: ContingencyCounts) -> float:
    denom = cc.hits + cc.false_alarms + cc.misses
    return cc.hits / denom if denom else 0.0


def _threshold_active(cc: ContingencyCounts) -> bool:
    return (cc.hits + cc.false_alarms + cc.misses) > 0


def csi_m(pred, truth, thresholds, per_frame: bool = False) -> float:
    """Mean CSI over thresholds, skipping event-free/prediction-free ones.

    Returns nan when every threshold is skipped.  per_frame averages the
    per-frame CSI (over frames where the threshold is active) instead of
    pooling counts over the whole sequence; a 2-D field is one frame.
    """
    hits, false_alarms, misses, _ = _threshold_counts(_field(pred), _field(truth), tuple(thresholds))
    events = hits + false_alarms + misses
    if not per_frame:
        hits, events = hits.sum(axis=1, keepdims=True), events.sum(axis=1, keepdims=True)
    vals = []
    for h, e in zip(hits, events):
        active = e > 0
        if active.any():
            vals.append(float(np.mean(h[active] / e[active])))
    return float(np.mean(vals)) if vals else math.nan


def _max_pool(frames: np.ndarray, pool: int) -> np.ndarray:
    if pool < 1:
        raise ConfigError(f"pool must be >= 1, got {pool}")
    if pool == 1:
        return frames
    h, w = frames.shape[-2:]
    if h % pool or w % pool:
        raise ShapeError(f"spatial dims {(h, w)} not divisible by pool {pool}")
    lead = frames.shape[:-2]
    blocks = frames.reshape(*lead, h // pool, pool, w // pool, pool).swapaxes(-3, -2)
    return blocks.reshape(*lead, h // pool, w // pool, pool * pool).max(axis=-1)


def pooled_csi(pred, truth, thr: float, pool: int) -> float:
    """CSI after non-overlapping max-pooling of both fields."""
    return csi(contingency(_max_pool(_field(pred), pool), _max_pool(_field(truth), pool), thr))


def hss(cc: ContingencyCounts) -> float:
    """Heidke skill score from the 2x2 contingency table."""
    a, b, c, d = cc.hits, cc.false_alarms, cc.misses, cc.correct_negatives
    denom = (a + c) * (c + d) + (a + b) * (b + d)
    return 2.0 * (a * d - b * c) / denom if denom else 0.0


def _box_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Mean of every valid window x window patch over the last two axes.

    A separable box filter: shifted-slice sums along W, then along H.
    """
    h, w = x.shape[-2:]
    cols = x[..., : w - window + 1].copy()
    for k in range(1, window):
        cols += x[..., k : k + w - window + 1]
    out = cols[..., : h - window + 1, :].copy()
    for k in range(1, window):
        out += cols[..., k : k + h - window + 1, :]
    return out / (window * window)


def ssim(pred, truth) -> float:
    """Mean local structural similarity over uniform sliding windows.

    Windows are the valid SSIM_WINDOW x SSIM_WINDOW patches of each frame.
    For stacks of frames the per-frame scores are averaged.
    """
    p = _field(pred)
    t = _field(truth)
    if p.shape != t.shape:
        raise ShapeError(f"pred shape {p.shape} != truth shape {t.shape}")
    if p.ndim == 2:
        p, t = p[None], t[None]
    window = SSIM_WINDOW
    if window > min(p.shape[-2:]):
        raise ShapeError(f"window {window} larger than image {p.shape[-2:]}")
    c1, c2 = 0.01**2, 0.03**2  # K1, K2 on the unit dynamic range of [0, 1] fields
    mu_p = _box_mean(p, window)
    mu_t = _box_mean(t, window)
    var_p = _box_mean(p * p, window) - mu_p**2
    var_t = _box_mean(t * t, window) - mu_t**2
    cov = _box_mean(p * t, window) - mu_p * mu_t
    s = ((2 * mu_p * mu_t + c1) * (2 * cov + c2)) / (
        (mu_p**2 + mu_t**2 + c1) * (var_p + var_t + c2)
    )
    return float(np.mean(s.mean(axis=(-2, -1))))


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    dof: int
    degenerate: bool


def paired_t_test(scores_a, scores_b) -> TTestResult:
    """Two-sided paired t test on equal-length score sequences.

    Zero-variance differences yield a degenerate flag instead of a
    statistic.
    """
    # Imported here: loading scipy.special roughly doubles `import harecast`.
    from scipy.special import stdtr

    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"paired sequences disagree: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n < 2:
        raise ConfigError("paired t test needs length >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    dof = n - 1
    if sd == 0.0:
        return TTestResult(t=math.nan, p=math.nan, dof=dof, degenerate=True)
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = 2.0 * float(stdtr(dof, -abs(t)))
    return TTestResult(t=t, p=p, dof=dof, degenerate=False)


def evaluate_pair(pred, truth, thresholds) -> dict:
    """Standard metric bundle for one (prediction, truth) sequence pair.

    Keys come in report order: csi_per_threshold, csi_m, pooled_csi_4,
    pooled_csi_16, hss, ssim.  A score undefined on the input is nan.
    """
    p, t = _field(pred), _field(truth)
    thresholds = tuple(thresholds)
    counts = _threshold_counts(p, t, thresholds)
    active, per_threshold, hss_vals = [], {}, []
    for i, thr in enumerate(thresholds):
        cc = _counts_at(counts, i)
        if _threshold_active(cc):
            active.append(thr)
            per_threshold[thr] = csi(cc)
            hss_vals.append(hss(cc))
    out = {
        "csi_per_threshold": per_threshold,
        "csi_m": float(np.mean(list(per_threshold.values()))) if per_threshold else math.nan,
    }
    h, w = p.shape[-2:]
    for pool in (4, 16):
        # Pool each field once per size, then score the thresholds active at
        # full resolution on the pooled fields.  A pool that does not tile
        # the frame leaves its score undefined (nan).
        pooled = []
        if active and h % pool == 0 and w % pool == 0:
            pp, tp = _max_pool(p, pool), _max_pool(t, pool)
            pooled = [pooled_csi(pp, tp, thr, 1) for thr in active]
        out[f"pooled_csi_{pool}"] = float(np.mean(pooled)) if pooled else math.nan
    out["hss"] = float(np.mean(hss_vals)) if hss_vals else math.nan
    # A frame smaller than the SSIM window leaves SSIM undefined (nan).
    out["ssim"] = ssim(p, t) if min(h, w) >= SSIM_WINDOW else math.nan
    return out
