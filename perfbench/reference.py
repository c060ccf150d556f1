"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's hosts are shared: the same code runs up to ~40% slower for
stretches of seconds to minutes.  The end-to-end timings are therefore
taken in units of this kernel, run in the same process right beside the
work it normalises, and scaled to REF_MS, its time on a quiet host:

    normalised = measured * REF_MS / (reference time measured alongside)

The kernel mixes what harecast's layers spend time on: a 3x3 im2col
convolution and its weight gradient (float64 GEMMs), a softmax over a
small attention matrix, and a Python loop over small-array reductions, as
in the metrics.  It depends on nothing in harecast, so a change to
harecast cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# About the median time of reference() on a quiet 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS on one thread), where it took 4.8-5.6
# ms.  Normalised timings read as milliseconds on that host.
REF_MS = 5.0

_rng = np.random.default_rng(20260517)
_X = _rng.standard_normal((4, 16, 34, 34))
_W = _rng.standard_normal((16 * 9, 16))
_V = _rng.standard_normal((64, 64))
_FRAMES = _rng.random((40, 32, 32))


def reference() -> float:
    cols = sliding_window_view(_X, (3, 3), axis=(2, 3))
    cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 16 * 9)
    y = np.maximum(cols @ _W, 0.0)
    grad_w = cols.T @ y
    a = np.tanh(_V @ _V.T * 0.01)
    a = np.exp(a - a.max(axis=1, keepdims=True))
    a /= a.sum(axis=1, keepdims=True)
    acc = 0.0
    for frame in _FRAMES:
        hit = frame > 0.5
        acc += float(hit.sum()) + float(frame[hit].mean())
        acc += float(np.abs(np.diff(frame, axis=0)).mean())
    return float(grad_w.sum()) + float(a.sum()) + acc


def time_host() -> float:
    """Seconds one reference() call takes now: the median of three calls.

    The first call after other work finds cold caches and runs slower;
    the median discards it.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
