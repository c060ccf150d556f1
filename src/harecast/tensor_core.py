"""Dense-array kernel: row softmax, token weight gradients, squared error and the seeded RNG.

All numerics run on 64-bit floats carried by numpy arrays in row-major
order.  Randomness comes from a counter-based Philox stream, so identical
seeds reproduce identical value streams on every platform; normal variates
are produced by a fixed Box-Muller transform over that uniform stream.
Any position of a stream can be read directly (SeededRng.at), so a large
normal draw can be read a block of whole rows at a time
(SeededRng.normal_rows) with the values it has when drawn whole.
Invalid draw shapes raise ShapeError; a seed or stream outside the Philox
key's [0, 2**64) raises ConfigError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "SeededRng",
    "check_seed",
    "mse",
    "softmax_rows",
    "sum_last",
    "weight_grad",
]


def softmax_rows(a) -> np.ndarray:
    """Row-wise softmax with max-subtraction, bitwise as NumPy's max and sum over the last axis.

    Rows shorter than 8 are reduced column by column: a max is exact in any
    order, and sum_last keeps NumPy's order.  The argument is not changed:
    the softmax runs on a copy.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim < 1:
        raise ShapeError("softmax_rows needs at least one axis")
    return _softmax_in_place(a)


def _softmax_in_place(a: np.ndarray) -> np.ndarray:
    """softmax_rows written into a float64 array a, which it returns."""
    n = a.shape[-1]
    if n >= 8:
        a -= np.max(a, axis=-1, keepdims=True)
    else:
        a -= functools.reduce(np.maximum, [a[..., j] for j in range(n)])[..., None]
    np.exp(a, out=a)
    a /= sum_last(a)[..., None]
    return a


def sum_last(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, bitwise np.sum(a, axis=-1).

    NumPy adds fewer than 8 terms left to right, so short rows are summed
    column by column in that order, without the reduction's per-row cost
    (one column gives a view of it).
    """
    if a.shape[-1] >= 8:
        return np.sum(a, axis=-1)
    return sum((a[..., j] for j in range(1, a.shape[-1])), a[..., 0])


def weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sum over all leading axes of x^T g: (..., d) and (..., e) -> (d, e).

    The gradient of a weight applied to every token, as one BLAS GEMM over
    the flattened rows.
    """
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error: (loss, per-sample terms whose mean is loss, grad wrt pred)."""
    diff = pred - target
    sq = diff * diff
    count = diff.size
    per_sample = np.sum(sq, axis=tuple(range(1, diff.ndim))) * (diff.shape[0] / count)
    diff *= 2.0  # diff becomes the gradient, 2 diff / count
    diff /= count
    return float(np.sum(sq)) / count, per_sample, diff


def _box_muller(r: np.ndarray, theta: np.ndarray) -> None:
    """Box-Muller in place: uniform pairs (r, theta) become normal pairs (r cos, r sin).

    r becomes sqrt(-2 log(1 - r)) cos(2 pi theta) and theta the matching
    sine; cos(2 pi theta) is the one temporary.
    """
    # 1 - u is in (0, 1], so log() is finite.
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * math.pi, theta, out=theta)
    cos_theta = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos_theta


def _check_shape(shape) -> tuple[int, ...]:
    dims = tuple(int(d) for d in shape)
    if len(dims) == 0:
        raise ShapeError("empty shape is not a valid tensor shape")
    if any(d <= 0 for d in dims):
        raise ShapeError(f"all dimensions must be positive, got {dims}")
    return dims


def check_seed(name: str, seed: int) -> None:
    """Refuse a user seed outside [0, 2**63): the suites add at most ~10^4 to it."""
    if not 0 <= seed < 2**63:
        raise ConfigError(f"{name} must be in [0, 2**63), got {seed}")


class SeededRng:
    """Deterministic random stream keyed by (seed, stream).

    Backed by the Philox-4x64 counter generator.  Two instances built with
    the same key produce bitwise-identical draws regardless of platform or
    draw interleaving history of other instances.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= value < 2**64:
                raise ConfigError(f"SeededRng {name} must be in [0, 2**64), got {value}")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream: int) -> "SeededRng":
        """Independent substream sharing this seed."""
        return SeededRng(self.seed, stream)

    def at(self, position: int) -> "SeededRng":
        """A new stream of this key that starts at uniform draw `position` of the key's stream.

        Positions count from the key's first draw, whatever this instance has
        drawn.  Philox turns each counter value into four 64-bit words and a
        uniform takes one word, so the counter advances position // 4 and
        position % 4 words are discarded.
        """
        if position < 0:
            raise ConfigError(f"stream position must be >= 0, got {position}")
        rng = SeededRng(self.seed, self.stream)
        rng._gen.bit_generator.advance(position // 4)
        if position % 4:
            rng._gen.random(position % 4)
        return rng

    def uniform(self, shape) -> np.ndarray:
        """Uniform draws in [0, 1)."""
        dims = _check_shape(shape)
        return self._gen.random(dims, dtype=np.float64)

    def fill_uniform(self, out: np.ndarray) -> None:
        """Fill a float64 C-contiguous array with the draws uniform(out.shape) would return."""
        self._gen.random(out=out)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller over the uniform stream.

        The first pairs values are r cos(theta), the rest r sin(theta).  The
        transform runs in place in the (2, pairs) uniform buffer, which
        becomes the output.
        """
        dims = _check_shape(shape)
        n = int(np.prod(dims))
        u = self._gen.random((2, (n + 1) // 2), dtype=np.float64)
        _box_muller(*u)
        return u.reshape(-1)[:n].reshape(dims)

    def normal_rows(self, position: int, rows: int, width: int, block_rows: int):
        """normal((rows, width)) read from uniform `position` of this key's stream, in whole rows.

        Yields (first, values), where values holds rows first, first + 1, ...
        of the draw, at most block_rows of them.  Each step transforms
        block_rows * width Box-Muller pairs, read once by two sequential
        readers (one for the r uniforms, one for the theta uniforms), so the
        rows hold bitwise the values of the whole draw.  A pair's cos value
        lies in the front half of the draw and its sin value in the back
        half, so front rows and back rows arrive interleaved; the row that
        holds both the last cos values and the first sin values comes last.
        """
        pairs = (rows * width + 1) // 2
        step = block_rows * width
        head = -pairs % width  # sin values that close the row shared by the halves
        back = -(-pairs // width)  # the next row of sin values only
        r_in, theta_in = self.at(position), self.at(position + pairs)
        sin = np.empty(0)
        for start in range(0, pairs, step):
            cos = r_in.uniform((min(step, pairs - start),))
            # sin values carried from the last step, then this step's
            fresh = np.empty(sin.size + cos.size)
            fresh[:sin.size] = sin
            theta_in.fill_uniform(fresh[sin.size:])
            _box_muller(cos, fresh[sin.size:])
            if start == 0:
                shared, fresh = fresh[:head], fresh[head:]
            whole = cos.size // width
            if whole:
                yield start // width, cos[:whole * width].reshape(whole, width)
            # For an odd rows * width the last sin value lies past the draw.
            count = min(fresh.size // width, rows - back)
            if count:
                yield back, fresh[:count * width].reshape(count, width)
            back += count
            sin = fresh[count * width:]
        if head:  # the last step's cos values past its whole rows open the shared row
            yield pairs // width, np.concatenate((cos[whole * width:], shared))[None]

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
