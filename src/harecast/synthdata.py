"""Toy precipitation-like sequences: advecting Gaussian blobs, two sources.

Frames are evaluated analytically per time step (no numeric advection), so
translation properties are exact and testable.  The satellite channel is a
blurred, spatially offset transform of the radar field, emulating a second
observation source with imperfect consistency.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor_core import SeededRng

__all__ = [
    "BlobSpec",
    "EventSpec",
    "FrameSequence",
    "generate_event",
    "random_event_spec",
    "make_split",
    "save_tensors",
    "load_tensors",
]

SAT_BLUR_SIGMA = 1.0
SAT_OFFSET = (2, 1)  # (rows, cols)


@dataclass(frozen=True)
class BlobSpec:
    center: tuple[float, float]  # (row, col) at t=0
    velocity: tuple[float, float]  # pixels per frame
    amplitude: float
    radius: float
    growth: float = 0.0  # per-frame log-amplitude rate


@dataclass(frozen=True)
class EventSpec:
    blobs: tuple[BlobSpec, ...]
    seed: int


@dataclass
class FrameSequence:
    """T x H x W intensity field in [0, 1] with a source tag."""

    frames: np.ndarray
    modality: str
    dt_minutes: float = 5.0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise ShapeError(f"frames must be (T,H,W), got {self.frames.shape}")
        if self.modality not in ("radar", "satellite"):
            raise ConfigError(f"unknown modality {self.modality!r}")


def _gaussian_kernel(sigma: float, half: int = 2) -> np.ndarray:
    ax = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(ax**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def _blur_shift(frame: np.ndarray) -> np.ndarray:
    k = _gaussian_kernel(SAT_BLUR_SIGMA)
    half = k.shape[0] // 2
    padded = np.pad(frame, half, mode="constant")
    out = np.zeros_like(frame)
    for dy in range(k.shape[0]):
        for dx in range(k.shape[1]):
            out += k[dy, dx] * padded[dy:dy + frame.shape[0], dx:dx + frame.shape[1]]
    shifted = np.zeros_like(out)
    oy, ox = SAT_OFFSET
    shifted[oy:, ox:] = out[: out.shape[0] - oy, : out.shape[1] - ox]
    return shifted


def generate_event(spec: EventSpec, t_len: int, height: int, width: int):
    """Render (radar, satellite) FrameSequences for one event.

    Radar frame t is the clipped sum of Gaussians advected by t*velocity
    with amplitude amp*exp(growth*t), evaluated in closed form.
    """
    if t_len <= 0 or height <= 0 or width <= 0:
        raise ConfigError("t_len, height, width must be positive")
    for b in spec.blobs:
        if not (0 <= b.center[0] < height and 0 <= b.center[1] < width):
            raise ConfigError(f"blob center {b.center} outside {height}x{width} domain at t=0")
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    radar = np.zeros((t_len, height, width))
    for t in range(t_len):
        acc = np.zeros((height, width))
        for b in spec.blobs:
            cy = b.center[0] + t * b.velocity[0]
            cx = b.center[1] + t * b.velocity[1]
            amp = b.amplitude * np.exp(b.growth * t)
            acc += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * b.radius**2))
        radar[t] = np.clip(acc, 0.0, 1.0)
    sat = np.clip(np.stack([_blur_shift(f) for f in radar]), 0.0, 1.0)
    return (
        FrameSequence(frames=radar, modality="radar"),
        FrameSequence(frames=sat, modality="satellite"),
    )


def random_event_spec(seed: int, height: int, width: int) -> EventSpec:
    """Draw a blob configuration with centers inside the domain."""
    rng = SeededRng(seed, stream=11)
    n_blobs = int(rng.integers(1, 4))
    blobs = []
    for _ in range(n_blobs):
        u = rng.uniform((7,))
        blobs.append(
            BlobSpec(
                center=(2 + u[0] * (height - 4), 2 + u[1] * (width - 4)),
                velocity=(u[2] * 2.4 - 1.2, u[3] * 2.4 - 1.2),
                amplitude=0.4 + 0.6 * u[4],
                radius=2.0 + 4.0 * u[5],
                growth=0.08 * (u[6] - 0.5),
            )
        )
    return EventSpec(blobs=tuple(blobs), seed=seed)


def make_split(seed: int, n_train: int, n_val: int, n_test: int, height: int, width: int):
    """Three event collections over disjoint per-event seed ranges.

    Event seeds are seed + index over consecutive, non-overlapping index
    blocks, so regenerating with the same arguments is bit-identical and
    no seed appears in two splits.
    """
    if min(n_train, n_val, n_test) <= 0:
        raise ConfigError("split sizes must be positive")
    offsets = (0, n_train, n_train + n_val)
    sizes = (n_train, n_val, n_test)
    out = []
    for off, size in zip(offsets, sizes):
        out.append(tuple(random_event_spec(seed + off + i, height, width) for i in range(size)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Binary tensor container: magic, entry count, then per entry a name,
# a shape header and row-major little-endian float64 payload.
# ---------------------------------------------------------------------------

_MAGIC = b"HCT1"


def save_tensors(path, tensors: dict) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise DataError(f"{path}: truncated tensor container")
    return data


def load_tensors(path) -> dict:
    """Inverse of save_tensors; a malformed or truncated file raises DataError."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != _MAGIC:
            raise DataError(f"{path} is not a tensor container")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, path))
            try:
                name = _read_exact(fh, nlen, path).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: entry name is not UTF-8") from exc
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, path))[0] for _ in range(ndim))
            # Python ints: a header shape cannot wrap the byte count.
            nbytes = 8 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise DataError(
                    f"{path}: truncated tensor container (entry {name!r} of shape "
                    f"{shape} needs {nbytes} bytes, {size - fh.tell()} left)"
                )
            data = np.frombuffer(_read_exact(fh, nbytes, path), dtype="<f8").reshape(shape)
            out[name] = np.array(data, dtype=np.float64)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last entry")
        return out

