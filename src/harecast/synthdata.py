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
    "render_radar",
    "render_satellite",
    "random_event_spec",
    "make_split",
    "write_artifact",
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

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 3:
            raise ShapeError(f"frames must be (T,H,W), got {self.frames.shape}")
        if self.modality not in ("radar", "satellite"):
            raise ConfigError(f"unknown modality {self.modality!r}")


def _gaussian_kernel(sigma: float) -> np.ndarray:
    """5 x 5 normalized Gaussian kernel."""
    ax = np.arange(-2, 3, dtype=np.float64)
    g = np.exp(-(ax**2) / (2 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def _blur_shift(frames: np.ndarray) -> np.ndarray:
    """Blur a (T, H, W) stack with the 5 x 5 kernel, then shift it by SAT_OFFSET.

    The stack is zero-padded once; each tap adds into the shifted output
    window directly, so pixels shifted off the grid are never computed.
    """
    k = _gaussian_kernel(SAT_BLUR_SIGMA)
    half = k.shape[0] // 2
    t_len, height, width = frames.shape
    padded = np.zeros((t_len, height + 2 * half, width + 2 * half))
    padded[:, half:half + height, half:half + width] = frames
    shifted = np.zeros_like(frames)
    oy, ox = SAT_OFFSET
    out = shifted[:, oy:, ox:]
    h, w = out.shape[1:]
    for dy in range(k.shape[0]):
        for dx in range(k.shape[1]):
            out += k[dy, dx] * padded[:, dy:dy + h, dx:dx + w]
    return shifted


def render_radar(spec: EventSpec, t_len: int, height: int, width: int) -> np.ndarray:
    """Render one event's (t_len, height, width) radar stack.

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
    steps = np.arange(t_len)[:, None, None]
    radar = np.zeros((t_len, height, width))
    for b in spec.blobs:
        cy = b.center[0] + steps * b.velocity[0]
        cx = b.center[1] + steps * b.velocity[1]
        amp = b.amplitude * np.exp(b.growth * steps)
        radar += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2 * b.radius**2))
    np.clip(radar, 0.0, 1.0, out=radar)
    return radar


def render_satellite(radar: np.ndarray) -> np.ndarray:
    """Blurred, shifted, clipped satellite stack; frame t reads radar frame t only."""
    return np.clip(_blur_shift(radar), 0.0, 1.0)


def generate_event(spec: EventSpec, t_len: int, height: int, width: int):
    """Render (radar, satellite) FrameSequences for one event."""
    radar = render_radar(spec, t_len, height, width)
    return (
        FrameSequence(frames=radar, modality="radar"),
        FrameSequence(frames=render_satellite(radar), modality="satellite"),
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
# Artifact files, and the binary tensor container: magic, entry count, then
# per entry a name, a shape header and row-major little-endian float64 payload.
# ---------------------------------------------------------------------------

_MAGIC = b"HCT1"


def write_artifact(path, data: bytes) -> None:
    """Make `data` the whole of `path`: a hidden temporary file beside it, then os.replace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:  # KeyboardInterrupt too: no temporary file stays behind
        tmp.unlink(missing_ok=True)
        raise


def save_tensors(path, tensors: dict) -> None:
    parts = [_MAGIC, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        arr, enc = np.asarray(arr, dtype="<f8"), name.encode("utf-8")
        parts += [struct.pack(f"<H{len(enc)}sB{arr.ndim}I", len(enc), enc, arr.ndim, *arr.shape), arr.tobytes()]
    write_artifact(path, b"".join(parts))


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
            if name in out:
                raise DataError(f"{path}: entry {name!r} appears twice")
            data = np.frombuffer(_read_exact(fh, nbytes, path), dtype="<f8").reshape(shape)
            out[name] = np.array(data, dtype=np.float64)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last entry")
        return out

