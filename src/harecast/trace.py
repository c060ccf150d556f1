"""Line-delimited energy trace records and their cross-sample analysis.

One JSON object per line, UTF-8, LF endings, fixed key order, shortest
round-trip float formatting, so writing, parsing and re-writing a trace is
byte-identical.  The analysis groups batches by whether their CSI-M sits
above or below the mean over all batches and averages per-(layer, head)
cross-sample energy variance within each group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "TraceRecord",
    "VarianceHeatmap",
    "write_trace",
    "read_trace",
    "analyze_trace",
]

_FIELDS = ("run_id", "step", "batch_id", "layer", "head", "sample", "energy", "batch_csi_m")


@dataclass(frozen=True)
class TraceRecord:
    run_id: str
    step: int
    batch_id: int
    layer: int
    head: int
    sample: int
    energy: float
    batch_csi_m: float | None = None

    def to_line(self) -> str:
        obj = {
            "run_id": self.run_id,
            "step": self.step,
            "batch_id": self.batch_id,
            "layer": self.layer,
            "head": self.head,
            "sample": self.sample,
            "energy": self.energy,
        }
        if self.batch_csi_m is not None:
            obj["batch_csi_m"] = self.batch_csi_m
        try:
            return json.dumps(obj, separators=(",", ":"), allow_nan=False)
        except ValueError as exc:
            raise DataError(
                f"trace record (step {self.step}, batch {self.batch_id}, layer {self.layer}, "
                f"head {self.head}, sample {self.sample}) holds a non-finite value"
            ) from exc


def write_trace(path, records) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_line())
            fh.write("\n")


def read_trace(path) -> list[TraceRecord]:
    path = Path(path)
    records = []
    seen = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                rec = TraceRecord(
                    run_id=str(obj["run_id"]),
                    step=int(obj["step"]),
                    batch_id=int(obj["batch_id"]),
                    layer=int(obj["layer"]),
                    head=int(obj["head"]),
                    sample=int(obj["sample"]),
                    energy=float(obj["energy"]),
                    batch_csi_m=float(obj["batch_csi_m"]) if "batch_csi_m" in obj else None,
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}: malformed trace record at line {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in (rec.energy, rec.batch_csi_m) if v is not None):
                raise DataError(f"{path}: non-finite value at line {lineno}")
            if min(rec.energy, rec.step, rec.batch_id, rec.layer, rec.head, rec.sample) < 0:
                raise DataError(f"{path}: negative energy or index at line {lineno}")
            key = (rec.run_id, rec.step, rec.batch_id, rec.layer, rec.head, rec.sample)
            if key in seen:
                raise DataError(f"{path}: duplicate record key at line {lineno}: {key}")
            seen.add(key)
            records.append(rec)
    return records


@dataclass
class VarianceHeatmap:
    """Per-(layer, head) cross-sample variance grid for one batch group."""

    label: str
    grid: np.ndarray  # (layers, heads)
    batches: int


def _batch_grids(records) -> dict:
    """Group records into per-batch (layer, head) -> sample energies maps."""
    layers = 1 + max(r.layer for r in records)
    heads = 1 + max(r.head for r in records)
    batches: dict = {}
    for r in records:
        batches.setdefault((r.run_id, r.step, r.batch_id), []).append(r)
    out = {}
    for key, recs in sorted(batches.items()):
        cells: dict = {}
        csis = {r.batch_csi_m for r in recs}
        if len(csis) > 1:
            raise DataError(f"batch {key} carries inconsistent batch_csi_m values")
        for r in recs:
            cells.setdefault((r.layer, r.head), []).append((r.sample, r.energy))
        grid = np.zeros((layers, heads))
        for (layer, head), entries in cells.items():
            if len(entries) < 2:
                raise ConfigError(
                    f"batch {key} cell (layer {layer}, head {head}) has fewer than 2 samples"
                )
            # Sort by sample id before reducing so the result is independent
            # of record order within the file.
            energies = [e for _, e in sorted(entries)]
            grid[layer, head] = float(np.var(energies, ddof=1))
        out[key] = (grid, csis.pop())
    return out


def analyze_trace(records, split_by_csi: bool = False, per_batch: bool = False) -> list[VarianceHeatmap]:
    """Cross-sample variance heatmaps, grouped or per batch.

    With split_by_csi, batches whose CSI-M is at or above the mean over all
    batches form the 'accurate' group, the rest 'inaccurate'; the combined
    'all' group is always emitted.
    """
    if not records:
        raise DataError("empty trace")
    grids = _batch_grids(records)
    if per_batch:
        return [
            VarianceHeatmap(label=f"batch_{step}_{batch_id}", grid=grid, batches=1)
            for (run, step, batch_id), (grid, _) in grids.items()
        ]
    heatmaps = []
    groups: dict[str, list[np.ndarray]] = {"all": [g for g, _ in grids.values()]}
    if split_by_csi:
        if any(csi is None for _, csi in grids.values()):
            raise ConfigError("split_by_csi requires batch_csi_m on every batch")
        mean_csi = float(np.mean([csi for _, csi in grids.values()]))
        groups["accurate"] = [g for g, csi in grids.values() if csi >= mean_csi]
        groups["inaccurate"] = [g for g, csi in grids.values() if csi < mean_csi]
    for label in ("accurate", "inaccurate", "all"):
        if label not in groups:
            continue
        members = groups[label]
        grid = (
            np.mean(members, axis=0)
            if members
            else np.zeros_like(groups["all"][0])
        )
        heatmaps.append(VarianceHeatmap(label=label, grid=grid, batches=len(members)))
    return heatmaps
