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
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .synthdata import write_artifact

__all__ = [
    "TraceRecord",
    "VarianceHeatmap",
    "write_trace",
    "read_trace",
    "analyze_trace",
]

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
        # One key per field in declaration order; an unset batch_csi_m is left out.
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        obj = {key: value for key, value in values if value is not None}
        try:
            return json.dumps(obj, separators=(",", ":"), allow_nan=False)
        except ValueError as exc:
            raise DataError(
                f"trace record (step {self.step}, batch {self.batch_id}, layer {self.layer}, "
                f"head {self.head}, sample {self.sample}) holds a non-finite value"
            ) from exc


def write_trace(path, records) -> None:
    write_artifact(path, "".join(rec.to_line() + "\n" for rec in records).encode("utf-8"))


# The JSON kinds each TraceRecord annotation accepts (never a boolean), as
# the error names them; a number is read as a float.
_KINDS = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float), "a number"),
}


def _typed(obj: dict, f: Field):
    """obj[f.name] if it is of a kind f's annotation accepts, else TypeError."""
    kinds, what = _KINDS[f.type]
    value = obj[f.name]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{f.name} must be {what}, got {value!r}")
    return float(value) if float in kinds else value


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
                # A field with a default may be absent.  The default is tested
                # first, so a line that is not a JSON object fails on its first key.
                rec = TraceRecord(**{f.name: _typed(obj, f) for f in fields(TraceRecord)
                                     if f.default is MISSING or f.name in obj})
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
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
    grid: np.ndarray | None  # (layers, heads); None for a group with no batches
    batches: int


def _batch_grids(records) -> dict:
    """Per-batch (layer, head) cross-sample variance grids and batch CSI-M.

    Indices must run 0..L-1 and 0..M-1 and every batch must hold every
    cell, each of at least 2 samples; any other trace is a DataError, and a
    missing index or cell is refused before a grid is allocated.
    """
    layers, heads = (len({getattr(r, axis) for r in records}) for axis in ("layer", "head"))
    if not all(0 <= r.layer < layers and 0 <= r.head < heads for r in records):
        raise DataError(f"trace layer and head indices must each run from 0 without gaps "
                        f"({layers} distinct layers and {heads} distinct heads seen)")
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
        if len(cells) < layers * heads:
            raise DataError(
                f"batch {key} holds {len(cells)} of the {layers * heads} (layer, head) cells"
            )
        grid = np.zeros((layers, heads))
        for (layer, head), entries in cells.items():
            if len(entries) < 2:
                raise DataError(
                    f"batch {key} cell (layer {layer}, head {head}) has fewer than 2 samples"
                )
            # Sort by sample id before reducing so the result is independent
            # of record order within the file.
            energies = [e for _, e in sorted(entries)]
            grid[layer, head] = float(np.var(energies, ddof=1))
        out[key] = (grid, csis.pop())
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned about
def analyze_trace(records, split_by_csi: bool = False, per_batch: bool = False) -> list[VarianceHeatmap]:
    """Cross-sample variance heatmaps, grouped or per batch.

    With split_by_csi, batches whose CSI-M is at or above the mean over all
    batches form the 'accurate' group, the rest 'inaccurate'; the combined
    'all' group is always emitted.  An empty group's grid is None.
    per_batch labels each grid '<run_id>/batch_<step>_<batch_id>' and
    cannot be combined with split_by_csi.  A grid whose variance overflows
    float64 is a DataError.
    """
    if split_by_csi and per_batch:
        raise ConfigError("--split-by-csi and --per-batch cannot be combined: per-batch grids are not split")
    if not records:
        raise DataError("empty trace")
    grids = _batch_grids(records)
    if per_batch:
        heatmaps = [
            VarianceHeatmap(label=f"{run}/batch_{step}_{batch_id}", grid=grid, batches=1)
            for (run, step, batch_id), (grid, _) in grids.items()
        ]
    else:
        groups: dict[str, list[np.ndarray]] = {}
        if split_by_csi:
            if any(csi is None for _, csi in grids.values()):
                raise ConfigError("split_by_csi requires batch_csi_m on every batch")
            mean_csi = float(np.mean([csi for _, csi in grids.values()]))
            groups["accurate"] = [g for g, csi in grids.values() if csi >= mean_csi]
            groups["inaccurate"] = [g for g, csi in grids.values() if csi < mean_csi]
        groups["all"] = [g for g, _ in grids.values()]
        heatmaps = [
            VarianceHeatmap(label=label, grid=np.mean(members, axis=0) if members else None, batches=len(members))
            for label, members in groups.items()
        ]
    for hm in heatmaps:
        if hm.grid is not None and not np.all(np.isfinite(hm.grid)):
            raise DataError(f"group {hm.label}: cross-sample energy variance overflows float64")
    return heatmaps
