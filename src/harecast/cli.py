"""Command-line front end.

Subcommands: analyze (trace -> variance heatmaps), verify-theory
(Monte-Carlo bound suite), train-toy (toy trainer), eval (forecast
metrics over prediction/truth directories), gradcheck (finite-difference
verification).  Exit codes: 0 success, 1 verification failure,
2 usage/config error, a request too large for memory or a diverged
training run, 3 I/O error, 130 interrupted (Ctrl-C); each failure
prints one "error:" line.
train-toy has one flag per TrainConfig field; --lambda-hare 0 and
--grouping false are its two ablations.
Identical arguments and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import render_report, run_verification_suite
from .errors import ConfigError, DataError, HarecastError, ShapeError
from .gradcheck import run_gradcheck_suite
from .metrics import METEONET_THRESHOLDS, SEVIR_THRESHOLDS, evaluate_pair
from .svg import heatmap_svg
from .synthdata import load_tensors, save_tensors, write_artifact
from .tensor_core import check_seed
from .trace import analyze_trace, read_trace, write_trace
from .nowcast.training import LOSS_COLUMNS, TrainConfig, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # the shell's code for a run ended by SIGINT

PROFILES = {
    "sevir-like": SEVIR_THRESHOLDS,
    "meteonet-like": METEONET_THRESHOLDS,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    # Only a field holding a comma, quote or newline (say, a run id) is quoted.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *([_fmt(v) for v in row] for row in rows)])
    write_artifact(path, buf.getvalue().encode("utf-8"))


def check_output_path(flag: str, path, directory: bool = False) -> None:
    """Fail before any work if `path` cannot be written as a file or directory.

    Creates nothing: an existing `path` must be a directory or a regular file
    (a symlink to one counts), as wanted, and its nearest existing ancestor
    must be a directory.  Raises DataError (exit 3) naming the flag and the
    path.
    """
    path = Path(path)
    if path.exists():
        if path.is_dir() != directory:
            kind = "is not a directory" if directory else "is a directory"
            raise DataError(f"{flag} {path}: {kind}")
        if not (directory or path.is_file()):  # a FIFO or device would be replaced
            raise DataError(f"{flag} {path}: is not a regular file")
        return
    parent = next((p for p in path.parents if p.exists()), None)
    if parent is not None and not parent.is_dir():
        raise DataError(f"{flag} {path}: {parent} is not a directory")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    if args.split_by_csi and args.per_batch:
        raise ConfigError("--split-by-csi and --per-batch cannot be combined: per-batch grids are not split")
    for flag, path in (("--out-csv", args.out_csv), ("--out-svg", args.out_svg)):
        if path:
            check_output_path(flag, path)
    records = read_trace(args.input)
    heatmaps = analyze_trace(records, split_by_csi=args.split_by_csi, per_batch=args.per_batch)
    # A group with no batches has no grid: no CSV rows, no SVG panel.
    drawn = [hm for hm in heatmaps if hm.grid is not None]
    rows = []
    for hm in drawn:
        layers, heads = hm.grid.shape
        for layer in range(layers):
            for head in range(heads):
                rows.append((hm.label, layer, head, float(hm.grid[layer, head])))
    if args.out_csv:
        write_csv(args.out_csv, ("group", "layer", "head", "variance"), rows)
    if args.out_svg:
        write_artifact(args.out_svg, heatmap_svg([(hm.label, hm.grid) for hm in drawn]).encode("utf-8"))
    for hm in heatmaps:
        peak = "" if hm.grid is None else f", max variance {_fmt(float(hm.grid.max()))}"
        print(f"group {hm.label}: {hm.batches} batches{peak}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-theory
# ---------------------------------------------------------------------------


def cmd_verify_theory(args) -> int:
    check_seed("--seed", args.seed)
    if args.report:
        check_output_path("--report", args.report)
    suite = run_verification_suite(trials=args.trials, seed=args.seed)
    text = render_report(suite)
    if args.report:
        write_artifact(args.report, text.encode("utf-8"))
    print(text, end="")
    return EXIT_OK if suite.ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str):
    typ = _CONFIG_TYPES[key]  # the annotation string, under postponed evaluation
    if typ in ("int", "float"):
        convert = int if typ == "int" else float
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected {convert.__name__}, got {raw!r}") from None
    if typ == "bool":
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"config key {key}: expected boolean, got {raw!r}")
    return raw


def parse_config_file(path) -> dict:
    """Flat key = value lines of UTF-8 text, with or without a byte-order mark; '#' starts
    a comment, and a key ('-' read as '_') may be given once."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} given twice")
        out[key] = _coerce(key, raw)
    return out


def build_train_config(args) -> TrainConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for key in _CONFIG_TYPES:
        raw = getattr(args, f"cfg_{key}", None)
        if raw is not None:
            values[key] = _coerce(key, raw)
    return TrainConfig(**values)


def cmd_train_toy(args) -> int:
    cfg = build_train_config(args)
    check_output_path("--out", args.out, directory=True)
    # Divergence is reported once, by train's DivergenceError, not by numpy.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = train(cfg)
    out = Path(args.out)
    save_tensors(out / "model.bin", dict(sorted(result.model.params.items())))
    write_trace(out / "trace.jsonl", result.trace)
    write_trace(out / "probe_trace.jsonl", result.probe_trace)
    write_csv(out / "losses.csv", LOSS_COLUMNS, [[r[c] for c in LOSS_COLUMNS] for r in result.losses])
    lines = (json.dumps(row, separators=(",", ":")) + "\n" for row in result.partitions)
    write_artifact(out / "partitions.jsonl", "".join(lines).encode("utf-8"))
    last = result.losses[-1]
    print(f"steps: {len(result.losses)}")
    print(f"final: recon={_fmt(last['recon'])} hare={_fmt(last['hare'])} diff={_fmt(last['diff'])}")
    print(
        "probe: batches=%d event_free=%d normalized_energy_variance=%s"
        % (result.probe_summary["batches"], result.probe_summary["event_free_batches"],
           _fmt(result.probe_summary["normalized_energy_variance"]))
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_frames(path: Path) -> np.ndarray:
    tensors = load_tensors(path)
    if "frames" not in tensors:
        raise DataError(f"{path}: expected a 'frames' entry, found {sorted(tensors)}")
    frames = tensors["frames"]
    if frames.ndim != 3 or not frames.size:
        raise DataError(f"{path}: frames must be a non-empty (frames, H, W) stack, got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise DataError(f"{path}: frames hold non-finite values")
    lo, hi = float(frames.min()), float(frames.max())
    if lo < 0.0 or hi > 1.0:  # the metrics' thresholds and SSIM constants assume [0, 1]
        raise DataError(f"{path}: frames must lie in [0, 1], got min {_fmt(lo)} and max {_fmt(hi)}")
    return frames


def cmd_eval(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    for flag, path in (("--pred", pred_dir), ("--truth", truth_dir)):
        if not path.is_dir():
            raise DataError(f"{flag} {path}: {'is not a directory' if path.exists() else 'does not exist'}")
    if args.out_csv:
        check_output_path("--out-csv", args.out_csv)
    preds = {p.name: p for p in sorted(pred_dir.glob("*.bin"))}
    truths = {p.name: p for p in sorted(truth_dir.glob("*.bin"))}
    if set(preds) != set(truths):
        only_p = sorted(set(preds) - set(truths))
        only_t = sorted(set(truths) - set(preds))
        raise ConfigError(
            f"unmatched files: prediction-only {only_p}, truth-only {only_t}"
        )
    if not preds:
        raise ConfigError(f"no .bin files found in {pred_dir}")
    thresholds = PROFILES[args.profile]
    pred_frames = [_load_frames(preds[n]) for n in sorted(preds)]
    truth_frames = [_load_frames(truths[n]) for n in sorted(truths)]
    # Frames pair up within a file, never across a file boundary.
    for name, pred, truth in zip(sorted(preds), pred_frames, truth_frames):
        if pred.shape != truth.shape:
            raise ShapeError(f"{name}: prediction shape {pred.shape} != truth shape {truth.shape}")
    if len({f.shape[1:] for f in pred_frames + truth_frames}) > 1:
        raise ShapeError("frame sizes differ across files")

    scores = evaluate_pair(np.concatenate(pred_frames), np.concatenate(truth_frames), thresholds)
    per_threshold = scores.pop("csi_per_threshold")
    rows = [(f"csi_{thr}", per_threshold.get(thr, np.nan)) for thr in thresholds]
    rows += scores.items()
    # A metric undefined on this input (no threshold with events, a frame
    # smaller than the SSIM window) is skipped, never nan.
    all_rows = [(name, "skipped" if np.isnan(v) else _fmt(v)) for name, v in rows]
    if args.out_csv:
        write_csv(args.out_csv, ("metric", "value"), all_rows)
    width = max(len(name) for name, _ in all_rows)
    for name, value in all_rows:
        print(f"{name.ljust(width)}  {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    check_seed("--seed", args.seed)
    if not 1 <= args.seeds <= 2**63 - args.seed:  # objective checks use --seed .. --seed + --seeds - 1
        raise ConfigError(f"--seeds must be >= 1 and --seed + --seeds - 1 below 2**63, got {args.seeds}")
    ok, rows = run_gradcheck_suite(args.seed, seeds=args.seeds)
    for kind, seed, rep in rows:
        status = "ok" if rep.ok else "FAIL"
        print(
            f"[{status}] {kind} seed={seed} checked={rep.checked} "
            f"max_rel_err={_fmt(rep.max_rel_err)}"
        )
        for name, index, ana, num, rel in rep.failures[:5]:
            print(f"    mismatch {name}[{index}]: analytic={_fmt(ana)} numeric={_fmt(num)}")
    print("verdict: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subcommands' parsers, whose usage errors
    print one `error: <prog>: <message>` line and exit 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="harecast",
        description="Attention-energy statistics, bound verification and a toy trainer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cross-sample variance analysis of a trace file")
    p.add_argument("--input", required=True)
    p.add_argument("--split-by-csi", action="store_true")
    p.add_argument("--per-batch", action="store_true")
    p.add_argument("--out-csv")
    p.add_argument("--out-svg")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-theory", help="run the Monte-Carlo bound suite")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("train-toy", help="train the toy forecaster")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    for key in _CONFIG_TYPES:
        p.add_argument(
            f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None,
            metavar="VALUE", help=f"override config key {key}",
        )
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="metric report for prediction/truth directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default="sevir-like")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)
    return parser


# glibc's mallopt parameters and the values pin_heap gives them.
_HEAP_SETTINGS = (
    (-1, 256 << 20),  # M_TRIM_THRESHOLD: keep up to 256 MiB free at the heap top
    (-2, 64 << 20),  # M_TOP_PAD: grow the heap 64 MiB beyond each request
    (-3, 64 << 20),  # M_MMAP_THRESHOLD: serve blocks below 64 MiB from the heap
)


def pin_heap() -> None:
    """Keep freed heap memory mapped, so a step's large temporaries are not re-faulted.

    glibc returns freed memory at the heap top to the kernel and serves
    large blocks with fresh mappings, so each training step faulted in
    thousands of pages again.  These mallopt settings keep the pages and
    change no result.  A no-op where the C library has no mallopt.
    Only main calls this: importing harecast changes no process setting.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def main(argv=None) -> int:
    pin_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        message, code = exc, EXIT_IO
    except HarecastError as exc:
        message, code = exc, EXIT_USAGE
    except MemoryError as exc:
        message, code = f"{args.command}: out of memory: {exc}", EXIT_USAGE
    except KeyboardInterrupt:
        message, code = f"{args.command}: interrupted", EXIT_INTERRUPTED
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
