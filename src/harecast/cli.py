"""Command-line front end.

Subcommands: analyze (trace -> variance heatmaps), verify-theory
(Monte-Carlo bound suite), train-toy (toy trainer), eval (forecast
metrics over prediction/truth directories), gradcheck (finite-difference
verification).  Exit codes: 0 success, 1 verification failure,
2 usage/config error or a diverged training run, 3 I/O error; each
failure prints one "error:" line.  train-toy has one flag per TrainConfig
field; --lambda-hare 0 and --grouping false are its two ablations.
Identical arguments and seeds produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import render_report, run_verification_suite
from .errors import ConfigError, DataError, HarecastError, ShapeError
from .gradcheck import run_gradcheck_suite
from .metrics import METEONET_THRESHOLDS, SEVIR_THRESHOLDS, evaluate_pair
from .svg import heatmap_svg
from .synthdata import load_tensors, save_tensors
from .trace import analyze_trace, read_trace, write_trace
from .nowcast.training import TrainConfig, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

PROFILES = {
    "sevir-like": SEVIR_THRESHOLDS,
    "meteonet-like": METEONET_THRESHOLDS,
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    records = read_trace(args.input)
    heatmaps = analyze_trace(records, split_by_csi=args.split_by_csi, per_batch=args.per_batch)
    rows = []
    for hm in heatmaps:
        layers, heads = hm.grid.shape
        for layer in range(layers):
            for head in range(heads):
                rows.append((hm.label, layer, head, float(hm.grid[layer, head])))
    if args.out_csv:
        write_csv(args.out_csv, ("group", "layer", "head", "variance"), rows)
    if args.out_svg:
        svg = heatmap_svg(
            [(hm.label, hm.grid) for hm in heatmaps],
            title="cross-sample energy variance",
        )
        Path(args.out_svg).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out_svg).write_text(svg, encoding="utf-8", newline="\n")
    for hm in heatmaps:
        print(f"group {hm.label}: {hm.batches} batches, max variance {_fmt(float(hm.grid.max()))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-theory
# ---------------------------------------------------------------------------


def cmd_verify_theory(args) -> int:
    suite = run_verification_suite(trials=args.trials, seed=args.seed, rhs_scale=args.rhs_scale)
    text = render_report(suite)
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(text, encoding="utf-8", newline="\n")
    print(text, end="")
    return EXIT_OK if suite.ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str):
    typ = _CONFIG_TYPES[key]
    if typ in ("int", int, "float", float):
        convert = int if typ in ("int", int) else float
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"config key {key}: expected {convert.__name__}, got {raw!r}") from None
    if typ in ("bool", bool):
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"config key {key}: expected boolean, got {raw!r}")
    return raw


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
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
    # Divergence is reported once, by train's DivergenceError, not by numpy.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        result = train(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_tensors(out / "model.bin", dict(sorted(result.model.params.items())))
    write_trace(out / "trace.jsonl", result.trace)
    write_trace(out / "probe_trace.jsonl", result.probe_trace)
    write_csv(
        out / "losses.csv",
        ("step", "recon", "hare", "diff", "total"),
        [(r["step"], r["recon"], r["hare"], r["diff"], r["total"]) for r in result.losses],
    )
    with open(out / "partitions.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for row in result.partitions:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    last = result.losses[-1]
    print(f"steps: {len(result.losses)}")
    print(f"final: recon={_fmt(last['recon'])} hare={_fmt(last['hare'])} diff={_fmt(last['diff'])}")
    print(
        "probe: batches=%d normalized_energy_variance=%s"
        % (result.probe_summary["batches"], _fmt(result.probe_summary["normalized_energy_variance"]))
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_frames(path: Path) -> np.ndarray:
    tensors = load_tensors(path)
    if "frames" in tensors:
        frames = tensors["frames"]
    elif len(tensors) == 1:
        frames = next(iter(tensors.values()))
    else:
        raise DataError(f"{path}: expected a 'frames' entry, found {sorted(tensors)}")
    if frames.ndim != 3 or not frames.size:
        raise DataError(f"{path}: frames must be a non-empty (frames, H, W) stack, got shape {frames.shape}")
    if not np.all(np.isfinite(frames)):
        raise DataError(f"{path}: frames hold non-finite values")
    return frames


def cmd_eval(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
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
    if len({f.shape[1:] for f in pred_frames + truth_frames}) > 1:
        raise ShapeError("frame sizes differ across files")

    scores = evaluate_pair(np.concatenate(pred_frames), np.concatenate(truth_frames), thresholds)
    per_threshold = scores["csi_per_threshold"]
    rows = [(f"csi_{thr}", per_threshold.get(thr, "skipped")) for thr in thresholds]
    rows += [(name, scores[name]) for name in ("csi_m", "pooled_csi_4", "pooled_csi_16", "hss", "ssim")]
    all_rows = [(name, _fmt(v) if isinstance(v, float) else v) for name, v in rows]
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
    perturb = None
    if args.perturb_param:
        perturb = (args.perturb_param, args.perturb_eps)
    ok, rows = run_gradcheck_suite(args.seed, seeds=args.seeds, perturb=perturb)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--rhs-scale", type=float, default=1.0, help=argparse.SUPPRESS)
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
    p.add_argument("--perturb-param", help=argparse.SUPPRESS)
    p.add_argument("--perturb-eps", type=float, default=1e-3, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except HarecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
