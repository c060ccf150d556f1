"""Print `name sha256` for the fixed-seed artifacts the determinism contract covers.

Run from any checkout as `python tests/artifact_digests.py`; it imports
harecast from the `src` next to this file.  Two checkouts produce identical
output exactly when these artifacts are byte-identical, so a refactor's
byte-identity check is one `diff` of two runs.  Not a pytest module.

The set: the acceptance gate's micro `train-toy` run (plain, `--grouping
false`, `--mode multimodal`, and the difficulty mask with a non-detached
target), `verify-theory --trials 10000 --seed 0` and `--trials 2001 --seed
3` (an odd count splits one trial between the two halves of each normal
draw), the two attention_pushforward clouds (dim 4 and 6, 10^4 samples
each) that open the seed-0 suite's head-variance checks, `gradcheck --seeds 2` stdout, the horizon-40 forecast
of a default seed-0 model, the `eval` CSV of that forecast under both
threshold profiles, the rendered train split (`x_radar` and `y_future`
at the default config, `x_sat` at the micro multimodal config), and the
`analyze` CSV and SVG heatmap of the plain micro run's `probe_trace.jsonl`
with `--split-by-csi` and of its `trace.jsonl` with `--per-batch`.  Two
more `train-toy` runs pin the conv paths the rest never takes: default
sizes with `--steps 2` (chunked forwards, multi-chunk backwards), and the
micro arguments with `--cond-dim 1 --width 4 --patch 4` (the window-form
backward of a one-column output).

`artifact_digests.txt` pins this output, and `test_artifact_digests.py`
compares a fresh run with it line by line.  Regenerate it with
`python tests/artifact_digests.py > tests/artifact_digests.txt` only when
an artifact is meant to change, and give each changed line and its reason
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, set before numpy loads, so sums reduce in one order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from harecast import cli  # noqa: E402
from harecast.bounds import DistributionSpec, draw_samples  # noqa: E402
from harecast.nowcast.training import (  # noqa: E402
    TrainConfig, build_model, make_predictor, render_dataset, rollout,
)
from harecast.synthdata import make_split, render_radar, save_tensors  # noqa: E402
from harecast.tensor_core import SeededRng  # noqa: E402

# The micro train-toy arguments of acceptance criterion 10.
MICRO = ["--steps", "3", "--n-train", "4", "--n-val", "2", "--n-test", "2",
         "--batch-size", "2", "--probe-batches", "1", "--trace-every", "1",
         "--height", "16", "--width", "16", "--frames-in", "2", "--frames-out", "2",
         "--patch", "8", "--dim", "8", "--layers", "1", "--heads", "2",
         "--den-base", "4", "--den-mid", "6", "--den-bottleneck", "8"]
TRAIN_VARIANTS = {
    "train-toy": [],
    "train-toy-grouping-false": ["--grouping", "false"],
    "train-toy-multimodal": ["--mode", "multimodal"],
    "train-toy-masked-nodetach": ["--mask-fraction", "0.5", "--detach-target", "false"],
}
CONV_PATH_RUNS = {
    "train-toy-default-steps2": ["--steps", "2"],
    "train-toy-micro-width4": [*MICRO, "--cond-dim", "1", "--width", "4", "--patch", "4"],
}
HORIZON = 40


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    """`harecast <argv>` in-process; returns its stdout and fails on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"harecast {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def train_split(cfg: TrainConfig) -> dict:
    """The arrays `train` renders for cfg's train split."""
    train_specs, _, _ = make_split(cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test,
                                   cfg.height, cfg.width)
    return render_dataset(train_specs, cfg)


def forecast() -> tuple:
    """Horizon-40 rollout of the first test event by an untrained default seed-0 model."""
    cfg = TrainConfig(seed=0)
    model = build_model(cfg)
    _, _, test_specs = make_split(cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test,
                                  cfg.height, cfg.width)
    radar = render_radar(test_specs[0], cfg.frames_in + HORIZON, cfg.height, cfg.width)
    predictor = make_predictor(model, cfg, SeededRng(cfg.seed, stream=8000))
    pred = rollout(predictor, radar[: cfg.frames_in], HORIZON, cfg.frames_out, cfg.frames_in)
    return pred, radar[cfg.frames_in:]


def train_digests(tmp: Path, name: str, argv):
    """Digest of each file `train-toy --out tmp/name <argv>` writes."""
    out = tmp / name
    run(["train-toy", "--out", out, *argv])
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        yield f"{name}/{path.relative_to(out)}", sha256(path.read_bytes())


def digests(tmp: Path):
    for name, extra in TRAIN_VARIANTS.items():
        yield from train_digests(tmp, name, [*MICRO, *extra])

    report = tmp / "report.txt"
    run(["verify-theory", "--trials", "10000", "--seed", "0", "--report", report])
    yield "verify-theory/report.txt", sha256(report.read_bytes())
    odd = tmp / "report-odd.txt"
    run(["verify-theory", "--trials", "2001", "--seed", "3", "--report", odd])
    yield "verify-theory-trials2001-seed3/report.txt", sha256(odd.read_bytes())
    # Head-variance checks 2 and 11 of the seed-0 suite: its first
    # attention_pushforward clouds at dim 4 and dim 6.
    for dim, seed in ((4, 1002), (6, 1011)):
        cloud = draw_samples(DistributionSpec(kind="attention_pushforward", dim=dim, n=10_000, seed=seed))
        yield f"verify-theory/attention-pushforward-dim{dim}", sha256(cloud.tobytes())

    yield "gradcheck-seeds-2/stdout", sha256(run(["gradcheck", "--seeds", "2"]).encode())

    pred, truth = forecast()
    yield "forecast-h40-seed0", sha256(pred.tobytes())
    for kind, frames in (("pred", pred), ("truth", truth)):
        (tmp / kind).mkdir()
        save_tensors(tmp / kind / "event0.bin", {"frames": frames})
    for profile in sorted(cli.PROFILES):
        csv = tmp / f"eval-{profile}.csv"
        run(["eval", "--pred", tmp / "pred", "--truth", tmp / "truth",
             "--profile", profile, "--out-csv", csv])
        yield f"eval-{profile}.csv", sha256(csv.read_bytes())

    default = train_split(TrainConfig(seed=0))
    for key in ("x_radar", "y_future"):
        yield f"train-split-default/{key}", sha256(default[key].tobytes())
    micro = cli.build_parser().parse_args(["train-toy", "--out", str(tmp / "unused"), *MICRO,
                                           *TRAIN_VARIANTS["train-toy-multimodal"]])
    x_sat = train_split(cli.build_train_config(micro))["x_sat"]
    yield "train-split-micro-multimodal/x_sat", sha256(x_sat.tobytes())

    for name, trace, flag in (("analyze-split-by-csi", "probe_trace.jsonl", "--split-by-csi"),
                              ("analyze-per-batch", "trace.jsonl", "--per-batch")):
        csv, svg = tmp / f"{name}.csv", tmp / f"{name}.svg"
        run(["analyze", "--input", tmp / "train-toy" / trace, flag, "--out-csv", csv, "--out-svg", svg])
        for path in (csv, svg):
            yield f"{name}/heatmap{path.suffix}", sha256(path.read_bytes())

    # Conv paths the runs above never take: chunked forwards and multi-chunk
    # backwards at the default sizes, and the window-form backward of a
    # one-column output.
    for name, argv in CONV_PATH_RUNS.items():
        yield from train_digests(tmp, name, argv)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)):
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
