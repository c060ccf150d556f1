"""The benchmark's units of work, driven through harecast's public API and CLI.

Each unit has a one-time setup, an op timed in a closed loop by one
client, correctness checks on every output, and the per-layer metrics the
traced run takes from its ops.  The three end-to-end workloads also run
the matching `harecast` CLI command.  Every input comes from the seed.

Layer functions are called through their module attribute
(`training.rollout`, `metrics.evaluate_pair`, ...) so that the traced run
can wrap them; `objective` is the one exception, see TrainDefault.op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from harecast import bounds, cli, gradcheck, metrics, tensor_core
from harecast.metrics import SEVIR_THRESHOLDS
from harecast.nowcast import diffusion, model, training
from harecast.nowcast.training import FrozenDraws, TrainConfig, build_model, objective, render_dataset
from harecast.synthdata import generate_event, make_split, save_tensors
from harecast.tensor_core import SeededRng

CONV_STAGES = ("in", "d1", "d2", "u1", "u2", "out")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_dir(path: Path) -> str:
    """Digest over the names and bytes of every file under path."""
    h = hashlib.sha256()
    for p in sorted(q for q in path.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(path)).encode())
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """In-process `harecast <argv>`; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def sgd_update(params: dict, grads: dict, learning_rate: float) -> None:
    """The parameter update of `training.train`, in its order."""
    for name in sorted(params):
        params[name] -= learning_rate * grads[name]


class Workload:
    name: str
    min_ops: int  # ops per end-to-end run, at least
    trace_pairs: int  # (traced, plain) op pairs in the traced run
    layer_metrics: tuple = ()

    def setup(self, seed: int):
        raise NotImplementedError

    def op(self, st, i: int):
        raise NotImplementedError

    def check(self, st, i: int, result) -> list:
        """Failed check descriptions for one op's result (empty when correct)."""
        raise NotImplementedError

    def cli(self, st, workdir: Path, rep: int) -> tuple[int, str]:
        """Runs the workload's CLI command once; (exit code, artifact digest)."""
        raise NotImplementedError

    def cli_expected(self, st) -> str | None:
        """Digest every CLI run must produce, when the API run fixes it."""
        return None


class TrainDefault(Workload):
    """SGD steps at the default TrainConfig, batch and draws as `train` makes them."""

    name = "train_default"
    trace_pairs = 10
    min_ops = 100  # p10 and p90 keep >= 10 samples beyond them
    cli_steps = 10
    layer_metrics = (
        "nowcast.diffusion.denoiser_forward.ms",
        "nowcast.diffusion.denoiser_forward.self_ms",
        "nowcast.diffusion.denoiser_backward.ms",
        "nowcast.diffusion.denoiser_backward.self_ms",
        *(f"nowcast.convnet.conv2d_{d}.{s}.ms" for d in ("forward", "backward") for s in CONV_STAGES),
        *(f"nowcast.convnet.{s}.{c}" for c in ("gflop", "mb_moved") for s in CONV_STAGES),
        *(f"attention.mha_{d}.{w}.{m}" for m in ("ms", "gflop")
          for d in ("forward", "backward") for w in ("enc", "den_bottleneck")),
        "nowcast.model.encode.ms",
        "nowcast.model.encode.self_ms",
        "nowcast.model.encode_backward.ms",
        "nowcast.model.encode_backward.self_ms",
        "nowcast.model.reconstruction_loss.ms",
        "nowcast.model.conditioning.ms",
        "nowcast.training.sgd_update.ms",
    )

    def setup(self, seed):
        cfg = TrainConfig(seed=seed)
        mdl = build_model(cfg)
        train_specs, _, _ = make_split(
            cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width
        )
        data = render_dataset(train_specs, cfg)
        return SimpleNamespace(seed=seed, cfg=cfg, model=mdl, data=data,
                               rng=SeededRng(cfg.seed, stream=3000))

    def draw(self, st):
        cfg, rng = st.cfg, st.rng
        idx = rng.integers(0, cfg.n_train, size=cfg.batch_size)
        batch = {k: v[idx] for k, v in st.data.items()}
        draws = FrozenDraws(
            t=np.asarray(rng.integers(1, st.model.sched.steps + 1, size=cfg.batch_size)),
            eps=rng.normal(batch["y_future"].shape),
        )
        return batch, draws

    def op(self, st, i):
        batch, draws = self.draw(st)
        # The module-level `objective` is the original function even while
        # the traced run wraps `training.objective`: a step's top-level
        # spans are then the layers the objective calls.
        res = objective(st.model, batch, draws, st.cfg, hare_enabled=True)
        sgd_update(st.model.params, res.grads, st.cfg.learning_rate)
        return res

    def check(self, st, i, res):
        losses = (res.total, res.recon, res.hare, res.diff)
        return [] if all(math.isfinite(v) for v in losses) else [f"non-finite loss at step {i}: {losses}"]

    def cli(self, st, workdir, rep):
        out = workdir / f"train-{rep}"
        code, _ = run_cli(["train-toy", "--out", out, "--seed", st.seed, "--steps", self.cli_steps])
        return code, sha256_dir(out)


class ForecastEval(Workload):
    """Rollout of one held-out event from an untrained model, then scoring."""

    name = "forecast_eval"
    trace_pairs = 6
    min_ops = 100
    horizon = 40
    layer_metrics = (
        "nowcast.training.rollout.ms",
        "nowcast.training.rollout.self_ms",
        "nowcast.diffusion.ddim_sample.ms",
        "nowcast.diffusion.ddim_sample.self_ms",
        "nowcast.diffusion.denoiser_forward.calls",
        "metrics.evaluate_pair.ms",
        "metrics.evaluate_pair.self_ms",
        "metrics.ssim.ms",
        "metrics.pooled_csi.ms",
        "metrics.csi_m.ms",
    )

    def setup(self, seed):
        cfg = TrainConfig(seed=seed)
        mdl = build_model(cfg)
        _, _, test_specs = make_split(
            cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width
        )
        radar, _ = generate_event(test_specs[0], cfg.frames_in + self.horizon, cfg.height, cfg.width)
        return SimpleNamespace(
            seed=seed, cfg=cfg, model=mdl,
            context=radar.frames[: cfg.frames_in], truth=radar.frames[cfg.frames_in:],
            first=None, pred=None,
        )

    def op(self, st, i):
        cfg = st.cfg
        predictor = training.make_predictor(st.model, cfg, SeededRng(st.seed, stream=8000))
        pred = training.rollout(predictor, st.context, self.horizon, cfg.frames_out, cfg.frames_in)
        scores = metrics.evaluate_pair(pred, st.truth, SEVIR_THRESHOLDS)
        scores["csi_m_per_frame"] = metrics.csi_m(pred, st.truth, SEVIR_THRESHOLDS, per_frame=True)
        return pred, scores

    def check(self, st, i, result):
        pred, scores = result
        want = (self.horizon, st.cfg.height, st.cfg.width)
        if pred.shape != want:
            return [f"forecast shape {pred.shape} != {want}"]
        failures = []
        if not (np.all(np.isfinite(pred)) and pred.min() >= 0.0 and pred.max() <= 1.0):
            failures.append("forecast values outside [0, 1]")
        digest = (sha256_bytes(pred.tobytes()), repr(sorted(scores.items())))
        if st.first is None:
            st.first, st.pred = digest, pred
        elif digest != st.first:
            failures.append(f"forecast {i} differs from the first forecast of this seed")
        return failures

    def cli(self, st, workdir, rep):
        pred_dir, truth_dir = workdir / "pred", workdir / "truth"
        if not pred_dir.exists():
            pred_dir.mkdir(parents=True)
            truth_dir.mkdir(parents=True)
            save_tensors(pred_dir / "event.bin", {"frames": st.pred})
            save_tensors(truth_dir / "event.bin", {"frames": st.truth})
        csv = workdir / f"eval-{rep}.csv"
        code, _ = run_cli(["eval", "--pred", pred_dir, "--truth", truth_dir,
                           "--profile", "sevir-like", "--out-csv", csv])
        return code, sha256_bytes(csv.read_bytes()) if csv.exists() else ""


class VerifyTheory(Workload):
    """One Monte-Carlo bound suite (10^4 trials) plus its rendered report."""

    name = "verify_theory"
    trace_pairs = 1
    min_ops = 3
    trials = 10_000
    layer_metrics = (
        "bounds.draw_samples.ms",
        "bounds.draw_samples.self_ms",
        "bounds.check_lemma1.ms",
        "bounds.check_theorem1.ms",
        "bounds.matched_variance_targets.ms",
        "bounds.matched_variance_targets.self_ms",
        "bounds.render_report.ms",
        "tensor_core.normal.ms",
        "tensor_core.normal.values",
    )

    def setup(self, seed):
        return SimpleNamespace(seed=seed, report_sha=None)

    def op(self, st, i):
        suite = bounds.run_verification_suite(trials=self.trials, seed=st.seed)
        return suite, bounds.render_report(suite)

    def check(self, st, i, result):
        suite, text = result
        failures = []
        if not suite.ok or suite.violations:
            failures.append(f"suite reports {suite.violations} violations")
        digest = sha256_bytes(text.encode())
        if st.report_sha is None:
            st.report_sha = digest
        elif digest != st.report_sha:
            failures.append(f"report {i} differs from the first report of this seed")
        return failures

    def cli(self, st, workdir, rep):
        report = workdir / f"report-{rep}.txt"
        code, _ = run_cli(["verify-theory", "--trials", self.trials, "--seed", st.seed,
                           "--report", report])
        return code, sha256_bytes(report.read_bytes()) if report.exists() else ""

    def cli_expected(self, st):
        return st.report_sha


class GradcheckMicro(Workload):
    """Finite-difference check of the objective on the micro config, per seed."""

    name = "gradcheck_micro"
    trace_pairs = 2
    max_rel_err = 1e-5
    layer_metrics = (
        "gradcheck.objective_gradcheck.ms",
        "gradcheck.objective_gradcheck.self_ms",
        "gradcheck.check_gradients.ms",
        "gradcheck.check_gradients.self_ms",
        "nowcast.training.objective.ms",
        "nowcast.training.objective.self_ms",
        "nowcast.training.objective.calls",
        "hare.block_stabilization.ms",
    )

    def setup(self, seed):
        # objective_gradcheck builds its micro model and data itself.
        return SimpleNamespace(seed=seed)

    def op(self, st, i):
        s = st.seed + i
        return [gradcheck.objective_gradcheck(s, hare_only=hare_only) for hare_only in (True, False)]

    def check(self, st, i, reports):
        return [
            f"gradcheck seed {st.seed + i} failed: {len(r.failures)} mismatches, "
            f"max rel err {r.max_rel_err!r}"
            for r in reports
            if not r.ok or r.max_rel_err >= self.max_rel_err
        ]


UNITS = {w.name: w for w in (TrainDefault(), ForecastEval(), VerifyTheory(), GradcheckMicro())}
# gradcheck_micro runs only in the traced run: over ten end-to-end runs of
# the same code on a shared 2-vCPU host, the quartile spread of its p90 was
# 0.29 of the median, more than any regression bound the benchmark may set.
WORKLOADS = {name: UNITS[name] for name in ("train_default", "forecast_eval", "verify_theory")}


# ---------------------------------------------------------------------------
# Traced-run instrumentation: which calls become spans, and the counts
# measured at the same boundaries.
# ---------------------------------------------------------------------------


def conv_stage_names(params: dict) -> dict:
    """Weight shape -> denoiser conv stage, at the shapes of one model."""
    by_shape = {params[f"den.{s}.w"].shape: s for s in CONV_STAGES}
    if len(by_shape) != len(CONV_STAGES):
        raise ValueError("conv stages of this config share weight shapes")
    return by_shape


def _conv_counts(direction, stage_of):
    """Computed GFLOP and MB moved of a 3x3 im2col conv, from call shapes.

    Forward reads x, writes and reads the im2col buffer (B*Ho*Wo by
    Cin*9), reads w and writes out; backward reads grad_out, the buffer and
    w, writes grad_w, writes and reads the column gradient and writes
    grad_x.  All float64.
    """

    def count(args, result):
        w = args[1]
        stage = stage_of.get(w.shape)
        if stage is None:
            return {}
        out = result[0] if direction == "forward" else args[0]
        bsz, cout, ho, wo = out.shape
        cols = bsz * ho * wo * w.shape[1]
        flops = 2 * cols * cout
        if direction == "forward":
            moved = args[0].size + 2 * cols + w.size + out.size
        else:
            grad_w, _, grad_x = result
            flops *= 2
            moved = out.size + cols + w.size + grad_w.size + 2 * cols + grad_x.size
        return {f"nowcast.convnet.{stage}.gflop": flops / 1e9,
                f"nowcast.convnet.{stage}.mb_moved": 8 * moved / 1e6}

    return count


def _mha_counts(label):
    """Computed GFLOP of multi-head attention on (B, N, d) tokens."""

    def count(args, result):
        if label.startswith("attention.mha_forward"):
            bsz, n, d = result[0].shape
            flops = 8 * bsz * n * d * d + 4 * bsz * n * n * d
        else:
            bsz, n, d = result[1].shape
            flops = 16 * bsz * n * d * d + 8 * bsz * n * n * d
        return {f"{label}.gflop": flops / 1e9}

    return count


def instrument(tracer, stage_of: dict) -> None:
    """Register a span at every layer boundary the workloads cross."""
    bench = sys.modules[__name__]

    def conv_name(direction):
        return lambda *args, **kw: (
            f"nowcast.convnet.conv2d_{direction}.{stage_of.get(args[1].shape, 'other')}"
        )

    for owner, attr, name in (
        (training, "encode", "nowcast.model.encode"),
        (training, "encode_backward", "nowcast.model.encode_backward"),
        (training, "reconstruction_loss", "nowcast.model.reconstruction_loss"),
        (training, "conditioning_forward", "nowcast.model.conditioning"),
        (training, "conditioning_backward", "nowcast.model.conditioning"),
        (training, "block_stabilization", "hare.block_stabilization"),
        (training, "noising", "nowcast.diffusion.noising"),
        (training, "diffusion_loss", "nowcast.diffusion.diffusion_loss"),
        (training, "denoiser_forward", "nowcast.diffusion.denoiser_forward"),
        (training, "ddim_sample", "nowcast.diffusion.ddim_sample"),
        (training, "objective", "nowcast.training.objective"),
        (training, "rollout", "nowcast.training.rollout"),
        (diffusion, "denoiser_forward", "nowcast.diffusion.denoiser_forward"),
        (diffusion, "denoiser_backward", "nowcast.diffusion.denoiser_backward"),
        (bench, "sgd_update", "nowcast.training.sgd_update"),
        (metrics, "evaluate_pair", "metrics.evaluate_pair"),
        (metrics, "ssim", "metrics.ssim"),
        (metrics, "pooled_csi", "metrics.pooled_csi"),
        (metrics, "csi_m", "metrics.csi_m"),
        (bounds, "draw_samples", "bounds.draw_samples"),
        (bounds, "check_lemma1", "bounds.check_lemma1"),
        (bounds, "check_theorem1", "bounds.check_theorem1"),
        (bounds, "matched_variance_targets", "bounds.matched_variance_targets"),
        (bounds, "render_report", "bounds.render_report"),
        (gradcheck, "objective_gradcheck", "gradcheck.objective_gradcheck"),
        (gradcheck, "check_gradients", "gradcheck.check_gradients"),
    ):
        tracer.patch(owner, attr, name)
    for owner, where in ((model, "enc"), (diffusion, "den_bottleneck")):
        for direction in ("forward", "backward"):
            label = f"attention.mha_{direction}.{where}"
            tracer.patch(owner, f"mha_{direction}", label, _mha_counts(label))
    for direction in ("forward", "backward"):
        tracer.patch(diffusion, f"conv2d_{direction}", conv_name(direction),
                     _conv_counts(direction, stage_of))
    tracer.patch(tensor_core.SeededRng, "normal", "tensor_core.normal",
                 lambda args, result: {"tensor_core.normal.values": result.size})
