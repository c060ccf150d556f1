"""Joint training of the toy forecaster and the autoregressive rollout.

One objective: weighted sum of reconstruction error, the group-wise energy
stabilization loss (averaged over attention blocks) and the diffusion
noise-prediction loss.  Optimization is plain SGD with a fixed step so the
whole parameter trajectory is deterministic and analytically checkable.
The inference path (predict/rollout) never evaluates the reconstruction
decoders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DivergenceError
from ..hare import HareConfig, block_stabilization, compute_energies, cross_sample_variance, difficulty_mask
from ..metrics import SEVIR_THRESHOLDS, csi_m
from ..synthdata import generate_event, make_split
from ..tensor_core import SeededRng
from ..trace import TraceRecord
from .diffusion import (
    DenoiserConfig,
    DiffusionSchedule,
    ddim_sample,
    denoiser_forward,
    diffusion_loss,
    init_denoiser_params,
    make_schedule,
    noising,
)
from .model import (
    EncoderConfig,
    conditioning_backward,
    conditioning_forward,
    encode,
    encode_backward,
    init_encoder_params,
    reconstruction_loss,
)


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    height: int = 32
    width: int = 32
    frames_in: int = 5
    frames_out: int = 20
    patch: int = 8
    dim: int = 32
    layers: int = 2
    heads: int = 4
    mode: str = "unimodal"
    den_base: int = 8
    den_mid: int = 12
    den_bottleneck: int = 16
    den_heads: int = 2
    time_dim: int = 8
    cond_dim: int = 4
    diffusion_steps: int = 1000
    sample_steps: int = 5
    batch_size: int = 8
    steps: int = 400
    learning_rate: float = 5e-4
    lambda_recon: float = 1.0
    lambda_hare: float = 1.0
    lambda_diff: float = 5.0
    alpha: float = 0.75
    detach_target: bool = True
    grouping: bool = True
    mask_strategy: str = "all_ones"
    mask_fraction: float = 0.5
    n_train: int = 48
    n_val: int = 16
    n_test: int = 8
    trace_every: int = 10
    probe_batches: int = 16
    run_id: str = "toy"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.n_val < self.batch_size:
            raise ConfigError(
                f"n_val {self.n_val} < batch_size {self.batch_size}: "
                "the held-out probe needs one full batch"
            )
        if not 1 <= self.sample_steps <= self.diffusion_steps:
            raise ConfigError(f"sample_steps must be in [1, diffusion_steps], got {self.sample_steps}")
        if self.probe_batches < 1:
            raise ConfigError(f"probe_batches must be >= 1, got {self.probe_batches}")
        for key in ("lambda_recon", "lambda_hare", "lambda_diff"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.lambda_hare > 0.0 and self.batch_size < 2:
            raise ConfigError("lambda_hare > 0 needs batch size >= 2")
        # The derived configurations validate the model sizes and loss knobs.
        self.hare()
        self.encoder()
        self.denoiser()

    def hare(self) -> HareConfig:
        return HareConfig(
            alpha=self.alpha,
            detach_target=self.detach_target,
            grouping=self.grouping,
            mask_strategy=self.mask_strategy,
            mask_fraction=self.mask_fraction,
        )

    def encoder(self) -> EncoderConfig:
        return EncoderConfig(
            height=self.height, width=self.width, frames_in=self.frames_in,
            patch=self.patch, dim=self.dim, layers=self.layers, heads=self.heads,
            mode=self.mode,
        )

    def denoiser(self) -> DenoiserConfig:
        return DenoiserConfig(
            out_channels=self.frames_out, cond_dim=self.cond_dim,
            base=self.den_base, mid=self.den_mid, bottleneck=self.den_bottleneck,
            heads=self.den_heads, time_dim=self.time_dim,
        )


@dataclass
class Model:
    enc_cfg: EncoderConfig
    den_cfg: DenoiserConfig
    sched: DiffusionSchedule
    params: dict


def build_model(cfg: TrainConfig) -> Model:
    rng = SeededRng(cfg.seed, stream=1000)
    enc_cfg = cfg.encoder()
    den_cfg = cfg.denoiser()
    params = init_encoder_params(enc_cfg, rng, cond_dim=cfg.cond_dim)
    params.update(init_denoiser_params(den_cfg, rng.spawn(2000)))
    return Model(
        enc_cfg=enc_cfg, den_cfg=den_cfg,
        sched=make_schedule(cfg.diffusion_steps), params=params,
    )


@dataclass
class StepResult:
    total: float
    recon: float
    hare: float
    diff: float
    grads: dict | None
    blocks: list = field(default_factory=list)  # BlockHareResult per encoder layer


@dataclass
class FrozenDraws:
    """Pre-drawn randomness so an objective evaluation is a pure function."""

    t: np.ndarray
    eps: np.ndarray


def objective(
    model: Model,
    batch: dict,
    draws: FrozenDraws,
    cfg: TrainConfig,
    hare_enabled: bool,
    compute_grads: bool = True,
) -> StepResult:
    """Forward (and optionally backward) pass of the full training loss."""
    if hare_enabled and batch["y_future"].shape[0] < 2:
        raise ConfigError("energy stabilization needs batch size >= 2")
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()} if compute_grads else None
    enc_cfg, den_cfg = model.enc_cfg, model.den_cfg
    x_sat = batch.get("x_sat")

    f, enc_cache = encode(batch["x_radar"], x_sat, enc_cfg, model.params)

    inputs = {"radar": batch["x_radar"]}
    if x_sat is not None:
        inputs["satellite"] = x_sat
    l_recon, _, grad_f_recon = reconstruction_loss(f, inputs, enc_cfg, model.params, grads)

    cond, pooled = conditioning_forward(f, model.params)
    x_t = noising(batch["y_future"], draws.t, draws.eps, model.sched)
    l_diff, per_sample_diff, g_cond = diffusion_loss(
        x_t, draws.t, cond, draws.eps, den_cfg, model.params, grads
    )

    l_hare = 0.0
    grad_o_extra = None
    blocks = []
    if hare_enabled:
        hcfg = cfg.hare()
        if hcfg.mask_strategy == "top_fraction_by_sample_loss":
            mask = difficulty_mask(per_sample_diff, hcfg.mask_fraction)
        else:
            mask = np.ones(batch["y_future"].shape[0])
        blocks = [block_stabilization(acts, mask, hcfg) for acts in enc_cache.acts]
        for block in blocks:
            l_hare += block.loss / enc_cfg.layers
        grad_o_extra = [cfg.lambda_hare * block.grad_o / enc_cfg.layers for block in blocks]

    if grads is not None:
        grad_f_diff = conditioning_backward(
            cfg.lambda_diff * g_cond, pooled, f.shape, model.params, grads
        )
        # Decoder and denoiser grads were accumulated with unit weight on
        # their own parameters; apply the loss weights before the encoder
        # backward, whose incoming gradients already carry them (the cond
        # projection was seeded with the weighted g_cond).
        for name in grads:
            if name.startswith("dec."):
                grads[name] *= cfg.lambda_recon
            elif name.startswith("den."):
                grads[name] *= cfg.lambda_diff
        grad_f = cfg.lambda_recon * grad_f_recon + grad_f_diff
        encode_backward(enc_cfg, model.params, enc_cache, grad_f, grad_o_extra, grads)

    total = cfg.lambda_recon * l_recon + cfg.lambda_hare * l_hare + cfg.lambda_diff * l_diff
    return StepResult(
        total=total, recon=l_recon, hare=l_hare, diff=l_diff, grads=grads, blocks=blocks,
    )


def render_dataset(specs, cfg: TrainConfig):
    """Materialize (context, future, sat-context) arrays for event specs."""
    t_total = cfg.frames_in + cfg.frames_out
    ctx, fut, sat = [], [], []
    for spec in specs:
        radar, satellite = generate_event(spec, t_total, cfg.height, cfg.width)
        ctx.append(radar.frames[: cfg.frames_in])
        fut.append(radar.frames[cfg.frames_in:])
        sat.append(satellite.frames[: cfg.frames_in])
    out = {
        "x_radar": np.stack(ctx),
        "y_future": np.stack(fut),
    }
    if cfg.mode == "multimodal":
        out["x_sat"] = np.stack(sat)
    return out


@dataclass
class TrainResult:
    model: Model
    losses: list
    trace: list
    probe_trace: list
    probe_summary: dict
    partitions: list = field(default_factory=list)


def _energy_trace(run_id, step, batch_id, energies, csi=None) -> list:
    records = []
    for layer, eb in enumerate(energies):
        bsz, heads = eb.energies.shape
        for head in range(heads):
            for sample in range(bsz):
                records.append(
                    TraceRecord(
                        run_id=run_id, step=step, batch_id=batch_id, layer=layer,
                        head=head, sample=sample, energy=float(eb.energies[sample, head]),
                        batch_csi_m=csi,
                    )
                )
    return records


def train(cfg: TrainConfig, hare_enabled: bool | None = None) -> TrainResult:
    """SGD training loop; fully deterministic in (cfg, seed).

    hare_enabled=False reproduces a build without the stabilization module;
    by default the module is active exactly when lambda_hare > 0, and a
    zero weight takes the identical code path as the disabled build.  A
    non-finite loss or gradient raises DivergenceError before its update,
    as do non-finite energies in the held-out probe.
    """
    if hare_enabled is None:
        hare_enabled = cfg.lambda_hare > 0.0
    model = build_model(cfg)
    train_specs, val_specs, _ = make_split(
        cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width
    )
    data = render_dataset(train_specs, cfg)
    rng = SeededRng(cfg.seed, stream=3000)

    losses, trace, partitions = [], [], []
    for step in range(cfg.steps):
        idx = rng.integers(0, cfg.n_train, size=cfg.batch_size)
        batch = {k: v[idx] for k, v in data.items()}
        draws = FrozenDraws(
            t=np.asarray(rng.integers(1, model.sched.steps + 1, size=cfg.batch_size)),
            eps=rng.normal(batch["y_future"].shape),
        )
        res = objective(model, batch, draws, cfg, hare_enabled)
        if not (math.isfinite(res.total) and all(np.all(np.isfinite(g)) for g in res.grads.values())):
            raise DivergenceError(f"training diverged at step {step}: non-finite loss or gradient")
        for name in sorted(model.params):
            model.params[name] -= cfg.learning_rate * res.grads[name]
        losses.append(
            {"step": step, "recon": res.recon, "hare": res.hare, "diff": res.diff, "total": res.total}
        )
        if cfg.trace_every and step % cfg.trace_every == 0:
            trace.extend(_energy_trace(cfg.run_id, step, step, [block.energy for block in res.blocks]))
            for layer, block in enumerate(res.blocks):
                partitions.append({"step": step, "layer": layer, **block.groups})

    probe_trace, probe_summary = probe_model(model, cfg, val_specs)
    if not math.isfinite(probe_summary["normalized_energy_variance"]):
        raise DivergenceError("training diverged: non-finite energies in the held-out probe")
    return TrainResult(
        model=model, losses=losses, trace=trace,
        probe_trace=probe_trace, probe_summary=probe_summary,
        partitions=partitions,
    )


def sample_conditioned(model: Model, f: np.ndarray, n_steps: int, rng: SeededRng) -> np.ndarray:
    """DDIM forecast (B, frames_out, H, W) conditioned on the latent F (B, N, dim)."""
    cond, _ = conditioning_forward(f, model.params)

    def eps_fn(x, t):
        out, _ = denoiser_forward(x, t, cond, model.den_cfg, model.params)
        return out

    shape = (f.shape[0], model.den_cfg.out_channels, model.enc_cfg.height, model.enc_cfg.width)
    return ddim_sample(eps_fn, model.sched, shape, n_steps, rng)


def make_predictor(model: Model, cfg: TrainConfig, base_rng: SeededRng):
    """Chunk predictor for rollout; decoders are never touched here."""
    state = {"calls": 0}

    def predict_chunk(context: np.ndarray, x_sat: np.ndarray | None = None) -> np.ndarray:
        f, _ = encode(context[None], None if x_sat is None else x_sat[None], model.enc_cfg, model.params)
        state["calls"] += 1
        return sample_conditioned(model, f, cfg.sample_steps, base_rng.spawn(state["calls"]))[0]

    return predict_chunk


def rollout(predict_chunk, x_context: np.ndarray, horizon: int, chunk: int, frames_in: int,
            on_context=None) -> np.ndarray:
    """Autoregressive forecast: predict a chunk, append, re-condition.

    x_context is (T_I, H, W); returns (horizon, H, W).  The context for
    each chunk is the most recent frames_in frames of observed + generated
    history.
    """
    if horizon % chunk:
        raise ConfigError(f"horizon {horizon} is not a multiple of chunk {chunk}")
    history = [np.asarray(f, dtype=np.float64) for f in x_context]
    produced = []
    for _ in range(horizon // chunk):
        context = np.stack(history[-frames_in:])
        if on_context is not None:
            on_context(context)
        pred = predict_chunk(context)
        produced.extend(pred)
        history.extend(pred)
    return np.stack(produced)


def probe_model(model: Model, cfg: TrainConfig, probe_specs) -> tuple[list, dict]:
    """Held-out energy statistics and forecast quality per probe batch.

    Emits trace records with batch CSI-M and summarizes the per-head
    cross-sample energy variance normalized by squared mean head energy.
    """
    records = []
    norm_vars = []
    specs = list(probe_specs)
    bsz = cfg.batch_size
    if len(specs) < bsz:
        raise ConfigError(f"probe needs at least one full batch ({bsz} events)")
    n_batches = min(cfg.probe_batches, len(specs) // bsz)
    rng = SeededRng(cfg.seed, stream=7000)
    for b in range(n_batches):
        group = specs[b * bsz:(b + 1) * bsz]
        data = render_dataset(group, cfg)
        f, enc_cache = encode(data["x_radar"], data.get("x_sat"), model.enc_cfg, model.params)
        pred = sample_conditioned(model, f, cfg.sample_steps, rng.spawn(b + 1))
        csi = csi_m(pred, data["y_future"], SEVIR_THRESHOLDS)
        csi = 0.0 if np.isnan(csi) else csi
        energies = [compute_energies(acts) for acts in enc_cache.acts]
        records.extend(_energy_trace(cfg.run_id, 0, b, energies, csi=float(csi)))
        for eb in energies:
            var = cross_sample_variance(eb)
            mean = eb.energies.mean(axis=0)
            norm_vars.append(var / np.maximum(mean**2, 1e-300))
    summary = {
        "batches": n_batches,
        "normalized_energy_variance": float(np.mean(norm_vars)),
    }
    return records, summary
