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
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ConfigError, DivergenceError
from ..hare import block_stabilization, compute_energies, cross_sample_variance, difficulty_mask
from ..metrics import SEVIR_THRESHOLDS, csi_m
from ..synthdata import make_split, render_radar, render_satellite
from ..tensor_core import SeededRng, check_seed
from ..trace import TraceRecord
from .diffusion import (
    SIZE_MULTIPLE,
    DiffusionSchedule,
    ddim_sample,
    denoiser_forward,
    diffusion_loss,
    init_denoiser_params,
    make_schedule,
    noising,
)
from .model import (
    conditioning_backward,
    conditioning_forward,
    encode,
    encode_backward,
    init_encoder_params,
    reconstruction_loss,
)


MODES = ("unimodal", "multimodal")
# Keys of each TrainResult.losses row, in the column order of losses.csv.
LOSS_COLUMNS = ("step", "recon", "hare", "diff", "total")

# Every int field of TrainConfig is a count or size that must be >= 1,
# except these, whose own rules __post_init__ checks.
_OWN_INT_RULES = ("seed", "sample_steps", "trace_every")


@dataclass(frozen=True)
class TrainConfig:
    """The toy model's one config: its sizes, data, loss weights and training run.

    __post_init__ is the one place each of its rules is checked.
    """

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
    mask_fraction: float = 1.0  # the stabilization loss acts on the hardest ceil(fraction * B) samples
    n_train: int = 48
    n_val: int = 16
    n_test: int = 8
    trace_every: int = 10
    probe_batches: int = 16
    run_id: str = "toy"

    def __post_init__(self):
        check_seed("seed", self.seed)
        for key in (f.name for f in fields(self) if f.type == "int" and f.name not in _OWN_INT_RULES):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
            if key in ("height", "width") and value % SIZE_MULTIPLE:
                raise ConfigError(f"{key} must be a multiple of {SIZE_MULTIPLE} (the denoiser's stride), got {value}")
        for key, divisor in (("height", "patch"), ("width", "patch"), ("dim", "heads"),
                             ("den_bottleneck", "den_heads")):
            value, by = getattr(self, key), getattr(self, divisor)
            if value % by:
                raise ConfigError(f"{key} must be a multiple of {divisor} ({by}), got {value}")
        if self.trace_every < 0:
            raise ConfigError(f"trace_every must be >= 0 (0 turns tracing off), got {self.trace_every}")
        if self.n_val < self.batch_size:
            raise ConfigError(
                f"n_val {self.n_val} < batch_size {self.batch_size}: "
                "the held-out probe needs one full batch"
            )
        if not 1 <= self.sample_steps <= self.diffusion_steps:
            raise ConfigError(f"sample_steps must be in [1, diffusion_steps], got {self.sample_steps}")
        for key in ("lambda_recon", "lambda_hare", "lambda_diff"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        # Batch statistics (the stabilization loss and the held-out probe's
        # cross-sample variance) need two samples.
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if not (0.0 < self.mask_fraction <= 1.0):
            raise ConfigError(f"mask_fraction must be in (0,1], got {self.mask_fraction}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        # The sinusoidal embedding has 2 * (time_dim // 2) columns.
        if self.time_dim % 2:
            raise ConfigError(f"time_dim must be even, got {self.time_dim}")

    @property
    def den_in(self) -> int:
        """Denoiser input channels: the noisy frames plus the conditioning."""
        return self.frames_out + self.cond_dim


@dataclass
class Model:
    cfg: TrainConfig
    sched: DiffusionSchedule
    params: dict


def build_model(cfg: TrainConfig) -> Model:
    rng = SeededRng(cfg.seed, stream=1000)
    params = init_encoder_params(cfg, rng)
    params.update(init_denoiser_params(cfg, rng.spawn(2000)))
    return Model(cfg=cfg, sched=make_schedule(cfg.diffusion_steps), params=params)


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


def draw_batch(model: Model, data: dict, cfg: TrainConfig, rng: SeededRng):
    """A training batch and its frozen draws: sample indices, then t, then eps."""
    idx = rng.integers(0, cfg.n_train, size=cfg.batch_size)
    batch = {k: v[idx] for k, v in data.items()}
    draws = FrozenDraws(
        t=np.asarray(rng.integers(1, model.sched.steps + 1, size=cfg.batch_size)),
        eps=rng.normal(batch["y_future"].shape),
    )
    return batch, draws


def objective(
    model: Model,
    batch: dict,
    draws: FrozenDraws,
    cfg: TrainConfig,
    hare_enabled: bool,
    compute_grads: bool = True,
) -> StepResult:
    """Forward (and optionally backward) pass of the full training loss."""
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()} if compute_grads else None
    f, enc_cache = encode(batch["x_radar"], batch.get("x_sat"), cfg, model.params)
    l_recon, grad_f_recon = reconstruction_loss(f, enc_cache.patches, cfg, model.params, grads)

    cond, pooled = conditioning_forward(f, model.params)
    x_t = noising(batch["y_future"], draws.t, draws.eps, model.sched)
    l_diff, per_sample_diff, g_cond = diffusion_loss(
        x_t, draws.t, cond, draws.eps, cfg, model.params, grads
    )

    l_hare = 0.0
    grad_o_extra = None
    blocks = []
    if hare_enabled:
        mask = difficulty_mask(per_sample_diff, cfg.mask_fraction)
        blocks = [
            block_stabilization(c.o, mask, cfg.alpha, cfg.grouping, cfg.detach_target)
            for c in enc_cache.block_caches
        ]
        l_hare = sum(block.loss / cfg.layers for block in blocks)
        grad_o_extra = [cfg.lambda_hare * block.grad_o / cfg.layers for block in blocks]

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
        encode_backward(cfg, model.params, enc_cache, grad_f, grad_o_extra, grads)

    total = cfg.lambda_recon * l_recon + cfg.lambda_hare * l_hare + cfg.lambda_diff * l_diff
    return StepResult(
        total=total, recon=l_recon, hare=l_hare, diff=l_diff, grads=grads, blocks=blocks,
    )


def _context_inputs(x_radar: np.ndarray, cfg: TrainConfig) -> dict:
    """Encoder inputs for radar contexts (B, frames_in, H, W); x_sat is rendered from them if multimodal."""
    inputs = {"x_radar": x_radar}
    if cfg.mode == "multimodal":
        inputs["x_sat"] = np.stack([render_satellite(x) for x in x_radar])
    return inputs


def render_dataset(specs, cfg: TrainConfig):
    """Materialize the context inputs (x_radar, x_sat if multimodal) and y_future."""
    t_total = cfg.frames_in + cfg.frames_out
    radar = [render_radar(spec, t_total, cfg.height, cfg.width) for spec in specs]
    out = _context_inputs(np.stack([r[: cfg.frames_in] for r in radar]), cfg)
    out["y_future"] = np.stack([r[cfg.frames_in:] for r in radar])
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
        batch, draws = draw_batch(model, data, cfg, rng)
        res = objective(model, batch, draws, cfg, hare_enabled)
        if not (math.isfinite(res.total) and all(np.all(np.isfinite(g)) for g in res.grads.values())):
            raise DivergenceError(f"training diverged at step {step}: non-finite loss or gradient")
        for name in sorted(model.params):
            model.params[name] -= cfg.learning_rate * res.grads[name]
        losses.append(dict(zip(LOSS_COLUMNS, (step, res.recon, res.hare, res.diff, res.total))))
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


def sample_conditioned(model: Model, f: np.ndarray, rng: SeededRng) -> np.ndarray:
    """DDIM forecast (B, frames_out, H, W) from the latent F (B, N, dim), in model.cfg.sample_steps steps."""
    cond, _ = conditioning_forward(f, model.params)

    def eps_fn(x, t):
        out, _ = denoiser_forward(x, t, cond, model.cfg, model.params)
        return out

    shape = (f.shape[0], model.cfg.frames_out, model.cfg.height, model.cfg.width)
    return ddim_sample(eps_fn, model.sched, shape, model.cfg.sample_steps, rng)


def make_predictor(model: Model, cfg: TrainConfig, base_rng: SeededRng):
    """Chunk predictor for rollout; decoders are never touched here."""
    state = {"calls": 0}

    def predict_chunk(context: np.ndarray) -> np.ndarray:
        inputs = _context_inputs(context[None], cfg)
        f, _ = encode(inputs["x_radar"], inputs.get("x_sat"), cfg, model.params)
        state["calls"] += 1
        return sample_conditioned(model, f, base_rng.spawn(state["calls"]))[0]

    return predict_chunk


def rollout(predict_chunk, x_context: np.ndarray, horizon: int, chunk: int, frames_in: int) -> np.ndarray:
    """Autoregressive forecast: predict a chunk, append, re-condition.

    x_context is (T_I, H, W); returns (horizon, H, W).  The context for
    each chunk is the most recent frames_in frames of observed + generated
    history, and predict_chunk must return exactly chunk frames.
    """
    if min(horizon, chunk) < 1:
        raise ConfigError(f"rollout needs horizon and chunk >= 1, got horizon={horizon} chunk={chunk}")
    if horizon % chunk:
        raise ConfigError(f"horizon {horizon} is not a multiple of chunk {chunk}")
    history = [np.asarray(f, dtype=np.float64) for f in x_context]
    produced = []
    for _ in range(horizon // chunk):
        pred = predict_chunk(np.stack(history[-frames_in:]))
        if len(pred) != chunk:
            raise ConfigError(f"predict_chunk gave {len(pred)} frames, but chunk is {chunk}")
        produced.extend(pred)
        history.extend(pred)
    return np.stack(produced)


def probe_model(model: Model, cfg: TrainConfig, probe_specs) -> tuple[list, dict]:
    """Held-out energy statistics and forecast quality per probe batch.

    Emits trace records with batch CSI-M and summarizes the per-head
    cross-sample energy variance normalized by squared mean head energy.
    A batch where every threshold is skipped has no CSI-M; its records
    carry 0.0, because the trace format holds no NaN, and the summary
    counts such batches as event_free_batches.
    """
    records = []
    norm_vars = []
    event_free = 0
    specs = list(probe_specs)
    bsz = cfg.batch_size
    n_batches = min(cfg.probe_batches, len(specs) // bsz)
    rng = SeededRng(cfg.seed, stream=7000)
    for b in range(n_batches):
        group = specs[b * bsz:(b + 1) * bsz]
        data = render_dataset(group, cfg)
        f, enc_cache = encode(data["x_radar"], data.get("x_sat"), cfg, model.params)
        pred = sample_conditioned(model, f, rng.spawn(b + 1))
        csi = csi_m(pred, data["y_future"], SEVIR_THRESHOLDS)
        if np.isnan(csi):
            event_free += 1
            csi = 0.0
        energies = [compute_energies(c.o) for c in enc_cache.block_caches]
        records.extend(_energy_trace(cfg.run_id, 0, b, energies, csi=float(csi)))
        for eb in energies:
            var = cross_sample_variance(eb)
            norm_vars.append(var / np.maximum(eb.head_means**2, 1e-300))
    summary = {
        "batches": n_batches,
        "event_free_batches": event_free,
        "normalized_energy_variance": float(np.mean(norm_vars)),
    }
    return records, summary
