"""Central finite-difference verification of analytic gradients.

Gradients pass when |analytic - numeric| <= rtol * max(|analytic|,
|numeric|) + atol per coordinate.  The absolute guard exists for
structurally-zero gradients (e.g. the key bias of row-softmax attention),
where central differences measure nothing but roundoff of order
eps * |loss| / step; atol defaults to that noise scale times a safety
factor.  Checking samples a deterministic subset of coordinates per
parameter so whole-model sweeps stay fast.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import SeededRng

__all__ = ["GradCheckReport", "check_gradients", "fd_gradient"]

DEFAULT_STEP = 1e-5
DEFAULT_RTOL = 1e-5


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fd_gradient(loss_fn, params: dict, name: str, index: int, step: float = DEFAULT_STEP) -> float:
    """Central difference of loss_fn at one flat coordinate of params[name]."""
    flat = params[name].reshape(-1)
    old = flat[index]
    flat[index] = old + step
    lp = loss_fn()
    flat[index] = old - step
    lm = loss_fn()
    flat[index] = old
    return (lp - lm) / (2.0 * step)


def check_gradients(
    loss_fn,
    params: dict,
    analytic: dict,
    rng: SeededRng,
    coords_per_param: int = 12,
    step: float = DEFAULT_STEP,
    rtol: float = DEFAULT_RTOL,
    atol: float | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against sampled finite differences.

    params and analytic are matching name -> array dicts.  loss_fn takes no
    arguments and must read the (mutated in place) params.  atol defaults
    to 100x the roundoff noise floor of the central difference at the
    current loss magnitude.
    """
    if atol is None:
        base = abs(loss_fn())
        atol = 100.0 * np.finfo(np.float64).eps * max(1.0, base) / (2.0 * step)

    worst = (0.0, "", -1)
    failures = []
    checked = 0
    for name in sorted(params):
        size = params[name].size
        if size == 0:
            continue
        k = min(coords_per_param, size)
        idx = rng.spawn(zlib.crc32(name.encode()) & 0xFFFF).permutation(size)[:k]
        for index in idx:
            index = int(index)
            num = fd_gradient(loss_fn, params, name, index, step)
            ana = float(analytic[name].reshape(-1)[index])
            denom = max(abs(ana), abs(num))
            err = abs(ana - num)
            rel = err / denom if denom > 0 else 0.0
            checked += 1
            if err > rtol * denom + atol:
                failures.append((name, index, ana, num, rel))
            # Track the worst relative error only where a discrepancy at
            # rtol would be resolvable above the difference noise floor.
            if denom >= atol / rtol and rel > worst[0]:
                worst = (rel, name, index)
    return GradCheckReport(
        max_rel_err=worst[0], worst_param=worst[1], worst_index=worst[2],
        checked=checked, failures=failures,
    )


# ---------------------------------------------------------------------------
# Ready-made check suites shared by the CLI command and the acceptance gate.
# ---------------------------------------------------------------------------


def attention_gradcheck(seed: int, perturb: tuple[str, float] | None = None) -> GradCheckReport:
    """Random attention block against finite differences of a mixed loss."""
    from .attention import AttentionConfig, AttentionParams, mha_backward, mha_forward

    cfg = AttentionConfig(model_dim=8, heads=2)
    rng = SeededRng(seed)
    params = AttentionParams.init(cfg, rng)
    x = rng.normal((2, 5, 8))
    wy = SeededRng(seed + 101).normal(x.shape)
    wo = SeededRng(seed + 202).normal((2, 2, 5, 4))

    def loss():
        y, cache = mha_forward(x, cfg, params)
        return float(np.sum(y * wy) + np.sum(cache.acts.o * wo))

    _, cache = mha_forward(x, cfg, params)
    grads, _ = mha_backward(cfg, params, cache, wy, wo)
    analytic = dict(grads.items())
    if perturb is not None and perturb[0] in analytic:
        analytic[perturb[0]] = analytic[perturb[0]] + perturb[1]
    return check_gradients(loss, dict(params.items()), analytic, SeededRng(seed + 7))


def micro_train_config(seed: int, lambdas=(1.0, 1.0, 5.0)):
    """The micro model the end-to-end objective check runs on."""
    from .nowcast.training import TrainConfig

    return TrainConfig(
        seed=seed, height=16, width=16, frames_in=2, frames_out=2, patch=8,
        dim=8, layers=1, heads=2, den_base=4, den_mid=6, den_bottleneck=8,
        den_heads=2, time_dim=8, cond_dim=4, batch_size=2,
        lambda_recon=lambdas[0], lambda_hare=lambdas[1], lambda_diff=lambdas[2],
        detach_target=False, n_train=4, n_val=2, n_test=2,
    )


def _robust_micro_instance(cfg, seed: int):
    """Batch + frozen draws whose stabilization margins avoid ReLU kinks."""
    from .nowcast.training import FrozenDraws, build_model, objective, render_dataset
    from .synthdata import make_split

    model = build_model(cfg)
    specs, _, _ = make_split(cfg.seed, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width)
    data = render_dataset(specs, cfg)
    for offset in range(40):
        rng = SeededRng(seed + 9000 + offset, stream=17)
        idx = rng.integers(0, cfg.n_train, size=cfg.batch_size)
        batch = {k: v[idx] for k, v in data.items()}
        draws = FrozenDraws(
            t=np.asarray(rng.integers(1, model.sched.steps + 1, size=cfg.batch_size)),
            eps=rng.normal(batch["y_future"].shape),
        )
        res = objective(model, batch, draws, cfg, hare_enabled=True)
        safe = True
        for block in res.blocks:
            eb, ge = block.energy, block.group
            hm = np.sort(eb.head_means)
            if hm[-1] - hm[-2] < 1e-3:
                safe = False
            if np.min(np.abs(eb.head_means - cfg.alpha * eb.mean_energy)) < 1e-3:
                safe = False
            dev = ge.values - ge.values.mean(axis=0)
            if np.min(np.abs(dev[:, ge.present])) < 1e-4:
                safe = False
        if safe:
            return model, batch, draws, res
    raise RuntimeError("no kink-safe micro instance found")


def objective_gradcheck(seed: int, hare_only: bool = False, coords_per_param: int = 4) -> GradCheckReport:
    """Finite-difference check of the end-to-end training objective.

    The target mean is left attached (its gradient path included) so the
    analytic gradient is the exact derivative of the evaluated scalar.
    """
    from .nowcast.training import objective

    lambdas = (0.0, 1.0, 0.0) if hare_only else (1.0, 1.0, 5.0)
    cfg = micro_train_config(seed, lambdas)
    model, batch, draws, res = _robust_micro_instance(cfg, seed)

    def loss():
        return objective(model, batch, draws, cfg, hare_enabled=True, compute_grads=False).total

    return check_gradients(
        loss, model.params, res.grads, SeededRng(seed + 31),
        coords_per_param=coords_per_param,
    )


def run_gradcheck_suite(seed: int, seeds: int = 20, perturb: tuple[str, float] | None = None):
    """(ok, rows) across attention and end-to-end objective checks."""
    rows = []
    ok = True
    for s in range(seed, seed + 5):
        rep = attention_gradcheck(s, perturb=perturb)
        rows.append(("attention", s, rep))
        ok &= rep.ok
    for s in range(seed, seed + seeds):
        rep = objective_gradcheck(s, hare_only=True)
        rows.append(("stabilization_only", s, rep))
        ok &= rep.ok
        rep = objective_gradcheck(s, hare_only=False)
        rows.append(("full_objective", s, rep))
        ok &= rep.ok
    return ok, rows
