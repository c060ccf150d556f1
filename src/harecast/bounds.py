"""Numerical verification of the variance-propagation lower bounds.

Checks, on empirical moments, that (i) an affine head cannot shrink total
variance below sigma_min^2 times its input's variance, (ii) mean squared
error is bounded below by squared bias plus the squared gap of standard
deviations, and (iii) the chained consequence: when the response map
expands variance by c_F and the head is non-degenerate with c_G, matched
input/target variability forces MSE >= (c_G c_F - 1)^2 Var(Y) (plus two
sibling forms).  All checks are seed-deterministic Monte Carlo; totals use
the population convention Var(Z) = E||Z - E Z||^2 to match the moment
definitions (the diagnostic variance elsewhere in the package is the
unbiased n-1 kind; reports name the convention to avoid confusion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionConfig, AttentionParams, LinearHead, mha_forward, sigma_min
from .errors import ConfigError, DegenerateInputError
from .tensor_core import SeededRng

__all__ = [
    "DistributionSpec",
    "BoundReport",
    "TheoremResult",
    "total_variance",
    "estimate_cf",
    "check_lemma1",
    "check_lemma2",
    "check_theorem1",
    "matched_variance_targets",
    "linear_map",
    "attention_pushforward_map",
    "draw_samples",
    "run_verification_suite",
    "SuiteReport",
    "render_report",
]

# Exact-inequality checks (moment-level identities) use this absolute slack.
EXACT_EPS = 1e-10


@dataclass(frozen=True)
class DistributionSpec:
    """Descriptor of a sample generator for the Monte-Carlo checks.

    kind: 'gaussian', 'mixture', or 'attention_pushforward' (a Gaussian
    pushed through a fixed random attention block, giving a non-Gaussian
    cloud).  n is the sample count (>= 2).
    """

    kind: str
    dim: int
    n: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("sample count must be >= 2")
        if self.kind not in ("gaussian", "mixture", "attention_pushforward"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "attention_pushforward" and (self.dim < 4 or self.dim % 2):
            raise ConfigError("attention_pushforward needs an even dim >= 4")


def draw_samples(spec: DistributionSpec) -> np.ndarray:
    """Materialize (n, dim) samples for a DistributionSpec."""
    rng = SeededRng(spec.seed, stream=101)
    if spec.kind == "gaussian":
        mean = rng.normal((spec.dim,))
        return mean + spec.scale * rng.normal((spec.n, spec.dim))
    if spec.kind == "mixture":
        m1 = rng.normal((spec.dim,))
        m2 = rng.normal((spec.dim,))
        comp = (rng.uniform((spec.n,)) < 0.5)[:, None]
        base = rng.normal((spec.n, spec.dim))
        return np.where(comp, m1 + 0.7 * spec.scale * base, m2 + 1.3 * spec.scale * base)
    # Gaussian tokens through a fixed random attention block, flattened.
    block = _attention_block_map(spec.dim, rng.spawn(7))
    return block(spec.scale * rng.normal((spec.n, spec.dim)))


def total_variance(samples) -> float:
    """Population total variance: mean squared deviation from the mean."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape[0] < 2:
        raise ConfigError("total_variance needs at least 2 samples")
    flat = arr.reshape(arr.shape[0], -1)
    dev = flat - flat.mean(axis=0)
    return float(np.mean(np.sum(dev * dev, axis=1)))


def linear_map(matrix) -> "callable":
    m = np.asarray(matrix, dtype=np.float64)
    return lambda xs: xs @ m.T


def _attention_block_map(dim: int, rng: SeededRng):
    """Residual single-head attention block of random weights from rng.

    Acts on (n, dim) vectors read as dim / 2 tokens of 2 features.
    """
    if dim < 4 or dim % 2:
        raise ConfigError("attention map needs an even dim >= 4")
    feat = 2
    tokens = dim // feat
    cfg = AttentionConfig(model_dim=feat, heads=1)
    params = AttentionParams.init(cfg, rng, scale=1.0)

    def apply(xs: np.ndarray) -> np.ndarray:
        t = xs.reshape(xs.shape[0], tokens, feat)
        y, _ = mha_forward(t, cfg, params)
        return (t + y).reshape(xs.shape[0], dim)

    return apply


def attention_pushforward_map(dim: int, seed: int, gain: float = 1.0):
    """Fixed random attention block as a response map on flat vectors."""
    block = _attention_block_map(dim, SeededRng(seed, stream=202))
    return lambda xs: gain * block(xs)


def estimate_cf(response_map, x_samples) -> float:
    """Largest variance-expansion constant consistent with the samples.

    Returns sqrt(Var(F(X)) / Var(X)) on empirical moments.
    """
    var_x = total_variance(x_samples)
    if var_x == 0.0:
        raise DegenerateInputError("input samples have zero variance")
    var_f = total_variance(response_map(np.asarray(x_samples, dtype=np.float64)))
    return float(np.sqrt(var_f / var_x))


@dataclass
class BoundReport:
    """One inequality check: lhs >= rhs up to eps_num slack."""

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    eps_num: float
    constants: dict = field(default_factory=dict)


def _margin_se(lhs_terms: np.ndarray, rhs_terms: np.ndarray, blocks: int = 10) -> float:
    """Sampling standard error of a moment-difference via block means."""
    n = lhs_terms.shape[0]
    if n < blocks:
        blocks = max(2, n)
    edges = np.linspace(0, n, blocks + 1, dtype=int)
    vals = []
    for b in range(blocks):
        sl = slice(edges[b], edges[b + 1])
        vals.append(float(np.mean(lhs_terms[sl]) - np.mean(rhs_terms[sl])))
    return float(np.std(vals, ddof=1) / np.sqrt(blocks))


def _report(name, lhs, rhs, eps, constants) -> BoundReport:
    margin = lhs - rhs
    return BoundReport(
        name=name, lhs=float(lhs), rhs=float(rhs), margin=float(margin),
        holds=bool(margin >= -eps), eps_num=float(eps), constants=constants,
    )


def check_lemma1(head: LinearHead, f_samples) -> BoundReport:
    """Var(W f + b) >= sigma_min(W)^2 Var(f) on empirical moments."""
    f = np.asarray(f_samples, dtype=np.float64)
    yhat = f @ head.w.T + head.b
    c_g = sigma_min(head.w)
    var_f = total_variance(f)
    var_yhat = total_variance(yhat)
    dev_y = yhat - yhat.mean(axis=0)
    dev_f = f - f.mean(axis=0)
    se = _margin_se(np.sum(dev_y * dev_y, axis=1), c_g**2 * np.sum(dev_f * dev_f, axis=1))
    return _report(
        "head_variance_propagation", var_yhat, c_g**2 * var_f, 3.0 * se,
        {"c_G": c_g, "var_f": var_f, "var_yhat": var_yhat},
    )


def check_lemma2(y_samples, yhat_samples) -> BoundReport:
    """MSE >= ||bias||^2 + (sd(Yhat) - sd(Y))^2, exact on paired moments."""
    y = np.asarray(y_samples, dtype=np.float64).reshape(len(y_samples), -1)
    yhat = np.asarray(yhat_samples, dtype=np.float64).reshape(len(yhat_samples), -1)
    if y.shape != yhat.shape:
        raise ConfigError(f"paired samples disagree: {y.shape} vs {yhat.shape}")
    mse = float(np.mean(np.sum((y - yhat) ** 2, axis=1)))
    bias_sq = float(np.sum((yhat.mean(axis=0) - y.mean(axis=0)) ** 2))
    var_y = total_variance(y)
    var_yhat = total_variance(yhat)
    rhs = bias_sq + (np.sqrt(var_yhat) - np.sqrt(var_y)) ** 2
    scale = max(1.0, abs(mse), abs(rhs))
    return _report(
        "error_lower_bound", mse, rhs, EXACT_EPS * scale,
        {"bias_sq": bias_sq, "var_y": var_y, "var_yhat": var_yhat},
    )


def matched_variance_targets(x_samples, rng: SeededRng) -> np.ndarray:
    """Targets with exactly the input's empirical total variance.

    Deviations are permuted and rotated by a random orthogonal matrix, a
    measure-preserving transform of the empirical cloud, so
    Var(Y) == Var(X) holds by construction rather than within tolerance.
    """
    x = np.asarray(x_samples, dtype=np.float64)
    n, d = x.shape
    qmat = _orthogonal(rng, d)
    perm = rng.permutation(n)
    mean = x.mean(axis=0)
    return mean + (x[perm] - mean) @ qmat.T


@dataclass
class TheoremResult:
    """Outcome of the chained MSE bound check: reports, or a refusal."""

    refused: bool
    refusal_reason: str | None
    reports: list = field(default_factory=list)


def check_theorem1(
    x_samples,
    response_map,
    head: LinearHead,
    y_samples,
    var_tol: float = 1e-9,
    check_reduced_forms: bool = False,
) -> TheoremResult:
    """All three MSE lower bounds under the admissibility preconditions.

    Refuses (naming the violated condition) unless empirical c_G * c_F > 1
    and Var(Y) matches Var(X) within var_tol relative.  With
    check_reduced_forms, also emits the bias-free reduced bounds used in
    the unbiased configuration.
    """
    x = np.asarray(x_samples, dtype=np.float64)
    y = np.asarray(y_samples, dtype=np.float64)
    f = response_map(x)
    yhat = f @ head.w.T + head.b

    var_x = total_variance(x)
    var_y = total_variance(y)
    var_f = total_variance(f)
    var_yhat = total_variance(yhat)
    if var_x == 0.0:
        raise DegenerateInputError("input samples have zero variance")
    c_f = float(np.sqrt(var_f / var_x))
    c_g = sigma_min(head.w)

    if c_g * c_f <= 1.0:
        return TheoremResult(
            refused=True,
            refusal_reason=f"requires c_G*c_F > 1, got {c_g * c_f!r}",
        )
    if abs(var_y - var_x) > var_tol * max(var_x, 1e-300):
        return TheoremResult(
            refused=True,
            refusal_reason=(
                f"requires Var(Y) == Var(X), got Var(Y)={var_y!r} Var(X)={var_x!r}"
            ),
        )

    mse = float(np.mean(np.sum((y.reshape(len(y), -1) - yhat.reshape(len(yhat), -1)) ** 2, axis=1)))
    bias_sq = float(
        np.sum((yhat.reshape(len(yhat), -1).mean(axis=0) - y.reshape(len(y), -1).mean(axis=0)) ** 2)
    )
    consts = {
        "c_F": c_f, "c_G": c_g, "bias_sq": bias_sq,
        "var_x": var_x, "var_f": var_f, "var_y": var_y, "var_yhat": var_yhat,
    }
    scale = max(1.0, mse)
    eps = EXACT_EPS * scale
    reports = [
        _report(
            "mse_vs_response_sd_gap", mse,
            bias_sq + (c_g * np.sqrt(var_f) - np.sqrt(var_y)) ** 2, eps, consts,
        ),
        _report(
            "mse_vs_response_variance", mse,
            bias_sq + (c_g - 1.0 / c_f) ** 2 * var_f, eps, consts,
        ),
        _report(
            "mse_vs_target_variance", mse,
            bias_sq + (c_g * c_f - 1.0) ** 2 * var_y, eps, consts,
        ),
    ]
    if check_reduced_forms:
        reports.append(
            _report("reduced_response_variance", mse, (c_g - 1.0 / c_f) ** 2 * var_f, eps, consts)
        )
        reports.append(
            _report("reduced_input_variance", mse, (c_g * c_f - 1.0) ** 2 * var_x, eps, consts)
        )
    return TheoremResult(refused=False, refusal_reason=None, reports=reports)


# ---------------------------------------------------------------------------
# Suite runner used by the CLI and the acceptance gate.
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    seed: int
    trials: int
    reports: list
    refusals: list
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _orthogonal(rng: SeededRng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal((d, d)))
    return q * np.sign(np.diag(r))


def _random_head(rng: SeededRng, d: int, smin: float, smax: float) -> LinearHead:
    s = smin + (smax - smin) * rng.uniform((d,))
    w = _orthogonal(rng, d) @ np.diag(s) @ _orthogonal(rng.spawn(3), d)
    b = rng.normal((d,))
    return LinearHead(w=w, b=b)


def run_verification_suite(trials: int, seed: int, rhs_scale: float = 1.0) -> SuiteReport:
    """Lemma and theorem sweeps; rhs_scale is a fault-injection hook.

    trials scales the error-bound sweep per dimension (default 10^4 per
    dim); the head-propagation sweep runs 200 (W, distribution) pairs and
    the chained bound runs its analytic equality case plus 100 random
    admissible configurations and two refusal probes.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    reports: list[BoundReport] = []
    refusals: list[tuple[str, str, bool]] = []

    def admit(rep: BoundReport) -> BoundReport:
        if rhs_scale != 1.0:
            scaled = _report(rep.name, rep.lhs, rep.rhs * rhs_scale, rep.eps_num, rep.constants)
            return scaled
        return rep

    # Error-bound sweep: vectorized over trials per dimension.
    per_draw = 32
    for dim in (1, 4, 16):
        rng = SeededRng(seed, stream=dim)
        y = rng.normal((trials, per_draw, dim)) * (0.5 + rng.uniform((trials, 1, 1)))
        coupling = rng.uniform((trials, 1, 1)) * 2.0 - 1.0
        noise = rng.normal((trials, per_draw, dim))
        yhat = coupling * y + noise * rng.uniform((trials, 1, 1)) + rng.normal((trials, 1, dim))
        mse = np.mean(np.sum((y - yhat) ** 2, axis=2), axis=1)
        mu_gap = yhat.mean(axis=1) - y.mean(axis=1)
        bias_sq = np.sum(mu_gap**2, axis=1)
        vy = np.mean(np.sum((y - y.mean(axis=1, keepdims=True)) ** 2, axis=2), axis=1)
        vyh = np.mean(np.sum((yhat - yhat.mean(axis=1, keepdims=True)) ** 2, axis=2), axis=1)
        rhs = (bias_sq + (np.sqrt(vyh) - np.sqrt(vy)) ** 2) * rhs_scale
        margins = mse - rhs
        eps = EXACT_EPS * np.maximum(1.0, np.abs(mse))
        worst = int(np.argmin(margins - (-eps)))
        reports.append(
            BoundReport(
                name=f"error_lower_bound_sweep_dim{dim}",
                lhs=float(mse[worst]), rhs=float(rhs[worst]),
                margin=float(margins[worst]),
                holds=bool(np.all(margins >= -eps)),
                eps_num=float(eps[worst]),
                constants={"trials": float(trials), "violations": float(np.sum(margins < -eps))},
            )
        )

    # Head variance propagation: random heads against varied distributions.
    kinds = ("gaussian", "mixture", "attention_pushforward")
    for i in range(200):
        rng = SeededRng(seed + 1000 + i, stream=5)
        dim = (2, 3, 4, 6)[i % 4]
        kind = kinds[i % 3] if dim >= 4 and dim % 2 == 0 else "gaussian"
        spec = DistributionSpec(kind=kind, dim=dim, n=10_000, seed=seed + 1000 + i)
        f = draw_samples(spec)
        head = _random_head(rng, dim, smin=0.3, smax=2.5)
        reports.append(admit(check_lemma1(head, f)))
    # Equality case: a scaled identity head saturates the bound.
    eq_samples = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=10_000, seed=seed + 77))
    eq_head = LinearHead.from_matrix(2.0 * np.eye(3))
    eq = check_lemma1(eq_head, eq_samples)
    eq.name = "head_variance_propagation_equality"
    eq.constants["equality_gap_rel"] = abs(eq.lhs - eq.rhs) / eq.rhs
    reports.append(admit(eq))

    # Chained bound, analytic equality configuration: F doubles a centered
    # Gaussian, identity head, targets equal inputs.
    rng = SeededRng(seed, stream=42)
    x = rng.normal((1_000_000, 1))
    double = linear_map(np.array([[2.0]]))
    ident = LinearHead.from_matrix(np.array([[1.0]]))
    res = check_theorem1(x, double, ident, x, check_reduced_forms=True)
    if res.refused:
        refusals.append(("theorem_analytic_case", res.refusal_reason, False))
    else:
        for rep in res.reports:
            rep.name = "analytic_" + rep.name
            if rep.name == "analytic_mse_vs_target_variance":
                rep.constants["equality_gap_rel"] = abs(rep.lhs - rep.rhs) / rep.lhs
            reports.append(admit(rep))

    # Random admissible configurations.
    for i in range(100):
        rng = SeededRng(seed + 5000 + i, stream=9)
        dim = (1, 2, 3, 4)[i % 4]
        spec = DistributionSpec(kind="gaussian" if i % 2 else "mixture",
                                dim=dim, n=10_000, seed=seed + 5000 + i)
        x = draw_samples(spec)
        gain = 1.2 + rng.uniform((dim,)) * 1.5
        fmap = linear_map(_orthogonal(rng, dim) @ np.diag(gain) @ _orthogonal(rng.spawn(2), dim))
        head = _random_head(rng.spawn(4), dim, smin=0.95, smax=2.0)
        y = matched_variance_targets(x, rng.spawn(6))
        res = check_theorem1(x, fmap, head, y)
        if res.refused:
            refusals.append((f"theorem_random_{i}", res.refusal_reason, False))
        else:
            for rep in res.reports:
                rep.name = f"random{i}_" + rep.name
                reports.append(admit(rep))

    # Refusal probes: these MUST refuse.
    x = draw_samples(DistributionSpec(kind="gaussian", dim=2, n=4_000, seed=seed + 11))
    shrink = linear_map(0.3 * np.eye(2))
    res = check_theorem1(x, shrink, LinearHead.from_matrix(np.eye(2)), x)
    refusals.append(("probe_subunit_product", res.refusal_reason or "NOT REFUSED", res.refused))
    res = check_theorem1(x, linear_map(2.0 * np.eye(2)), LinearHead.from_matrix(np.eye(2)), 2.0 * x)
    refusals.append(("probe_variance_mismatch", res.refusal_reason or "NOT REFUSED", res.refused))

    violations = sum(1 for r in reports if not r.holds)
    violations += sum(1 for _, _, expected_ok in refusals if not expected_ok)
    return SuiteReport(seed=seed, trials=trials, reports=reports,
                       refusals=refusals, violations=violations)


def render_report(suite: SuiteReport) -> str:
    """Stable text rendering of a suite report (byte-identical per seed)."""
    lines = [
        "variance-bound verification report",
        f"seed: {suite.seed}",
        f"trials: {suite.trials}",
        f"checks: {len(suite.reports)}",
        f"violations: {suite.violations}",
        "",
    ]
    for r in suite.reports:
        status = "ok" if r.holds else "VIOLATED"
        lines.append(
            f"[{status}] {r.name} lhs={r.lhs!r} rhs={r.rhs!r} "
            f"margin={r.margin!r} eps={r.eps_num!r}"
        )
    lines.append("")
    for name, reason, expected in suite.refusals:
        status = "ok" if expected else "UNEXPECTED"
        lines.append(f"[refusal {status}] {name}: {reason}")
    lines.append("")
    lines.append("verdict: " + ("PASS" if suite.ok else "FAIL"))
    lines.append("")
    return "\n".join(lines)
