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

total_variance and check_theorem1 read their samples in row blocks of at
most _BLOCK rows, cut from NumPy's own pairwise summation tree, so only
the input rows are held whole and every moment keeps the bits NumPy gives
the whole array (see _block_moments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import LinearHead, init_attention, mha_forward, sigma_min
from .errors import ConfigError, DegenerateInputError, ShapeError
from .tensor_core import SeededRng, sum_last

__all__ = [
    "DistributionSpec",
    "BoundReport",
    "TheoremResult",
    "total_variance",
    "check_lemma1",
    "check_lemma2",
    "check_theorem1",
    "matched_variance_targets",
    "linear_map",
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
        return mean + rng.normal((spec.n, spec.dim))
    if spec.kind == "mixture":
        m1 = rng.normal((spec.dim,))
        m2 = rng.normal((spec.dim,))
        comp = (rng.uniform((spec.n,)) < 0.5)[:, None]
        base = rng.normal((spec.n, spec.dim))
        return np.where(comp, m1 + 0.7 * base, m2 + 1.3 * base)
    # Gaussian tokens through a fixed random attention block, flattened.
    block = _attention_block_map(spec.dim, rng.spawn(7))
    return block(rng.normal((spec.n, spec.dim)))


def _sq_norms(dev: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, bitwise equal to np.sum(dev * dev, axis=-1)."""
    return sum_last(dev * dev)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over axis -2, bitwise rows.sum(axis=-2).

    NumPy adds C-contiguous rows of 2 or more columns row by row, as
    np.add.accumulate does, which is faster at 2 to 5 columns.  Other shapes
    (one column is summed pairwise) and layouts take rows.sum(axis=-2).
    """
    if 2 <= rows.shape[-1] < 6 and rows.flags.c_contiguous:
        return np.add.accumulate(rows, axis=-2)[..., -1, :]
    return rows.sum(axis=-2)


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over axis -2, bitwise rows.mean(axis=-2)."""
    return _row_sum(rows) / rows.shape[-2]


def _rows(samples) -> np.ndarray:
    """Samples as float64 rows, one per sample; at least 2 are needed."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape[0] < 2:
        raise ConfigError(f"need at least 2 samples, got {arr.shape[0]}")
    return arr.reshape(arr.shape[0], -1)


def _centred_sq(samples) -> np.ndarray:
    """Squared norm of each sample's deviation from the mean sample."""
    rows = _rows(samples)
    return _sq_norms(rows - _row_mean(rows))


def _paired_moments(y: np.ndarray, yhat: np.ndarray):
    """(mse, bias_sq, var_y, var_yhat) of paired samples (..., n, dim), reduced over n.

    mse is the mean squared norm of y - yhat, bias_sq the squared norm of
    the gap between the mean rows, and the variances are population totals.
    """
    y_mean, yhat_mean = _row_mean(y), _row_mean(yhat)
    return (
        np.mean(_sq_norms(y - yhat), axis=-1),
        _sq_norms(yhat_mean - y_mean),
        np.mean(_sq_norms(y - y_mean[..., None, :]), axis=-1),
        np.mean(_sq_norms(yhat - yhat_mean[..., None, :]), axis=-1),
    )


def _lemma2_bound(mse, bias_sq, var_y, var_yhat):
    """(rhs, eps): Lemma 2's lower bound ||bias||^2 + (sd(Yhat) - sd(Y))^2 on
    mse, and its slack EXACT_EPS * max(1, |mse|)."""
    rhs = bias_sq + (np.sqrt(var_yhat) - np.sqrt(var_y)) ** 2
    return rhs, EXACT_EPS * np.maximum(1.0, np.abs(mse))


# Most rows per leaf of _block_moments; a larger call's leaves hold 2^15
# to 2^16 rows.  Leaves that large keep a head's GEMM on OpenBLAS's blocked
# path, bitwise the whole-array product (1,000-row blocks take its
# small-matrix path and differ), and a one-column leaf takes 512 KiB.
_BLOCK = 1 << 16


def _tree_sum(start: int, stop: int, leaf) -> dict:
    """leaf(lo, hi) summed over the leaves of NumPy's pairwise tree on rows [start, stop).

    NumPy sums n values pairwise: it splits them at n // 2 rounded down to
    a multiple of 8 and adds the sums of the two halves.  Cut at nodes of at
    most _BLOCK rows, each leaf is a subtree that NumPy sums the same way on
    its own, so when leaf returns NumPy's sums over its rows (a dict of
    arrays), adding them key by key at each node keeps every bit of the sum
    over all rows.  Leaves are visited in row order.
    """
    if stop - start <= _BLOCK:
        return leaf(start, stop)
    half = (stop - start) // 2
    mid = start + half - half % 8
    left = _tree_sum(start, mid, leaf)
    right = _tree_sum(mid, stop, leaf)
    return {k: v + right[k] for k, v in left.items()}


def _pairwise_columns(rows: np.ndarray) -> bool:
    """Whether NumPy sums each column of (n, d) rows pairwise: one column, or
    columns laid out along memory (Fortran order).  Otherwise it adds the
    rows one after another."""
    return rows.shape[1] == 1 or abs(rows.strides[0]) < abs(rows.strides[1])


def _block_moments(n: int, read):
    """(means, sq): the mean row of each array read in row blocks, and the
    mean squared norm of its deviation from that mean, its population total
    variance; when read yields two or more arrays, sq ends with the mean
    squared norm of the last array's gap from the one before.

    read(lo, hi) yields rows lo to hi of each array in turn, as (hi - lo, d)
    arrays.  It is called once per leaf of _tree_sum in each of two passes
    (means, then deviations), so a map it applies must act on each row
    alone, and only the input rows and one leaf's arrays are ever held.
    Every value is bitwise what NumPy gives the whole arrays: per-row norms
    and one-column or Fortran-ordered column sums are summed on NumPy's
    pairwise tree, and wider C-ordered rows, which NumPy adds row by row,
    are added to a running sum that each leaf carries on.  A call with
    n <= _BLOCK is one leaf, reduced as NumPy reduces the whole.
    """
    running = {}

    def column_sums(lo, hi):
        sums = {}
        for k, rows in enumerate(read(lo, hi)):
            if _pairwise_columns(rows):
                sums[k] = rows.sum(axis=0)
            else:
                if k in running:
                    rows = np.concatenate((running[k][None], rows))
                running[k] = _row_sum(rows)
        return sums

    sums = _tree_sum(0, n, column_sums) | running
    means = [sums[k] / n for k in range(len(sums))]

    def sq_sums(lo, hi):
        sq = {}
        prev = None
        for k, rows in enumerate(read(lo, hi)):
            sq[k] = np.sum(_sq_norms(rows - means[k]))
            if 0 < k == len(means) - 1:
                sq["gap"] = np.sum(_sq_norms(prev - rows))
            prev = rows
        return sq

    return means, [s / n for s in _tree_sum(0, n, sq_sums).values()]


def total_variance(samples) -> float:
    """Population total variance: mean squared deviation from the mean."""
    rows = _rows(samples)
    return float(_block_moments(len(rows), lambda lo, hi: (rows[lo:hi],))[1][0])


def linear_map(matrix) -> "callable":
    m = np.asarray(matrix, dtype=np.float64)
    return lambda xs: xs @ m.T


def _attention_block_map(dim: int, rng: SeededRng):
    """Residual single-head attention block of random weights from rng.

    Acts on (n, dim) vectors read as dim / 2 tokens of 2 features (dim even, >= 4).
    """
    feat = 2
    tokens = dim // feat
    params = init_attention(feat, rng, scale=1.0)

    def apply(xs: np.ndarray) -> np.ndarray:
        t = xs.reshape(xs.shape[0], tokens, feat)
        y, _ = mha_forward(t, params, 1)
        return (t + y).reshape(xs.shape[0], dim)

    return apply


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


def _margin_se(lhs_terms: np.ndarray, rhs_terms: np.ndarray) -> float:
    """Sampling standard error of a moment-difference via the means of ten blocks."""
    n = lhs_terms.shape[0]
    blocks = 10 if n >= 10 else max(2, n)
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


def _apply_head(head: LinearHead, f: np.ndarray) -> np.ndarray:
    """W f + b over the last axis of f; ShapeError when W does not take f's width."""
    if f.shape[-1:] != head.w.shape[1:]:
        raise ShapeError(f"head weight of shape {head.w.shape} does not fit samples of shape {f.shape}")
    yhat = f @ head.w.T
    yhat += head.b
    return yhat


def check_lemma1(head: LinearHead, f_samples) -> BoundReport:
    """Var(W f + b) >= sigma_min(W)^2 Var(f) on empirical moments."""
    f = np.asarray(f_samples, dtype=np.float64)
    yhat = _apply_head(head, f)
    c_g = sigma_min(head.w)
    sq_f = _centred_sq(f)
    sq_yhat = _centred_sq(yhat)
    var_f = float(np.mean(sq_f))
    var_yhat = float(np.mean(sq_yhat))
    se = _margin_se(sq_yhat, c_g**2 * sq_f)
    return _report(
        "head_variance_propagation", var_yhat, c_g**2 * var_f, 3.0 * se,
        {"c_G": c_g, "var_f": var_f, "var_yhat": var_yhat},
    )


def check_lemma2(y_samples, yhat_samples) -> BoundReport:
    """MSE >= ||bias||^2 + (sd(Yhat) - sd(Y))^2, exact on paired moments."""
    y, yhat = _rows(y_samples), _rows(yhat_samples)
    if y.shape != yhat.shape:
        raise ConfigError(f"paired samples disagree: {y.shape} vs {yhat.shape}")
    mse, bias_sq, var_y, var_yhat = (float(m) for m in _paired_moments(y, yhat))
    return _report(
        "error_lower_bound", mse, *_lemma2_bound(mse, bias_sq, var_y, var_yhat),
        {"bias_sq": bias_sq, "var_y": var_y, "var_yhat": var_yhat},
    )


def matched_variance_targets(x_samples, rng: SeededRng) -> np.ndarray:
    """Targets with exactly the input's empirical total variance.

    Deviations are permuted and rotated by a random orthogonal matrix, a
    measure-preserving transform of the empirical cloud, so
    Var(Y) == Var(X) holds by construction rather than within tolerance.
    """
    x = np.asarray(x_samples, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"matched_variance_targets needs (n, d) samples, got shape {x.shape}")
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
    check_reduced_forms: bool = False,
) -> TheoremResult:
    """All three MSE lower bounds under the admissibility preconditions.

    Refuses (naming the violated condition) unless empirical c_G * c_F > 1
    and Var(Y) matches Var(X) within 1e-9 relative.  With
    check_reduced_forms, also emits the bias-free reduced bounds used in
    the unbiased configuration.

    The samples are read in row blocks, twice (_block_moments), so
    response_map must act on each row of x alone and map it the same way
    each time.  A map that changes the row count, and y_samples whose rows
    differ in shape from the head's output, raise ConfigError.
    """
    x = np.asarray(x_samples, dtype=np.float64)
    x_rows, y = _rows(x), _rows(y_samples)
    n = len(x_rows)

    def read(lo, hi):
        yield x_rows[lo:hi]
        f = np.asarray(response_map(x[lo:hi]), dtype=np.float64)
        if len(f) != hi - lo:
            raise ConfigError(
                f"response_map must map each row alone: {hi - lo} rows in, {len(f)} out"
            )
        yield f.reshape(len(f), -1)
        yield y[lo:hi]
        yhat = _apply_head(head, f)
        del f
        yhat = yhat.reshape(len(yhat), -1)
        if y.shape != (n, yhat.shape[1]):
            raise ConfigError(f"paired samples disagree: {y.shape} vs {(n, yhat.shape[1])}")
        yield yhat

    (_, _, y_mean, yhat_mean), moments = _block_moments(n, read)
    var_x, var_f, var_y, var_yhat, mse = (float(m) for m in moments)
    if var_x == 0.0:
        raise DegenerateInputError("input samples have zero variance")
    bias_sq = float(_sq_norms(yhat_mean - y_mean))
    c_f = float(np.sqrt(var_f / var_x))
    c_g = sigma_min(head.w)

    preconditions = (
        (c_g * c_f <= 1.0, f"requires c_G*c_F > 1, got {c_g * c_f!r}"),
        (abs(var_y - var_x) > 1e-9 * max(var_x, 1e-300),
         f"requires Var(Y) == Var(X), got Var(Y)={var_y!r} Var(X)={var_x!r}"),
    )
    for violated, reason in preconditions:
        if violated:
            return TheoremResult(refused=True, refusal_reason=reason)

    consts = {
        "c_F": c_f, "c_G": c_g, "bias_sq": bias_sq,
        "var_x": var_x, "var_f": var_f, "var_y": var_y, "var_yhat": var_yhat,
    }
    eps = EXACT_EPS * max(1.0, mse)
    bounds = {
        "mse_vs_response_sd_gap": bias_sq + (c_g * np.sqrt(var_f) - np.sqrt(var_y)) ** 2,
        "mse_vs_response_variance": bias_sq + (c_g - 1.0 / c_f) ** 2 * var_f,
        "mse_vs_target_variance": bias_sq + (c_g * c_f - 1.0) ** 2 * var_y,
    }
    if check_reduced_forms:
        bounds["reduced_response_variance"] = (c_g - 1.0 / c_f) ** 2 * var_f
        bounds["reduced_input_variance"] = (c_g * c_f - 1.0) ** 2 * var_x
    reports = [_report(name, mse, rhs, eps, consts) for name, rhs in bounds.items()]
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

    @property
    def violations(self) -> int:
        """Reports that do not hold plus refusals that were not expected."""
        return (sum(not r.holds for r in self.reports)
                + sum(not expected_ok for _, _, expected_ok in self.refusals))

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


# Trials per block of the error-bound sweep: a (block, 32, 16) array is
# 1 MiB, so one block's temporaries stay in cache.
_SWEEP_BLOCK = 256
# Normal draws per trial and their dimensions in the error-bound sweep.
_SWEEP_DRAWS = 32
_SWEEP_DIMS = (1, 4, 16)


def _error_sweep(rng: SeededRng, dim: int, out: np.ndarray, draws: np.ndarray) -> None:
    """Write the per-trial (mse, bias_sq, var_y, var_yhat) of the error-bound
    sweep at one dim into the rows of out, (4, trials).

    Each trial draws from rng's stream, in this order over all trials:
    y = normal((trials, 32, dim)) * (0.5 + uniform((trials, 1, 1))),
    coupling = uniform((trials, 1, 1)) * 2 - 1,
    noise = normal((trials, 32, dim)) * uniform((trials, 1, 1)) and
    offset = normal((trials, 1, dim)).  The per-trial draws are read at their
    stream positions into the first 3 + dim rows of draws, (rows, trials).
    y and noise are read a block of whole trials at a time and never held
    whole; each trial reduces its own rows with the same operations whatever
    the block, so the values do not depend on _SWEEP_BLOCK.
    """
    trials = out.shape[1]
    size = _SWEEP_DRAWS * dim
    n = trials * size  # values of y and of noise; size is even, so each takes n uniforms
    # Stream positions follow the draw order: each per-trial uniform draw takes trials.
    yscale, coupling, nscale = draws[:3]
    per_trial = rng.at(n)
    per_trial.fill_uniform(yscale)
    per_trial.fill_uniform(coupling)
    yscale += 0.5
    coupling *= 2.0
    coupling -= 1.0
    rng.at(2 * n + 2 * trials).fill_uniform(nscale)
    offset = draws[3:3 + dim].reshape(trials, 1, dim)
    for first, values in rng.normal_rows(2 * n + 3 * trials, trials, dim, _SWEEP_BLOCK):
        offset[first:first + len(values), 0] = values
    for (first, y), (_, noise) in zip(
        rng.normal_rows(0, trials, size, _SWEEP_BLOCK),
        rng.normal_rows(n + 2 * trials, trials, size, _SWEEP_BLOCK),
    ):
        # y and noise have one shape, so each block holds the same trials of both.
        t = slice(first, first + len(y))
        y = y.reshape(-1, _SWEEP_DRAWS, dim)
        y *= yscale[t, None, None]
        noise = noise.reshape(y.shape)
        noise *= nscale[t, None, None]
        yhat = coupling[t, None, None] * y
        yhat += noise
        yhat += offset[t]
        out[:, t] = _paired_moments(y, yhat)


def _record_admissible(case: str, prefix: str, res: TheoremResult, reports: list, refusals: list) -> None:
    """Add an admissible theorem case's reports, each name prefixed, or its refusal as a violation."""
    if res.refused:
        refusals.append((case, res.refusal_reason, False))
    for rep in res.reports:
        rep.name = prefix + rep.name
        reports.append(rep)


def run_verification_suite(trials: int, seed: int) -> SuiteReport:
    """Lemma and theorem sweeps.

    trials scales the error-bound sweep per dimension (default 10^4 per
    dim); the head-propagation sweep runs 200 (W, distribution) pairs and
    the chained bound runs its analytic equality case plus 100 random
    admissible configurations and two refusal probes.  Memory grows with
    trials only through per-trial arrays (31 values per trial), never
    through the trials * 32 * dim normal draws, which are read in blocks.
    The per-trial arrays are allocated before the first draw, so a request
    too large for memory fails before any work.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    reports: list[BoundReport] = []
    refusals: list[tuple[str, str, bool]] = []

    # Error-bound sweep: four statistics per trial and dim, and one set of
    # per-trial draws sized for the largest dim and shared by all dims.
    try:
        stats = np.empty((len(_SWEEP_DIMS), 4, trials))
        draws = np.empty((3 + _SWEEP_DIMS[-1], trials))
    except ValueError as exc:  # NumPy refuses a size it cannot even index
        raise MemoryError(str(exc)) from exc
    for dim, out in zip(_SWEEP_DIMS, stats):
        _error_sweep(SeededRng(seed, stream=dim), dim, out, draws)
    # The margins below take the draws' place.
    del draws
    for dim, (mse, bias_sq, vy, vyh) in zip(_SWEEP_DIMS, stats):
        rhs, eps = _lemma2_bound(mse, bias_sq, vy, vyh)
        margins = mse - rhs
        # The trial nearest to violating holds exactly when every trial holds.
        worst = int(np.argmin(margins + eps))
        reports.append(_report(
            f"error_lower_bound_sweep_dim{dim}", mse[worst], rhs[worst], eps[worst],
            {"trials": float(trials), "violations": float(np.sum(margins < -eps))},
        ))

    # Head variance propagation: random heads against varied distributions.
    kinds = ("gaussian", "mixture", "attention_pushforward")
    for i in range(200):
        rng = SeededRng(seed + 1000 + i, stream=5)
        dim = (2, 3, 4, 6)[i % 4]
        kind = kinds[i % 3] if dim >= 4 and dim % 2 == 0 else "gaussian"
        spec = DistributionSpec(kind=kind, dim=dim, n=10_000, seed=seed + 1000 + i)
        f = draw_samples(spec)
        head = _random_head(rng, dim, smin=0.3, smax=2.5)
        reports.append(check_lemma1(head, f))
    # Equality case: a scaled identity head saturates the bound.
    eq_samples = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=10_000, seed=seed + 77))
    eq_head = LinearHead.from_matrix(2.0 * np.eye(3))
    eq = check_lemma1(eq_head, eq_samples)
    eq.name = "head_variance_propagation_equality"
    reports.append(eq)

    # Chained bound, analytic equality configuration: F doubles a centered
    # Gaussian, identity head, targets equal inputs.
    rng = SeededRng(seed, stream=42)
    x = rng.normal((1_000_000, 1))
    double = linear_map(np.array([[2.0]]))
    ident = LinearHead.from_matrix(np.array([[1.0]]))
    res = check_theorem1(x, double, ident, x, check_reduced_forms=True)
    _record_admissible("theorem_analytic_case", "analytic_", res, reports, refusals)

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
        _record_admissible(f"theorem_random_{i}", f"random{i}_", check_theorem1(x, fmap, head, y),
                           reports, refusals)

    # Refusal probes: these MUST refuse.
    x = draw_samples(DistributionSpec(kind="gaussian", dim=2, n=4_000, seed=seed + 11))
    for case, gain, y in (("probe_subunit_product", 0.3, x), ("probe_variance_mismatch", 2.0, 2.0 * x)):
        res = check_theorem1(x, linear_map(gain * np.eye(2)), LinearHead.from_matrix(np.eye(2)), y)
        refusals.append((case, res.refusal_reason or "NOT REFUSED", res.refused))

    return SuiteReport(seed=seed, trials=trials, reports=reports, refusals=refusals)


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
