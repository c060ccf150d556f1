import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from harecast import bounds, cli
from harecast.attention import LinearHead
from harecast.bounds import (
    DistributionSpec,
    check_lemma1,
    check_lemma2,
    check_theorem1,
    draw_samples,
    linear_map,
    matched_variance_targets,
    render_report,
    run_verification_suite,
    total_variance,
)
from harecast.errors import ConfigError, DegenerateInputError, ShapeError
from harecast.tensor_core import SeededRng

from oracles import (
    box_muller_normal,
    moment_total_variance,
    reference_check_lemma1,
    reference_check_theorem1,
    reference_error_sweep,
    sweep_statistics,
    two_pass_total_variance,
)

BITWISE_DIMS = (1, 2, 3, 4, 5, 6, 7, 16)


def assert_bitwise(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def assert_same_reports(got, want):
    # repr round-trips every float exactly, so equal reprs mean equal bits
    assert repr([dataclasses.asdict(r) for r in got]) == repr([dataclasses.asdict(r) for r in want])


class TestTotalVariance:
    def test_identical_samples(self):
        assert total_variance(np.ones((5, 3))) == 0.0

    def test_scalar_pair(self):
        assert total_variance(np.array([[-1.0], [1.0]])) == 1.0

    def test_vector_pair(self):
        # mean (1, 0); each deviation has squared norm 1.
        assert total_variance(np.array([[0.0, 0.0], [2.0, 0.0]])) == 1.0

    def test_needs_two(self):
        with pytest.raises(ConfigError):
            total_variance(np.ones((1, 3)))

    def test_matches_two_pass_oracle(self):
        x = SeededRng(8).normal((500, 4)) * 2.0 + 1.0
        assert total_variance(x) == pytest.approx(two_pass_total_variance(list(x)), rel=1e-12)

    def test_attention_cloud_matches_two_pass_oracle(self):
        x = draw_samples(DistributionSpec(kind="attention_pushforward", dim=6, n=5_000, seed=12))
        assert total_variance(x) == pytest.approx(two_pass_total_variance(list(x)), rel=1e-12)

    @pytest.mark.parametrize("dim", (2, 5))
    def test_attention_cloud_needs_even_dim_of_four(self, dim):
        with pytest.raises(ConfigError, match="even dim >= 4"):
            DistributionSpec(kind="attention_pushforward", dim=dim, n=10, seed=0)


class TestBitwiseReferences:
    """The rewritten moment paths against their one-pass references, bit for bit."""

    @pytest.mark.parametrize("dim", BITWISE_DIMS + (8,))
    def test_total_variance(self, dim):
        rng = SeededRng(31, stream=dim)
        x = rng.normal((3_001, dim)) * (1.0 + 100.0 * rng.uniform((1, dim))) + 5.0
        assert_bitwise(total_variance(x), moment_total_variance(x))

    def test_total_variance_fortran_order(self):
        # NumPy sums the columns of a Fortran-ordered array pairwise, not row by row
        rng = SeededRng(31, stream=99)
        x = np.asfortranarray(rng.normal((3_001, 3)) * (1.0 + 100.0 * rng.uniform((1, 3))) + 5.0)
        assert_bitwise(bounds._row_mean(bounds._rows(x)), x.mean(axis=0))
        assert_bitwise(total_variance(x), moment_total_variance(x))

    @pytest.mark.parametrize(
        "shape, order",
        (((10**6, 1), "C"), ((131_073, 2), "C"), ((70_001, 6), "C"), ((200_003, 3), "F")),
    )
    def test_total_variance_beyond_one_block(self, shape, order):
        # row blocks cut from NumPy's pairwise tree; C rows of 2+ columns carry a running sum
        rng = SeededRng(31, stream=shape[1])
        x = rng.normal(shape) * (1.0 + 100.0 * rng.uniform((1, shape[1]))) + 5.0
        x = np.asarray(x, order=order)
        assert shape[0] > bounds._BLOCK
        means = bounds._block_moments(shape[0], lambda lo, hi: (x[lo:hi],))[0]
        assert_bitwise(means[0], x.mean(axis=0))
        assert_bitwise(total_variance(x), moment_total_variance(x))

    def test_total_variance_flattens_trailing_axes(self):
        x = SeededRng(32).normal((500, 2, 3)) * 3.0 - 1.0
        assert_bitwise(total_variance(x), moment_total_variance(x))

    @pytest.mark.parametrize("dim", BITWISE_DIMS)
    def test_check_lemma1(self, dim):
        rng = SeededRng(33, stream=dim)
        f = draw_samples(DistributionSpec(kind="mixture", dim=dim, n=4_003, seed=34 + dim))
        head = LinearHead(w=rng.normal((dim, dim)), b=rng.normal((dim,)))
        assert_same_reports([check_lemma1(head, f)], [reference_check_lemma1(head, f)])

    @pytest.mark.parametrize("dim", BITWISE_DIMS)
    def test_check_theorem1(self, dim):
        rng = SeededRng(35, stream=dim)
        x = draw_samples(DistributionSpec(kind="gaussian", dim=dim, n=3_001, seed=36 + dim))
        fmap = linear_map(np.diag(1.3 + rng.uniform((dim,))))
        head = LinearHead(w=np.eye(dim), b=rng.normal((dim,)))
        y = matched_variance_targets(x, rng.spawn(1))
        got = check_theorem1(x, fmap, head, y, check_reduced_forms=True)
        want = reference_check_theorem1(x, fmap, head, y, check_reduced_forms=True)
        assert not got.refused and not want.refused
        assert_same_reports(got.reports, want.reports)

    @pytest.mark.parametrize("n, dim", ((200_003, 1), (70_001, 3), (70_001, 8)))
    def test_check_theorem1_beyond_one_block(self, n, dim):
        # 200,003 rows split at 100,000, not 100,001: NumPy keeps halves at multiples of 8.
        # Far from 0, the mean rows, and so bias_sq, show a sum taken on another tree.
        rng = SeededRng(35, stream=dim)
        x = draw_samples(DistributionSpec(kind="gaussian", dim=dim, n=n, seed=36 + dim)) + 50.0
        fmap = linear_map(np.diag(1.3 + rng.uniform((dim,))) + 0.1 * rng.normal((dim, dim)))
        head = LinearHead(w=np.eye(dim) + 0.1 * rng.normal((dim, dim)), b=rng.normal((dim,)))
        y = matched_variance_targets(x, rng.spawn(1))
        got = check_theorem1(x, fmap, head, y, check_reduced_forms=True)
        want = reference_check_theorem1(x, fmap, head, y, check_reduced_forms=True)
        assert not got.refused and not want.refused
        assert_same_reports(got.reports, want.reports)

    def test_check_theorem1_refusal_text(self):
        x = SeededRng(37).normal((2_000, 3))
        for fmap, y in ((linear_map(0.5 * np.eye(3)), x), (linear_map(2.0 * np.eye(3)), 1.5 * x)):
            got = check_theorem1(x, fmap, LinearHead.from_matrix(np.eye(3)), y)
            want = reference_check_theorem1(x, fmap, LinearHead.from_matrix(np.eye(3)), y)
            assert got.refused and got.refusal_reason == want.refusal_reason

    @pytest.mark.parametrize("dim", (1, 4, 16))
    def test_sweep_statistics(self, dim):
        # (trials, 32, dim) draws reduce to one value per trial
        trials = 2 * bounds._SWEEP_BLOCK + 37
        rng = SeededRng(38, stream=dim)
        y = rng.normal((trials, 32, dim)) * (0.5 + rng.uniform((trials, 1, 1)))
        coupling = rng.uniform((trials, 1, 1)) * 2.0 - 1.0
        noise = rng.normal((trials, 32, dim)) * rng.uniform((trials, 1, 1))
        offset = rng.normal((trials, 1, dim))
        yhat = coupling * y + noise + offset
        fast = bounds._paired_moments(y, yhat)
        for got, want in zip(fast, sweep_statistics(y, yhat), strict=True):
            assert got.shape == (trials,)
            assert_bitwise(got, want)

    @pytest.mark.parametrize("dim", BITWISE_DIMS)
    def test_paired_moments_of_one_sample_set(self, dim):
        # (n, dim) samples reduce to scalars, as the sweep oracle reduces one trial
        rng = SeededRng(40, stream=dim)
        y = rng.normal((1_001, dim)) * 3.0 + 1.0
        yhat = 0.5 * y + rng.normal((1_001, dim)) + rng.normal((1, dim))
        fast = bounds._paired_moments(y, yhat)
        for got, want in zip(fast, sweep_statistics(y[None], yhat[None]), strict=True):
            assert got.shape == ()
            assert_bitwise(got, want[0])

    @pytest.mark.parametrize("dim", (1, 4, 16))
    @pytest.mark.parametrize("trials", (1, 2, 3, 255, 256, 257, 2 * bounds._SWEEP_BLOCK + 37))
    def test_error_sweep(self, trials, dim):
        # odd counts split the middle trial between the cos and sin halves of each draw
        got, want = np.empty((4, trials)), np.empty((4, trials))
        draws = np.empty((3 + bounds._SWEEP_DIMS[-1], trials))
        bounds._error_sweep(SeededRng(39, stream=dim), dim, got, draws)
        reference_error_sweep(SeededRng(39, stream=dim), dim, want)
        assert_bitwise(got, want)


class TestEstimateCf:
    """The empirical c_F = sqrt(Var(F(X)) / Var(X)) that check_theorem1 reports."""

    def test_doubling_map(self):
        x = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=100_000, seed=10))
        res = check_theorem1(x, linear_map(2.0 * np.eye(3)), LinearHead.from_matrix(np.eye(3)), x)
        assert not res.refused
        assert res.reports[0].constants["c_F"] == pytest.approx(2.0, abs=0.01)

    def test_degenerate_input(self):
        x = np.ones((10, 2))
        with pytest.raises(DegenerateInputError):
            check_theorem1(x, lambda z: z, LinearHead.from_matrix(np.eye(2)), x)


class TestLemma1:
    def test_scaled_identity_saturates(self):
        f = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=20_000, seed=1))
        rep = check_lemma1(LinearHead.from_matrix(2.0 * np.eye(3)), f)
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_anisotropic_positive_margin(self):
        rng = SeededRng(2)
        f = rng.normal((20_000, 2)) * np.array([3.0, 0.2])
        rep = check_lemma1(LinearHead.from_matrix(np.diag([3.0, 0.5])), f)
        assert rep.holds
        assert rep.margin > 0

    def test_shift_invariance(self):
        f = draw_samples(DistributionSpec(kind="mixture", dim=2, n=5_000, seed=3))
        w = SeededRng(4).normal((2, 2))
        a = check_lemma1(LinearHead(w=w, b=np.zeros(2)), f)
        b = check_lemma1(LinearHead(w=w, b=np.array([100.0, -40.0])), f)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-9)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-9)

    def test_many_random_pairs_hold(self):
        kinds = ("gaussian", "mixture", "attention_pushforward")
        for i in range(30):
            dim = (2, 4, 6)[i % 3]
            kind = kinds[i % 3] if dim >= 4 else "gaussian"
            f = draw_samples(DistributionSpec(kind=kind, dim=dim, n=10_000, seed=100 + i))
            w = SeededRng(200 + i).normal((dim, dim))
            rep = check_lemma1(LinearHead(w=w, b=SeededRng(300 + i).normal((dim,))), f)
            assert rep.holds, rep

    def test_head_width_mismatch(self):
        f = SeededRng(8).normal((100, 3))
        with pytest.raises(ShapeError, match=r"\(2, 2\) does not fit samples of shape \(100, 3\)"):
            check_lemma1(LinearHead.from_matrix(np.eye(2)), f)


class TestLemma2:
    def test_zero_predictor_equality(self):
        y = SeededRng(5).normal((200_000, 1))
        y = (y - y.mean()) / y.std()  # exact mean 0, var 1 empirically
        rep = check_lemma2(y, np.zeros_like(y))
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)

    def test_perfect_predictor(self):
        y = SeededRng(6).normal((1000, 3))
        rep = check_lemma2(y, y.copy())
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", (0.01, 1.0, 300.0))
    def test_slack_scales_with_mse_only(self, scale):
        # the same slack as the bound suite's sweep, whatever the size of rhs
        rng = SeededRng(13)
        y = rng.normal((500, 3)) * scale
        yhat = 2.0 * y + rng.normal((500, 3)) * scale + 5.0 * scale
        rep = check_lemma2(y, yhat)
        assert rep.rhs > 0.0
        assert rep.eps_num == bounds.EXACT_EPS * max(1.0, abs(rep.lhs))

    def test_random_joint_draws_never_violate(self):
        rng = SeededRng(7)
        for dim in (1, 4, 16):
            for _ in range(200):
                n = 16
                y = rng.normal((n, dim)) * (0.2 + 2 * rng.uniform((1, 1)))
                yhat = rng.normal((n, dim)) + 0.5 * y + rng.normal((1, dim))
                rep = check_lemma2(y, yhat)
                assert rep.holds, rep


class TestTheorem1:
    def analytic_setup(self, n=1_000_000, b=0.0):
        x = SeededRng(42, stream=42).normal((n, 1))
        head = LinearHead(w=np.array([[1.0]]), b=np.array([b]))
        return x, linear_map(np.array([[2.0]])), head

    def test_analytic_equality_case(self):
        x, fmap, head = self.analytic_setup()
        res = check_theorem1(x, fmap, head, x, check_reduced_forms=True)
        assert not res.refused
        by_name = {r.name: r for r in res.reports}
        # Doubling scales every moment exactly, so the empirical c_F is exact.
        assert by_name["mse_vs_target_variance"].constants["c_F"] == 2.0
        full = by_name["mse_vs_target_variance"]
        assert full.holds
        assert full.lhs == pytest.approx(full.rhs, rel=1e-9)  # exact on moments
        reduced = by_name["reduced_input_variance"]
        assert reduced.lhs == pytest.approx(reduced.rhs, rel=0.005)

    def test_bias_shift(self):
        b = 0.7
        x, fmap, head = self.analytic_setup(n=200_000, b=b)
        res = check_theorem1(x, fmap, head, x)
        assert not res.refused
        rep = res.reports[0]
        assert rep.constants["bias_sq"] == pytest.approx(b * b, rel=0.02)
        assert all(r.holds for r in res.reports)

    def test_degenerate_input_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(DegenerateInputError):
            check_theorem1(x, linear_map(2.0 * np.eye(2)), LinearHead.from_matrix(np.eye(2)), x)

    def test_subunit_product_refused(self):
        x = SeededRng(9).normal((5_000, 2))
        res = check_theorem1(x, linear_map(0.4 * np.eye(2)), LinearHead.from_matrix(np.eye(2)), x)
        assert res.refused
        assert "c_G*c_F" in res.refusal_reason
        assert res.reports == []

    def test_variance_mismatch_refused(self):
        x = SeededRng(10).normal((5_000, 2))
        res = check_theorem1(x, linear_map(2.0 * np.eye(2)), LinearHead.from_matrix(np.eye(2)), 2.0 * x)
        assert res.refused
        assert "Var(Y)" in res.refusal_reason

    @pytest.mark.parametrize("y_shape", ((999, 2), (1_001, 2), (1_000, 1)))
    def test_paired_shape_disagreement_refused(self, y_shape):
        x = SeededRng(14).normal((1_000, 2))
        y = SeededRng(15).normal(y_shape)
        with pytest.raises(ConfigError, match=re.escape(f"paired samples disagree: {y_shape} vs (1000, 2)")):
            check_theorem1(x, linear_map(2.0 * np.eye(2)), LinearHead.from_matrix(np.eye(2)), y)

    @pytest.mark.parametrize(
        "fmap", (lambda z: 2.0 * z[1:], lambda z: np.vstack((z, z))), ids=("drops_a_row", "doubles_rows")
    )
    def test_response_map_must_keep_rows(self, fmap):
        x = SeededRng(16).normal((1_000, 2))
        with pytest.raises(ConfigError, match="each row alone"):
            check_theorem1(x, fmap, LinearHead.from_matrix(np.eye(2)), x)

    def test_analytic_case_traced_peak(self):
        # held whole, f, yhat and a deviation took 24 MB beside the 8 MB input
        x, fmap, head = self.analytic_setup()
        tracemalloc.start()
        try:
            check_theorem1(x, fmap, head, x, check_reduced_forms=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_matched_targets_need_rows(self):
        with pytest.raises(ShapeError, match=r"\(n, d\) samples, got shape \(100,\)"):
            matched_variance_targets(np.arange(100.0), SeededRng(12))

    def test_matched_targets_have_exact_variance(self):
        x = SeededRng(11).normal((4_000, 3)) * np.array([1.0, 2.0, 0.3])
        y = matched_variance_targets(x, SeededRng(12))
        assert total_variance(y) == pytest.approx(total_variance(x), rel=1e-12)

    def test_random_admissible_configs_hold(self):
        for i in range(20):
            rng = SeededRng(500 + i)
            dim = (1, 2, 3)[i % 3]
            x = draw_samples(DistributionSpec(kind="gaussian", dim=dim, n=5_000, seed=600 + i))
            gain = np.diag(1.3 + rng.uniform((dim,)))
            res = check_theorem1(
                x, linear_map(gain), LinearHead(w=np.eye(dim), b=rng.normal((dim,))),
                matched_variance_targets(x, rng.spawn(1)),
            )
            assert not res.refused
            assert all(r.holds for r in res.reports)


class TestSuite:
    def test_deterministic_and_clean(self):
        a = run_verification_suite(trials=300, seed=7)
        b = run_verification_suite(trials=300, seed=7)
        assert a.ok
        assert render_report(a) == render_report(b)

    def test_report_equals_reference_suite(self, monkeypatch):
        fast = [render_report(run_verification_suite(trials=300, seed=s)) for s in (3, 8)]
        monkeypatch.setattr(SeededRng, "normal", lambda rng, shape: box_muller_normal(rng.uniform, shape))
        monkeypatch.setattr(bounds, "_error_sweep", reference_error_sweep)
        monkeypatch.setattr(bounds, "check_lemma1", reference_check_lemma1)
        monkeypatch.setattr(bounds, "check_theorem1", reference_check_theorem1)
        reference = [render_report(run_verification_suite(trials=300, seed=s)) for s in (3, 8)]
        assert fast[0] != fast[1]
        assert fast == reference

    def test_traced_peak_does_not_hold_the_sweep_draws(self):
        # At 10^4 trials the sweep's draws, held whole, took ~100 MB
        tracemalloc.start()
        try:
            run_verification_suite(trials=10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45e6

    def test_traced_peak_is_not_the_analytic_case(self):
        # 33.7 MB when the analytic case held its 10^6-row arrays whole
        tracemalloc.start()
        try:
            run_verification_suite(trials=300, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_fault_injection_trips(self, broken_lemma1):
        bad = run_verification_suite(trials=50, seed=7)
        assert not bad.ok

    def test_refused_admissible_case_is_a_violation(self, monkeypatch, tmp_path):
        real = bounds.check_theorem1

        def refuse_analytic(x, fmap, head, y, check_reduced_forms=False):
            if check_reduced_forms:  # only the analytic equality case asks for them
                return bounds.TheoremResult(refused=True, refusal_reason="injected refusal")
            return real(x, fmap, head, y, check_reduced_forms)

        monkeypatch.setattr(bounds, "check_theorem1", refuse_analytic)
        suite = run_verification_suite(trials=50, seed=7)
        assert not suite.ok
        assert "[refusal UNEXPECTED] theorem_analytic_case: injected refusal" in render_report(suite).splitlines()
        assert cli.main(["verify-theory", "--trials", "50", "--report", str(tmp_path / "r.txt")]) == 1

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            run_verification_suite(trials=0, seed=1)
