import numpy as np
import pytest

from harecast.attention import LinearHead
from harecast.bounds import (
    DistributionSpec,
    attention_pushforward_map,
    check_lemma1,
    check_lemma2,
    check_theorem1,
    draw_samples,
    estimate_cf,
    linear_map,
    matched_variance_targets,
    render_report,
    run_verification_suite,
    total_variance,
)
from harecast.errors import ConfigError, DegenerateInputError
from harecast.tensor_core import SeededRng

from oracles import two_pass_total_variance


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


class TestEstimateCf:
    def test_doubling_map(self):
        x = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=100_000, seed=10))
        assert estimate_cf(linear_map(2.0 * np.eye(3)), x) == pytest.approx(2.0, abs=0.01)

    def test_identity_map(self):
        x = draw_samples(DistributionSpec(kind="gaussian", dim=3, n=100_000, seed=11))
        assert estimate_cf(lambda z: z, x) == pytest.approx(1.0, abs=0.01)

    def test_attention_block_matches_two_pass_oracle(self):
        fmap = attention_pushforward_map(dim=6, seed=3)
        x = draw_samples(DistributionSpec(kind="gaussian", dim=6, n=5_000, seed=12))
        fx = fmap(x)
        want = np.sqrt(two_pass_total_variance(list(fx)) / two_pass_total_variance(list(x)))
        assert estimate_cf(fmap, x) == pytest.approx(want, abs=1e-6)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            estimate_cf(lambda z: z, np.ones((10, 2)))


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

    def test_fault_injection_trips(self):
        bad = run_verification_suite(trials=50, seed=7, rhs_scale=1.1)
        assert not bad.ok

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            run_verification_suite(trials=0, seed=1)
