import numpy as np
import pytest

from harecast.attention import (
    PARAM_NAMES,
    init_attention,
    mha_backward,
    mha_forward,
    sigma_min,
)
from harecast.errors import ConfigError, ShapeError, StateError
from harecast.gradcheck import check_gradients
from harecast.tensor_core import SeededRng

from oracles import jacobi_min_singular, naive_mha, reference_mha_forward


def small_setup(seed, bsz=2, n=4, d=8, heads=2):
    rng = SeededRng(seed)
    params = init_attention(d, rng)
    x = rng.normal((bsz, n, d))
    return heads, params, x


class TestForward:
    def test_single_token_attention_is_identity(self):
        heads, params, _ = small_setup(0)
        x = SeededRng(3).normal((2, 1, 8))
        _, cache = mha_forward(x, params, heads)
        np.testing.assert_allclose(cache.a, np.ones((2, 2, 1, 1)))
        np.testing.assert_allclose(cache.o, cache.v)

    def test_zero_queries_keys_give_uniform_rows(self):
        heads, params, x = small_setup(1, n=5)
        params["wq"][:] = 0.0
        params["wk"][:] = 0.0
        params["bq"][:] = 0.0
        params["bk"][:] = 0.0
        _, cache = mha_forward(x, params, heads)
        np.testing.assert_allclose(cache.a, np.full((2, 2, 5, 5), 0.2), atol=1e-15)

    def test_matches_naive_loop_oracle(self):
        heads, params, x = small_setup(7, bsz=2, n=4, d=8, heads=2)
        y, _ = mha_forward(x, params, heads)
        want = naive_mha(
            x, params["wq"], params["wk"], params["wv"], params["wo"],
            params["bq"], params["bk"], params["bv"], params["bo"], heads=2,
        )
        np.testing.assert_allclose(y, want, atol=1e-10)

    def test_activation_invariants(self):
        for seed in range(5):
            heads, params, x = small_setup(seed, bsz=2, n=5)
            _, cache = mha_forward(x, params, heads)
            np.testing.assert_allclose(cache.a.sum(-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(
                cache.o, np.matmul(cache.a, cache.v), atol=1e-12
            )

    def test_shape_errors(self):
        heads, params, _ = small_setup(0)
        with pytest.raises(ShapeError):
            mha_forward(np.zeros((2, 3, 5)), params, heads)
        bad = {**params, "bv": np.zeros(4)}
        with pytest.raises(ShapeError, match="parameter bv"):
            mha_forward(np.zeros((2, 3, 8)), bad, heads)

    def test_indivisible_heads_rejected(self):
        _, params, x = small_setup(0, d=8)
        with pytest.raises(ConfigError):
            mha_forward(x, params, heads=3)


class TestBitwiseReference:
    """mha_forward's flattened projections against 3-D (B, N, d) @ (d, d) ones, bit for bit."""

    @pytest.mark.parametrize("bsz,n,d,heads", [
        (2_000, 2, 2, 1), (2_000, 3, 2, 1),       # the bound suite's pushforward blocks
        (8, 80, 32, 4), (1, 64, 16, 2),           # model-sized blocks
        (2, 5, 8, 2), (2, 8, 8, 2), (2, 16, 8, 2),  # gradcheck's blocks
        (3, 1, 8, 2),                             # one token per sample
    ])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_reference(self, bsz, n, d, heads, transposed):
        rng = SeededRng(41, stream=bsz * n + d)
        params = init_attention(d, rng, scale=1.0)
        for name in PARAM_NAMES[4:]:
            params[name] = rng.normal((d,))
        # transposed: (B, d, N) storage read as (B, N, d), like the denoiser's bottleneck tokens
        x = rng.normal((bsz, d, n)).transpose(0, 2, 1) if transposed else rng.normal((bsz, n, d))
        y, cache = mha_forward(x, params, heads)
        want = reference_mha_forward(x, params, heads)
        for got, ref in zip((y, cache.q, cache.k, cache.a, cache.v, cache.o), want, strict=True):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestInit:
    def test_layout_and_draw_order(self):
        params = init_attention(4, SeededRng(5), scale=2.0)
        assert tuple(params) == PARAM_NAMES
        rng = SeededRng(5)
        for name in ("wq", "wk", "wv", "wo"):
            np.testing.assert_array_equal(params[name], rng.normal((4, 4)) * 2.0)
        for name in ("bq", "bk", "bv", "bo"):
            np.testing.assert_array_equal(params[name], np.zeros(4))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        heads, params, x = small_setup(2)
        _, cache = mha_forward(x, params, heads)
        grads, gx = mha_backward(params, heads, cache, np.zeros_like(x), np.zeros_like(cache.o))
        for _, g in grads.items():
            assert np.all(g == 0.0)
        assert np.all(gx == 0.0)

    def test_missing_cache_is_state_error(self):
        heads, params, x = small_setup(2)
        with pytest.raises(StateError):
            mha_backward(params, heads, None, np.zeros_like(x))

    def test_grad_y_none_is_shape_error(self):
        # grad_y is an array; an O-path-only loss passes zeros.
        heads, params, x = small_setup(2)
        _, cache = mha_forward(x, params, heads)
        with pytest.raises(ShapeError, match="grad_y shape"):
            mha_backward(params, heads, cache, None, np.zeros_like(cache.o))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        heads, params, x = small_setup(seed, bsz=2, n=5, d=8, heads=2)
        wy = SeededRng(seed + 500).normal(x.shape)
        wo = SeededRng(seed + 900).normal((2, 2, 5, 4))

        def loss():
            y, cache = mha_forward(x, params, heads)
            return float(np.sum(y * wy) + np.sum(cache.o * wo))

        _, cache = mha_forward(x, params, heads)
        grads, _ = mha_backward(params, heads, cache, wy, wo)
        report = check_gradients(
            loss, params, grads, SeededRng(seed + 1)
        )
        assert report.ok, report.failures
        assert report.max_rel_err < 1e-5

    def test_energy_gradient_through_o_only(self):
        # grad_y = 0, grad_O_extra = 2 O is d(sum of head energies)/dO.
        heads, params, x = small_setup(11, bsz=2, n=4)

        def loss():
            _, cache = mha_forward(x, params, heads)
            return float(np.sum(cache.o ** 2))

        _, cache = mha_forward(x, params, heads)
        grads, _ = mha_backward(params, heads, cache, np.zeros_like(x), 2.0 * cache.o)
        report = check_gradients(
            loss, params, grads, SeededRng(12)
        )
        assert report.ok, report.failures

    def test_input_gradient_matches_finite_differences(self):
        heads, params, x = small_setup(4, bsz=1, n=3)
        wy = SeededRng(44).normal(x.shape)

        def loss():
            y, _ = mha_forward(x, params, heads)
            return float(np.sum(y * wy))

        _, cache = mha_forward(x, params, heads)
        _, gx = mha_backward(params, heads, cache, wy)
        report = check_gradients(loss, {"x": x}, {"x": gx}, SeededRng(45), coords_per_param=16)
        assert report.ok, report.failures


class TestHeadEquivariance:
    def test_permuting_heads_permutes_energies(self):
        heads, params, x = small_setup(8, heads=4, d=8)
        dh = x.shape[2] // heads
        perm = [2, 0, 3, 1]

        def permute_cols(w):
            blocks = [w[:, m * dh:(m + 1) * dh] for m in perm]
            return np.concatenate(blocks, axis=1)

        permuted = dict(
            wq=permute_cols(params["wq"]),
            wk=permute_cols(params["wk"]),
            wv=permute_cols(params["wv"]),
            wo=np.concatenate([params["wo"][m * dh:(m + 1) * dh] for m in perm], axis=0),
            bq=np.concatenate([params["bq"][m * dh:(m + 1) * dh] for m in perm]),
            bk=np.concatenate([params["bk"][m * dh:(m + 1) * dh] for m in perm]),
            bv=np.concatenate([params["bv"][m * dh:(m + 1) * dh] for m in perm]),
            bo=params["bo"],
        )
        y0, c0 = mha_forward(x, params, heads)
        y1, c1 = mha_forward(x, permuted, heads)
        np.testing.assert_allclose(y0, y1, atol=1e-12)
        e0 = np.sum(c0.o ** 2, axis=(2, 3))
        e1 = np.sum(c1.o ** 2, axis=(2, 3))
        np.testing.assert_allclose(e1, e0[:, perm], atol=1e-12)


class TestSigmaMin:
    def test_scaled_identity(self):
        assert sigma_min(2.0 * np.eye(3)) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        assert sigma_min(np.diag([3.0, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficient_returns_zero(self):
        assert sigma_min([[1.0, 2.0], [2.0, 4.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_jacobi_oracle(self):
        for seed in range(5):
            w = SeededRng(seed).normal((5, 5))
            assert sigma_min(w) == pytest.approx(jacobi_min_singular(w), abs=1e-7)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            sigma_min(np.zeros((0, 3)))
