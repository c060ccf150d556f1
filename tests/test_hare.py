import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harecast.attention import init_attention, mha_backward, mha_forward
from harecast.errors import ConfigError
from harecast.gradcheck import check_gradients
from harecast.hare import (
    GROUP_NAMES,
    EnergyBatch,
    block_stabilization,
    compute_energies,
    cross_sample_variance,
    difficulty_mask,
    hare_loss,
    partition_heads,
)
from harecast.tensor_core import SeededRng


# The weak-head threshold TrainConfig uses by default.
ALPHA = 0.75


def o_from_av(a, v):
    """Head responses O = A V."""
    return np.matmul(np.asarray(a, dtype=np.float64), np.asarray(v, dtype=np.float64))


def energy_batch(values):
    e = np.asarray(values, dtype=np.float64)
    return EnergyBatch(energies=e, head_means=e.mean(axis=0), mean_energy=float(e.mean()))


def o_with_energies(values):
    """Head responses (B, M, 1, 1) whose energies are `values` (up to one rounding)."""
    return np.sqrt(np.asarray(values, dtype=np.float64))[:, :, None, None]


def stabilize(o, mask=None):
    mask = np.ones(o.shape[0]) if mask is None else mask
    return block_stabilization(o, mask, alpha=ALPHA, grouping=True, detach_target=True)


class TestComputeEnergies:
    def test_identity_attention_reduces_to_value_energy(self):
        o = o_from_av(np.eye(2)[None, None], np.array([[1.0, 2.0], [3.0, 4.0]])[None, None])
        eb = compute_energies(o)
        assert eb.energies[0, 0] == 30.0

    def test_uniform_attention_two_tokens(self):
        # Uniform A averages rows: O = [[2,3],[2,3]], energy 4+9+4+9 = 26.
        o = o_from_av(
            np.full((1, 1, 2, 2), 0.5), np.array([[1.0, 2.0], [3.0, 4.0]])[None, None]
        )
        eb = compute_energies(o)
        assert eb.energies[0, 0] == pytest.approx(26.0, abs=1e-12)

    def test_zero_values_zero_energy(self):
        o = o_from_av(np.full((2, 3, 2, 2), 0.5), np.zeros((2, 3, 2, 2)))
        assert np.all(compute_energies(o).energies == 0.0)

    def test_batch_and_head_means(self):
        rng = SeededRng(5)
        o = o_from_av(
            np.full((4, 3, 2, 2), 0.5), rng.normal((4, 3, 2, 2))
        )
        eb = compute_energies(o)
        np.testing.assert_allclose(eb.head_means, eb.energies.mean(axis=0), atol=1e-12)
        assert eb.mean_energy == pytest.approx(eb.head_means.mean(), abs=1e-12)


class TestPartition:
    def test_worked_example(self):
        eb = energy_batch([[4.0, 1.0, 2.0, 1.0]] * 2)
        part = partition_heads(eb, 0.75)
        assert part.strong == (0,)
        assert part.weak == (1, 3)
        assert part.contextual == (2,)

    def test_all_equal_tie_breaks_low(self):
        eb = energy_batch([[3.0, 3.0, 3.0, 3.0]] * 2)
        part = partition_heads(eb, 0.75)
        assert part.strong == (0,)
        assert part.weak == ()
        assert part.contextual == (1, 2, 3)

    def test_degenerate_zero_energy(self):
        eb = energy_batch([[0.0, 0.0, 0.0]] * 2)
        part = partition_heads(eb, 0.75)
        assert part.strong == (0,)
        assert part.weak == ()
        assert part.contextual == (1, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0, 1e6), min_size=1, max_size=12),
        st.sampled_from([0.5, 0.75, 0.9]),
    )
    def test_invariants(self, energies, alpha):
        eb = energy_batch([energies, energies])
        part = partition_heads(eb, alpha)
        members = part.strong + part.contextual + part.weak
        assert sorted(members) == list(range(len(energies)))
        assert len(set(members)) == len(members)
        assert len(part.strong) == 1
        assert not set(part.strong) & set(part.weak)

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            partition_heads(energy_batch([[1.0, 2.0]] * 2), 1.5)


class TestGroupEnergies:
    def test_contextual_mean(self):
        # bar_e = 2.75, so the weak heads are those below 2.0625: heads 1 and 3.
        res = stabilize(o_with_energies([[5.0, 1.0, 3.0, 2.0]] * 2))
        assert res.groups["strong"] == (0,)
        idx = GROUP_NAMES.index("strong")
        assert res.group_energies[0, idx] == pytest.approx(5.0, rel=1e-15)

    def test_explicit_group_mean(self):
        res = stabilize(o_with_energies([[5.0, 1.0, 3.0, 2.0]] * 2))
        assert res.groups == {"strong": (0,), "contextual": (2,), "weak": (1, 3)}
        assert res.group_energies[0, 1] == pytest.approx(3.0, rel=1e-15)  # singleton contextual
        assert res.group_energies[0, 2] == pytest.approx(1.5, rel=1e-15)  # mean of heads 1 and 3

    def test_singleton_strong_is_exact(self):
        res = stabilize(o_with_energies([[4.0, 1.0], [7.0, 1.0]]))
        np.testing.assert_array_equal(res.group_energies[:, 0], res.energy.energies[:, 0])

    def test_empty_group_is_absent_not_zero(self):
        # All heads equal: no weak head, so the weak group has no column.
        res = stabilize(o_with_energies([[3.0, 3.0, 3.0]] * 2))
        assert res.groups["weak"] == ()
        assert res.group_energies.shape == (2, 2)


class TestHareLoss:
    def one_group(self, values):
        return np.asarray(values, dtype=np.float64)

    def test_hand_evaluated_example(self):
        ge = self.one_group([[2.0], [4.0]])
        loss, grad = hare_loss(ge, np.ones(2), detach_target=True)
        assert loss == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [[0.0], [0.5]])

    def test_identical_energies_zero_loss(self):
        ge = self.one_group([[3.0, 1.0], [3.0, 1.0]])
        loss, grad = hare_loss(ge, np.ones(2), detach_target=True)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mask_zero_kills_everything(self):
        ge = self.one_group([[2.0], [4.0]])
        loss, grad = hare_loss(ge, np.zeros(2), detach_target=True)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_mask_does_not_move_target(self):
        # mu stays the full-batch mean even when sample 1 is masked out.
        ge = self.one_group([[2.0], [4.0], [6.0]])
        loss, _ = hare_loss(ge, np.array([1.0, 0.0, 1.0]), detach_target=True)
        assert loss == pytest.approx(2.0 / 3.0)  # only sample 2 active: relu(6-4)/3

    def test_absent_group_contributes_nothing(self):
        # Head means (5, 4, 4) all reach 0.75 * 13/3, so the weak group is
        # empty.  Strong (4, 6) and contextual (3.5, 4.5) each put sample 1
        # above target: loss = (1 + 0.5) / 2, with no term for the weak group.
        o = o_with_energies([[4.0, 4.0, 3.0], [6.0, 4.0, 5.0]])
        res = stabilize(o)
        assert res.groups["weak"] == ()
        assert res.loss == pytest.approx(0.75, rel=1e-12)
        assert np.all(res.grad_o[0] == 0.0)
        np.testing.assert_allclose(res.grad_o[1, :, 0, 0], [1.0, 0.5, 0.5] * o[1, :, 0, 0], rtol=1e-12)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ConfigError):
            hare_loss(self.one_group([[2.0]]), np.ones(1), detach_target=True)

    def test_bad_mask_rejected(self):
        with pytest.raises(ConfigError):
            hare_loss(self.one_group([[2.0], [4.0]]), np.array([0.5, 1.0]), detach_target=True)

    def test_nonnegative_and_zero_iff_no_upside(self):
        rng = SeededRng(3)
        for _ in range(50):
            vals = np.abs(rng.normal((4, 3)))
            ge = self.one_group(vals)
            mask = (rng.uniform((4,)) < 0.7).astype(float)
            loss, _ = hare_loss(ge, mask, detach_target=True)
            assert loss >= 0.0
            upside = (vals - vals.mean(axis=0)) * mask[:, None]
            assert (loss == 0.0) == bool(np.all(upside <= 1e-15))

    def test_detached_gradient_is_indicator_over_batch(self):
        ge = self.one_group([[2.0], [4.0], [9.0]])
        _, grad = hare_loss(ge, np.ones(3), detach_target=True)
        np.testing.assert_allclose(grad, [[0.0], [0.0], [1 / 3]])

    def test_non_detached_gradient_includes_target_flow(self):
        ge = self.one_group([[2.0], [4.0], [9.0]])
        _, grad = hare_loss(ge, np.ones(3), detach_target=False)
        # One active sample: each coordinate picks up -1/B^2.
        np.testing.assert_allclose(grad, [[-1 / 9], [-1 / 9], [1 / 3 - 1 / 9]])

    def test_detached_gradient_vs_frozen_target_differences(self):
        rng = SeededRng(21)
        vals = np.abs(rng.normal((4, 2))) + 0.5
        ge = self.one_group(vals)
        loss0, grad = hare_loss(ge, np.ones(4), detach_target=True)
        mu = vals.mean(axis=0)
        h = 1e-6
        for i in range(4):
            for g in range(2):
                pert = vals.copy()
                pert[i, g] += h
                up = np.sum(np.maximum(pert - mu, 0.0)) / 4
                pert[i, g] -= 2 * h
                dn = np.sum(np.maximum(pert - mu, 0.0)) / 4
                fd = (up - dn) / (2 * h)
                assert grad[i, g] == pytest.approx(fd, abs=1e-9)

    def test_relabeling_invariance(self):
        # Permuting heads and carrying the partition along leaves the loss fixed.
        rng = SeededRng(10)
        e = np.abs(rng.normal((5, 6))) + 0.1
        perm = [3, 1, 5, 0, 2, 4]
        o = o_with_energies(e)
        assert stabilize(o).loss == pytest.approx(stabilize(o[:, perm]).loss, rel=1e-12)

    def test_descent_in_group_energy_space(self):
        # A small step along -grad never increases the loss (both target modes).
        rng = SeededRng(77)
        for trial in range(100):
            vals = np.abs(rng.normal((5, 3))) + 0.05
            mask = np.ones(5)
            detach = trial % 2 == 0
            ge = self.one_group(vals)
            loss, grad = hare_loss(ge, mask, detach_target=detach)
            stepped = self.one_group(vals - 1e-6 * grad)
            loss2, _ = hare_loss(stepped, mask, detach_target=detach)
            assert loss2 <= loss + 1e-15


class TestGradToO:
    def test_zero_grad_ge_zero_grad_o(self):
        # A zero mask zeroes the group-energy gradient and so dL/dO.
        o = o_from_av(np.full((2, 2, 3, 3), 1 / 3), SeededRng(0).normal((2, 2, 3, 2)))
        res = stabilize(o, mask=np.zeros(2))
        assert np.all(res.grad_o == 0.0)

    def test_inactive_sample_gets_zero(self):
        o = o_from_av(np.full((2, 2, 3, 3), 1 / 3), SeededRng(1).normal((2, 2, 3, 2)))
        res = stabilize(o)
        dev = res.group_energies - res.group_energies.mean(axis=0)
        for i in range(2):
            if np.all(dev[i] <= 0):
                assert np.all(res.grad_o[i] == 0.0)

    def test_scaling_by_group_size(self):
        # Head means (10, 5, 5, 1.5) against 0.75 * 5.375: strong (0,),
        # contextual (1, 2), weak (3,).  Sample 1 sits above every target, so
        # dL/de^g = 1/B = 1/2 there and dL/dO = (1/2) * (1/|H^g|) * 2 O.
        o = o_with_energies([[8.0, 4.0, 4.0, 1.0], [12.0, 6.0, 6.0, 2.0]])
        res = stabilize(o)
        assert res.groups == {"strong": (0,), "contextual": (1, 2), "weak": (3,)}
        assert np.all(res.grad_o[0] == 0.0)
        np.testing.assert_allclose(res.grad_o[1, 0], 1.0 * o[1, 0], rtol=1e-12)
        np.testing.assert_allclose(res.grad_o[1, 1], 0.5 * o[1, 1], rtol=1e-12)  # 1/|ctx| = 1/2
        np.testing.assert_allclose(res.grad_o[1, 3], 1.0 * o[1, 3], rtol=1e-12)


def robust_instance(seed, bsz=4, n=4, d=8, heads=4):
    """Instance whose partition and ReLU margins are safely away from kinks."""
    for offset in range(50):
        rng = SeededRng(seed + 1000 * offset)
        params = init_attention(d, rng, scale=0.6)
        x = rng.normal((bsz, n, d))
        _, cache = mha_forward(x, params, heads)
        res = block_stabilization(cache.o, np.ones(bsz), alpha=ALPHA, grouping=True, detach_target=True)
        eb = res.energy
        hm = np.sort(eb.head_means)
        thr = ALPHA * eb.mean_energy
        margins = np.abs(eb.head_means - thr)
        dev = np.abs(res.group_energies - res.group_energies.mean(axis=0))
        if hm[-1] - hm[-2] > 1e-2 and margins.min() > 1e-2 and dev.min() > 1e-3:
            return heads, params, x
    raise AssertionError("no robust instance found")


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_chain_matches_finite_differences(self, seed):
        heads, params, x = robust_instance(seed)
        mask = np.ones(x.shape[0])

        def loss():
            _, cache = mha_forward(x, params, heads)
            return block_stabilization(cache.o, mask, alpha=ALPHA, grouping=True, detach_target=False).loss

        _, cache = mha_forward(x, params, heads)
        res = block_stabilization(cache.o, mask, alpha=ALPHA, grouping=True, detach_target=False)
        grads, _ = mha_backward(params, heads, cache, np.zeros_like(x), res.grad_o)
        report = check_gradients(
            loss, params, grads, SeededRng(seed + 3),
            coords_per_param=8,
        )
        assert report.ok, report.failures
        assert report.max_rel_err < 1e-5

    def test_detached_chain_vs_frozen_target_loss(self):
        heads, params, x = robust_instance(123)
        _, cache0 = mha_forward(x, params, heads)
        res0 = block_stabilization(cache0.o, np.ones(x.shape[0]), alpha=ALPHA, grouping=True, detach_target=True)
        groups0 = [list(g) for g in res0.groups.values() if g]
        mu0 = res0.group_energies.mean(axis=0)

        def frozen_loss():
            _, cache = mha_forward(x, params, heads)
            e = compute_energies(cache.o).energies
            ge = np.stack([e[:, g].mean(axis=1) for g in groups0], axis=1)
            return float(np.maximum(ge - mu0, 0.0).sum() / x.shape[0])

        grads, _ = mha_backward(params, heads, cache0, np.zeros_like(x), res0.grad_o)
        report = check_gradients(
            frozen_loss, params, grads, SeededRng(5),
            coords_per_param=8,
        )
        assert report.ok, report.failures


class TestCrossSampleVariance:
    def test_constant_energy_zero_variance(self):
        eb = energy_batch([[2.0, 3.0]] * 4)
        np.testing.assert_array_equal(cross_sample_variance(eb), [0.0, 0.0])

    def test_two_point_unbiased(self):
        eb = energy_batch([[1.0], [3.0]])
        assert cross_sample_variance(eb)[0] == pytest.approx(2.0)

    def test_quadratic_scaling(self):
        e = np.abs(SeededRng(2).normal((6, 3)))
        base = cross_sample_variance(energy_batch(e))
        scaled = cross_sample_variance(energy_batch(3.0 * e))
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigError):
            cross_sample_variance(energy_batch([[1.0, 2.0]]))


class TestMaskStrategies:
    def test_top_fraction_selects_hardest(self):
        mask = difficulty_mask([0.1, 0.9, 0.5, 0.7], 0.5)
        np.testing.assert_array_equal(mask, [0.0, 1.0, 0.0, 1.0])

    def test_ties_break_to_lower_index(self):
        mask = difficulty_mask([0.5, 0.5, 0.5, 0.5], 0.5)
        np.testing.assert_array_equal(mask, [1.0, 1.0, 0.0, 0.0])

    def test_at_least_one_selected(self):
        assert difficulty_mask([0.3, 0.2], 0.01).sum() == 1.0


class TestNoGroupingMode:
    def test_single_shared_target(self):
        o = o_from_av(np.full((3, 2, 2, 2), 0.5), SeededRng(6).normal((3, 2, 2, 2)))
        res = block_stabilization(o, np.ones(3), alpha=ALPHA, grouping=False, detach_target=True)
        assert res.groups == {"shared": (0, 1)}
        assert res.group_energies.shape == (3, 1)
        per_sample = compute_energies(o).energies.mean(axis=1)
        mu = per_sample.mean()
        want = np.maximum(per_sample - mu, 0.0).sum() / 3
        assert res.loss == pytest.approx(want, rel=1e-12)
