import math

import mpmath
import numpy as np
import pytest

from harecast import metrics
from harecast.errors import ConfigError, ShapeError
from harecast.metrics import (
    METEONET_THRESHOLDS,
    SEVIR_THRESHOLDS,
    ContingencyCounts,
    contingency,
    csi,
    csi_m,
    evaluate_pair,
    hss,
    paired_t_test,
    pooled_csi,
    ssim,
)
from harecast.synthdata import BlobSpec, EventSpec, generate_event
from harecast.tensor_core import SeededRng

from oracles import naive_contingency, naive_max_pool, ssim_direct


def frame_stack(x):
    return x[None] if x.ndim == 2 else x


def summed(tables):
    return tuple(sum(column) for column in zip(*tables))


def oracle_csi(table):
    hits, false_alarms, misses, _ = table
    events = hits + false_alarms + misses
    return hits / events if events else 0.0


def oracle_csi_m(pred, truth, thresholds, per_frame=False):
    pred, truth = frame_stack(pred), frame_stack(truth)
    vals = []
    for thr in thresholds:
        tables = naive_contingency(pred, truth, thr)
        if not per_frame:
            tables = [summed(tables)]
        per = [oracle_csi(table) for table in tables if sum(table[:3]) > 0]
        if per:
            vals.append(float(np.mean(per)))
    return float(np.mean(vals)) if vals else math.nan


def oracle_bundle(pred, truth, thresholds, pools=(4, 16)):
    """evaluate_pair's bundle without ssim, from the loop oracles."""
    pred, truth = frame_stack(pred), frame_stack(truth)
    per_threshold, hss_vals = {}, []
    pooled = {pool: [] for pool in pools}
    for thr in thresholds:
        a, b, c, d = summed(naive_contingency(pred, truth, thr))
        if a + b + c == 0:
            continue
        per_threshold[thr] = a / (a + b + c)
        denom = (a + c) * (c + d) + (a + b) * (b + d)
        hss_vals.append(2.0 * (a * d - b * c) / denom if denom else 0.0)
        for pool in pools:
            tables = naive_contingency(naive_max_pool(pred, pool), naive_max_pool(truth, pool), thr)
            pooled[pool].append(oracle_csi(summed(tables)))
    out = {
        "csi_per_threshold": per_threshold,
        "csi_m": float(np.mean(list(per_threshold.values()))) if per_threshold else math.nan,
        "hss": float(np.mean(hss_vals)) if hss_vals else math.nan,
    }
    for pool in pools:
        out[f"pooled_csi_{pool}"] = float(np.mean(pooled[pool])) if pooled[pool] else math.nan
    return out


def oracle_fields(kind):
    """Prediction/truth pairs whose thresholds are all, some or none active."""
    rng = SeededRng(20)
    if kind == "zeros":
        return np.zeros((2, 16, 16)), np.zeros((2, 16, 16))
    if kind == "single_frame":
        return rng.uniform((16, 32)) ** 2, rng.uniform((16, 32)) ** 2
    truth = rng.uniform((3, 16, 32)) ** 3
    pred = np.clip(truth + 0.2 * rng.normal(truth.shape), 0.0, 1.0)
    if kind == "faint":
        return 0.3 * pred, 0.3 * truth
    return pred, truth


class TestContingency:
    def test_perfect_match(self):
        f = SeededRng(0).uniform((2, 8, 8))
        cc = contingency(f, f.copy(), 74)
        assert cc.false_alarms == 0 and cc.misses == 0

    def test_total_miss(self):
        pred = np.zeros((4, 4))
        truth = np.ones((4, 4))
        cc = contingency(pred, truth, 133)
        assert cc.hits == 0
        assert cc.misses == 16

    def test_enumerated_four_pixel_case(self):
        # hits=2, false alarms=1, misses=1, correct negatives=0.
        pred = np.array([[1.0, 1.0], [1.0, 0.4]])
        truth = np.array([[1.0, 1.0], [0.4, 1.0]])
        cc = contingency(pred, truth, 200)
        assert (cc.hits, cc.false_alarms, cc.misses, cc.correct_negatives) == (2, 1, 1, 0)
        assert cc.total == 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            contingency(np.zeros((2, 2)), np.zeros((3, 3)), 16)


class TestCsi:
    def test_perfect_forecast(self):
        f = SeededRng(1).uniform((3, 8, 8))
        assert csi_m(f, f.copy(), SEVIR_THRESHOLDS) == 1.0

    def test_formula(self):
        assert csi(ContingencyCounts(2, 1, 1, 0)) == 0.5

    def test_empty_threshold_skipped(self):
        pred = np.full((4, 4), 0.5)
        truth = np.full((4, 4), 0.5)
        # 255*0.5 = 127.5: thresholds above it see no events and no predictions.
        val = csi_m(pred, truth, (16, 219))
        assert val == 1.0  # only threshold 16 contributes

    def test_all_thresholds_empty_gives_nan(self):
        z = np.zeros((4, 4))
        assert math.isnan(csi_m(z, z, SEVIR_THRESHOLDS))

    def test_per_frame_on_2d_field_is_one_frame(self):
        p = SeededRng(15).uniform((32, 32))
        t = SeededRng(16).uniform((32, 32))
        one = csi_m(p, t, SEVIR_THRESHOLDS, per_frame=True)
        assert one == csi_m(p[None], t[None], SEVIR_THRESHOLDS, per_frame=True)
        assert one == csi_m(p, t, SEVIR_THRESHOLDS)


class TestPooledCsi:
    def test_pool_of_one_is_plain(self):
        p = SeededRng(2).uniform((8, 8))
        t = SeededRng(3).uniform((8, 8))
        assert pooled_csi(p, t, 74, 1) == csi(contingency(p, t, 74))

    def test_displaced_hit_recovered_by_pooling(self):
        pred = np.zeros((8, 8))
        truth = np.zeros((8, 8))
        pred[0, 0] = 1.0
        truth[2, 2] = 1.0  # same 4x4 cell, 2 pixels away
        assert csi(contingency(pred, truth, 133)) == 0.0
        assert pooled_csi(pred, truth, 133, 4) == 1.0

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ShapeError):
            pooled_csi(np.zeros((6, 6)), np.zeros((6, 6)), 16, 4)

    def test_pooling_widens_tolerance_on_random_pairs(self):
        rng = SeededRng(4)
        for trial in range(200):
            p = rng.uniform((16, 16))
            t = rng.uniform((16, 16))
            thr = (74, 133, 160)[trial % 3]
            assert pooled_csi(p, t, thr, 4) >= csi(contingency(p, t, thr))


class TestHss:
    def test_perfect_with_both_classes(self):
        pred = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert hss(contingency(pred, pred.copy(), 133)) == 1.0

    def test_independent_matched_marginals(self):
        assert hss(ContingencyCounts(1, 1, 1, 1)) == 0.0

    def test_formula_case(self):
        # 2(9-1)/((4*4)+(4*4)) = 0.5.
        assert hss(ContingencyCounts(3, 1, 1, 3)) == 0.5

    def test_empty_denominator(self):
        assert hss(ContingencyCounts(0, 0, 0, 16)) == 0.0


class TestSsim:
    def test_identical_images(self):
        f = SeededRng(5).uniform((12, 12))
        assert ssim(f, f.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_negation_strictly_below_one(self):
        f = SeededRng(6).uniform((12, 12))
        assert ssim(f, 1.0 - f) < 1.0

    def test_matches_direct_formula_oracle(self):
        p = SeededRng(7).uniform((8, 8))
        t = SeededRng(8).uniform((8, 8))
        assert ssim(p, t) == pytest.approx(ssim_direct(p, t), abs=1e-10)

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("window", [1, 3, 7])
    @pytest.mark.parametrize("shape", [(3, 9, 9), (2, 8, 13)])
    def test_stack_is_mean_of_direct_frames(self, window, shape, monkeypatch):
        monkeypatch.setattr(metrics, "SSIM_WINDOW", window)
        p = SeededRng(17).uniform(shape)
        t = SeededRng(18).uniform(shape)
        want = float(np.mean([ssim_direct(fp, ft, window=window) for fp, ft in zip(p, t)]))
        assert ssim(p, t) == pytest.approx(want, abs=1e-12)

    def test_range_property(self):
        rng = SeededRng(9)
        for _ in range(30):
            p = rng.uniform((10, 10))
            t = rng.uniform((10, 10))
            val = ssim(p, t)
            assert -1.0 <= val <= 1.0


class TestPairedTTest:
    def test_no_variance_is_degenerate(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.degenerate

    def test_against_incomplete_beta_oracle(self):
        # differences {1, 1, 1, -1}: mean 0.5, sd 1, t = 1 at 3 dof.
        res = paired_t_test([2.0, 2.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        assert res.t == pytest.approx(1.0, abs=1e-12)
        dof, t = res.dof, abs(res.t)
        p_oracle = float(
            mpmath.betainc(dof / 2, mpmath.mpf(1) / 2, 0, dof / (dof + t * t), regularized=True)
        )
        assert res.p == pytest.approx(p_oracle, abs=1e-12)

    def test_classic_table_value(self):
        # Two-sided p = 0.05 at t = 2.262, 9 dof (standard t table).
        diffs = np.array([1.0] * 10)
        diffs[0] += 0.0
        # Build pairs with a prescribed t: mean d / (sd/sqrt(n)) = 2.262.
        rng = SeededRng(10)
        d = rng.normal((10,))
        d = (d - d.mean()) / d.std(ddof=1)  # mean 0, sd 1
        t_target = 2.262
        d = d + t_target / math.sqrt(10)
        res = paired_t_test(d, np.zeros(10))
        assert res.t == pytest.approx(t_target, abs=1e-9)
        assert res.p == pytest.approx(0.05, abs=5e-4)

    def test_null_calibration(self):
        rng = SeededRng(11)
        n, trials = 16, 10_000
        rejections = 0
        for _ in range(trials):
            a = rng.normal((n,))
            b = rng.normal((n,))
            if paired_t_test(a, b).p < 0.05:
                rejections += 1
        rate = rejections / trials
        assert abs(rate - 0.05) < 0.01

    def test_short_input_rejected(self):
        with pytest.raises(ConfigError):
            paired_t_test([1.0], [2.0])


class TestSequenceLevel:
    def smooth_pair(self):
        spec = EventSpec(
            blobs=(
                BlobSpec(center=(20.0, 24.0), velocity=(0.3, -0.2), amplitude=0.95, radius=6.0),
                BlobSpec(center=(40.0, 40.0), velocity=(-0.2, 0.1), amplitude=0.8, radius=9.0),
            ),
            seed=0,
        )
        truth, _ = generate_event(spec, 4, 64, 64)
        pred_frames = np.clip(truth.frames * 0.93, 0.0, 1.0)
        return pred_frames, truth.frames

    def test_csi_monotone_in_threshold(self):
        pred, truth = self.smooth_pair()
        vals = [csi(contingency(pred, truth, thr)) for thr in SEVIR_THRESHOLDS]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-12

    def test_pixel_permutation_invariance(self):
        pred, truth = self.smooth_pair()
        perm = SeededRng(12).permutation(pred[0].size)
        p2 = pred.reshape(pred.shape[0], -1)[:, perm].reshape(pred.shape)
        t2 = truth.reshape(truth.shape[0], -1)[:, perm].reshape(truth.shape)
        for thr in (16, 74):
            assert csi(contingency(p2, t2, thr)) == csi(contingency(pred, truth, thr))
            assert hss(contingency(p2, t2, thr)) == hss(contingency(pred, truth, thr))

    def test_evaluate_pair_bundle(self):
        pred, truth = self.smooth_pair()
        out = evaluate_pair(truth, truth.copy(), SEVIR_THRESHOLDS)
        assert out["csi_m"] == 1.0
        assert out["hss"] == 1.0
        assert out["ssim"] == pytest.approx(1.0, abs=1e-12)
        out2 = evaluate_pair(pred, truth, METEONET_THRESHOLDS)
        assert 0.0 <= out2["csi_m"] <= 1.0
        assert out2["pooled_csi_4"] >= out2["csi_m"] - 1e-12

    def test_evaluate_pair_keys_in_report_order(self):
        pred, truth = self.smooth_pair()
        assert list(evaluate_pair(pred, truth, SEVIR_THRESHOLDS)) == [
            "csi_per_threshold", "csi_m", "pooled_csi_4", "pooled_csi_16", "hss", "ssim"]

    def test_frames_smaller_than_the_ssim_window_score_no_ssim(self):
        rng = SeededRng(19)
        side = metrics.SSIM_WINDOW - 1
        pred, truth = rng.uniform((2, side, side)), rng.uniform((2, side, side))
        assert math.isnan(evaluate_pair(pred, truth, SEVIR_THRESHOLDS)["ssim"])
        with pytest.raises(ShapeError):
            ssim(pred, truth)


class TestAgainstLoopOracles:
    @pytest.mark.parametrize("kind", ["random", "faint", "zeros", "single_frame"])
    @pytest.mark.parametrize("thresholds", [SEVIR_THRESHOLDS, METEONET_THRESHOLDS], ids=["sevir", "meteonet"])
    def test_evaluate_pair_bundle_is_exact(self, kind, thresholds):
        pred, truth = oracle_fields(kind)
        got = evaluate_pair(pred, truth, thresholds)
        got.pop("ssim")
        assert repr(sorted(got.items())) == repr(sorted(oracle_bundle(pred, truth, thresholds).items()))

    @pytest.mark.parametrize("kind", ["random", "faint", "zeros", "single_frame"])
    @pytest.mark.parametrize("thresholds", [SEVIR_THRESHOLDS, METEONET_THRESHOLDS], ids=["sevir", "meteonet"])
    @pytest.mark.parametrize("per_frame", [False, True])
    def test_csi_m_is_exact(self, kind, thresholds, per_frame):
        pred, truth = oracle_fields(kind)
        got = csi_m(pred, truth, thresholds, per_frame=per_frame)
        assert repr(got) == repr(oracle_csi_m(pred, truth, thresholds, per_frame=per_frame))

    def test_contingency_and_pooling(self):
        pred, truth = oracle_fields("random")
        for thr in SEVIR_THRESHOLDS:
            cc = contingency(pred, truth, thr)
            assert (cc.hits, cc.false_alarms, cc.misses, cc.correct_negatives) == summed(
                naive_contingency(pred, truth, thr)
            )
            for pool in (1, 4, 16):
                want = oracle_csi(summed(naive_contingency(
                    naive_max_pool(pred, pool), naive_max_pool(truth, pool), thr)))
                assert pooled_csi(pred, truth, thr, pool) == want
