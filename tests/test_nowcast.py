import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from oracles import (
    naive_conv2d,
    naive_conv2d_param_grads,
    reference_conv2d_backward,
    reference_conv2d_forward,
    reference_denoiser_backward,
    reference_denoiser_forward,
    reference_init_denoiser_params,
    reference_softmax_rows,
    unpatchify,
)
from test_trace_cli import MICRO

from harecast.attention import init_attention, mha_backward, mha_forward
from harecast.cli import main
from harecast.errors import ConfigError
from harecast.gradcheck import _robust_micro_instance, check_gradients, micro_train_config, objective_gradcheck
from harecast.nowcast import convnet, training
from harecast.nowcast.convnet import (
    conv2d_backward,
    conv2d_forward,
    tanh_backward,
    upsample2_backward,
    upsample2_forward,
)
from harecast.nowcast.diffusion import (
    DENOISER_STAGES,
    ddim_sample,
    denoiser_backward,
    denoiser_forward,
    diffusion_loss,
    init_denoiser_params,
    make_schedule,
    noising,
)
from harecast.nowcast.model import (
    encode,
    init_encoder_params,
    patchify,
    reconstruction_loss,
)
from harecast.nowcast.training import (
    FrozenDraws,
    TrainConfig,
    build_model,
    draw_batch,
    make_predictor,
    objective,
    render_dataset,
    rollout,
    train,
)
from harecast.synthdata import make_split, render_radar
from harecast.tensor_core import SeededRng, mse, softmax_rows, weight_grad


def assert_bitwise(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def micro_cfg(**kw):
    base = dict(
        seed=5, height=16, width=16, frames_in=2, frames_out=2, patch=8,
        dim=8, layers=1, heads=2, den_base=4, den_mid=6, den_bottleneck=8,
        den_heads=2, cond_dim=4, batch_size=2, steps=4,
        n_train=4, n_val=2, n_test=2, probe_batches=1, trace_every=2,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestPatchify:
    def test_round_trip(self):
        frames = SeededRng(0).uniform((2, 3, 8, 8))
        tokens = patchify(frames, 4)
        assert tokens.shape == (2, 3 * 4, 16)
        np.testing.assert_array_equal(unpatchify(tokens, 3, 8, 8, 4), frames)


class TestEncode:
    def test_token_count(self):
        cfg = TrainConfig(height=32, width=32, frames_in=5, patch=8, dim=16, layers=1, heads=2)
        params = init_encoder_params(cfg, SeededRng(1))
        f, cache = encode(SeededRng(2).uniform((2, 5, 32, 32)), None, cfg, params)
        assert f.shape == (2, 5 * 16, 16)
        assert len(cache.block_caches) == 1

    def test_zero_input_zero_params_gives_positional_embedding(self):
        cfg = TrainConfig(height=16, width=16, frames_in=2, patch=8, dim=8, layers=2, heads=2)
        params = init_encoder_params(cfg, SeededRng(3))
        for name, arr in params.items():
            if name != "enc.pos":
                params[name] = np.zeros_like(arr)
        f, _ = encode(np.zeros((3, 2, 16, 16)), None, cfg, params)
        np.testing.assert_array_equal(f, np.broadcast_to(params["enc.pos"], f.shape))
        assert np.all(np.isfinite(f))

    def test_multimodal_with_zeroed_satellite_weights_matches_unimodal(self):
        uni = TrainConfig(height=16, width=16, frames_in=2, patch=4, dim=8, layers=1, heads=2)
        multi = TrainConfig(height=16, width=16, frames_in=2, patch=4, dim=8, layers=1,
                            heads=2, mode="multimodal")
        p_uni = init_encoder_params(uni, SeededRng(4))
        p_multi = init_encoder_params(multi, SeededRng(4))
        pv = uni.patch * uni.patch
        p_multi["enc.embed.w"] = np.concatenate(
            [p_uni["enc.embed.w"], np.zeros((pv, uni.dim))], axis=0
        )
        for name in p_uni:
            if name not in ("enc.embed.w",) and name in p_multi:
                p_multi[name] = p_uni[name].copy()
        x = SeededRng(5).uniform((2, 2, 16, 16))
        sat = SeededRng(6).uniform((2, 2, 16, 16))
        f_uni, _ = encode(x, None, uni, p_uni)
        f_multi, _ = encode(x, sat, multi, p_multi)
        np.testing.assert_allclose(f_multi, f_uni, atol=1e-12)

    def test_mode_mismatch_rejected(self):
        cfg = TrainConfig(height=16, width=16, frames_in=2, patch=8, dim=8, layers=1, heads=2)
        params = init_encoder_params(cfg, SeededRng(1))
        with pytest.raises(ConfigError):
            encode(np.zeros((1, 2, 16, 16)), np.zeros((1, 2, 16, 16)), cfg, params)

    def test_indivisible_patch_rejected(self):
        with pytest.raises(ConfigError, match="height must be a multiple of patch"):
            TrainConfig(height=20, width=32, frames_in=2, patch=8, dim=8, layers=1, heads=2)


def decode_radar(f, cfg, params):
    """The radar decoder written out: linear de-patchify of the latent."""
    tokens = f @ params["dec.radar.w"] + params["dec.radar.b"]
    return unpatchify(tokens, cfg.frames_in, cfg.height, cfg.width, cfg.patch)


class TestReconstruct:
    def test_constructed_inverse_round_trip(self):
        # d == P^2, identity embedding, zero blocks: decoding is exact.
        cfg = TrainConfig(height=8, width=8, frames_in=2, patch=4, dim=16, layers=1, heads=2)
        params = init_encoder_params(cfg, SeededRng(7))
        for name, arr in params.items():
            params[name] = np.zeros_like(arr)
        params["enc.embed.w"] = np.eye(16)
        params["dec.radar.w"] = np.eye(16)
        x = SeededRng(8).uniform((2, 2, 8, 8))
        f, _ = encode(x, None, cfg, params)
        np.testing.assert_allclose(decode_radar(f, cfg, params), x, atol=1e-12)
        loss, _ = reconstruction_loss(f, patchify(x, cfg.patch), cfg, params, None)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_loss_matches_mse_oracle(self):
        cfg = TrainConfig(height=16, width=16, frames_in=2, patch=8, dim=8, layers=1, heads=2)
        params = init_encoder_params(cfg, SeededRng(9))
        x = SeededRng(10).uniform((3, 2, 16, 16))
        f, _ = encode(x, None, cfg, params)
        loss, grad_f = reconstruction_loss(f, patchify(x, cfg.patch), cfg, params, None)
        assert grad_f is None  # no grads registry, no backward
        oracle = float(np.mean((decode_radar(f, cfg, params) - x) ** 2))
        assert loss == pytest.approx(oracle, abs=1e-12)

    def test_unimodal_has_single_decoder(self):
        cfg = TrainConfig(height=16, width=16, frames_in=2, patch=8, dim=8, layers=1, heads=2)
        params = init_encoder_params(cfg, SeededRng(11))
        assert "dec.satellite.w" not in params
        f, _ = encode(SeededRng(12).uniform((1, 2, 16, 16)), None, cfg, params)
        # Only the radar decoder runs, so no satellite patches are needed.
        loss, _ = reconstruction_loss(f, patchify(np.zeros((1, 2, 16, 16)), cfg.patch), cfg, params, None)
        assert np.isfinite(loss)

    @pytest.mark.parametrize("mode", ["unimodal", "multimodal"])
    def test_encoder_patches_bitwise_per_modality_formula(self, mode):
        # Each modality's target is its own patchify(frames), squared error
        # summed per modality, as the loss was written before it read the
        # encoder's patches.
        cfg = micro_cfg(mode=mode)
        params = init_encoder_params(cfg, SeededRng(13))
        frames = {"radar": SeededRng(14).uniform((2, 2, 16, 16))}
        if mode == "multimodal":
            frames["satellite"] = SeededRng(15).uniform((2, 2, 16, 16))
        f, cache = encode(frames["radar"], frames.get("satellite"), cfg, params)
        grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        want_grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        loss, grad_f = reconstruction_loss(f, cache.patches, cfg, params, grads)

        want_loss, want_grad_f = 0.0, np.zeros_like(f)
        for modality, x in frames.items():
            diff = f @ params[f"dec.{modality}.w"] + params[f"dec.{modality}.b"] - patchify(x, cfg.patch)
            want_loss += float(np.sum(diff * diff)) / diff.size
            g_tokens = 2.0 * diff / diff.size
            want_grads[f"dec.{modality}.w"] += weight_grad(f, g_tokens)
            want_grads[f"dec.{modality}.b"] += g_tokens.sum(axis=(0, 1))
            want_grad_f += g_tokens @ params[f"dec.{modality}.w"].T
        assert_bitwise(loss, want_loss)
        assert_bitwise(grad_f, want_grad_f)
        for name in params:
            assert_bitwise(grads[name], want_grads[name])


class TestSchedule:
    def test_monotonicity_and_endpoints(self):
        sched = make_schedule(1000)
        assert sched.betas[0] == pytest.approx(1e-4)
        assert sched.betas[-1] == pytest.approx(0.02)
        assert np.all(np.diff(sched.betas) > 0)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert sched.alpha_bars[0] == pytest.approx(1.0, abs=1e-3)

    def test_noise_budget_conservation(self):
        # E||x_t||^2 = abar_t ||y||^2 + (1 - abar_t) * dim over noise draws.
        sched = make_schedule(1000)
        rng = SeededRng(13)
        y = rng.uniform((1, 3, 8, 8))
        dim = y.size
        for t in (1, 400, 1000):
            draws = 4000
            eps = rng.normal((draws, 3, 8, 8))
            x_t = noising(np.repeat(y, draws, axis=0), np.full(draws, t), eps, sched)
            got = float(np.mean(np.sum(x_t**2, axis=(1, 2, 3))))
            ab = sched.alpha_bars[t - 1]
            want = ab * float(np.sum((2 * y - 1) ** 2)) + (1 - ab) * dim
            se = float(np.std(np.sum(x_t**2, axis=(1, 2, 3)), ddof=1) / np.sqrt(draws))
            assert abs(got - want) < 3 * se + 1e-9

    def test_first_step_is_near_identity(self):
        sched = make_schedule(1000)
        rng = SeededRng(14)
        y = rng.uniform((4, 2, 8, 8))
        eps = rng.normal(y.shape)
        x1 = noising(y, np.ones(4, dtype=int), eps, sched)
        resid = x1 - (2 * y - 1) * np.sqrt(sched.alpha_bars[0])
        assert np.abs(resid).max() <= np.sqrt(1 - sched.alpha_bars[0]) * np.abs(eps).max() + 1e-12
        assert np.abs(x1 - (2 * y - 1)).max() < 0.1


class TestConv:
    """conv2d_forward/backward against the nested-loop oracle, at both strides."""

    CASES = [(stride, hw) for stride in (1, 2) for hw in ((7, 9), (8, 6))]
    IDS = [f"stride{stride}-{h}x{w}" for stride, (h, w) in CASES]

    def setup_case(self, seed, stride, hw, cin=3, cout=4):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, cin) + hw)
        w = rng.normal(size=(cout, cin * 9))
        b = rng.normal(size=cout)
        out, cache = conv2d_forward(x, w, b, stride)
        g = rng.normal(size=out.shape)
        return x, w, b, out, cache, g

    @pytest.mark.parametrize("stride,hw", CASES, ids=IDS)
    def test_forward_matches_oracle(self, stride, hw):
        x, w, b, out, _, _ = self.setup_case(0, stride, hw)
        want = naive_conv2d(x, w.reshape(4, 3, 3, 3), b, stride)
        assert out.shape == want.shape
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,hw", CASES, ids=IDS)
    def test_param_grads_match_oracle(self, stride, hw):
        x, w, _, _, cache, g = self.setup_case(1, stride, hw)
        grad_w, grad_b, _ = conv2d_backward(g, w, cache)
        want_w, want_b = naive_conv2d_param_grads(x, g, stride)
        np.testing.assert_allclose(grad_w, want_w.reshape(w.shape), rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_b, want_b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,hw", CASES, ids=IDS)
    def test_input_grad_is_the_adjoint(self, stride, hw):
        # <conv(x) - b, g> = <x, conv^T g> for the linear part of the conv.
        x, w, b, out, cache, g = self.setup_case(2, stride, hw)
        _, _, grad_x = conv2d_backward(g, w, cache)
        assert grad_x.shape == x.shape
        lhs = np.sum((out - b[:, None, None]) * g)
        assert np.sum(x * grad_x) == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("stride,hw", CASES, ids=IDS)
    @pytest.mark.parametrize("first", [1, 2])
    def test_first_grad_channel_slices_input_grad(self, stride, hw, first):
        _, w, _, _, cache, g = self.setup_case(3, stride, hw)
        full = conv2d_backward(g, w, cache)
        part = conv2d_backward(g, w, cache, first_grad_channel=first)
        np.testing.assert_array_equal(part[0], full[0])
        np.testing.assert_array_equal(part[1], full[1])
        np.testing.assert_allclose(part[2], full[2][:, first:], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bsz", [1, 2, 8])
    @pytest.mark.parametrize("hw", [(32, 32), (16, 16), (7, 9), (8, 6)], ids=lambda hw: "%dx%d" % hw)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_bitwise_the_padded_window_conv(self, stride, hw, bsz, cin=5, cout=6):
        # Bit-identity holds for cout >= 2 only: a one-output-channel tap
        # product goes to BLAS gemv, whose tail columns depend on the row
        # length, and differs at roundoff at some sizes (e.g. 12x12 stride 2).
        # The backward keeps the window form for one gradient channel
        # (first = cin - 1).
        rng = np.random.default_rng([stride, *hw, bsz])
        x = rng.normal(size=(bsz, cin) + hw)
        w = rng.normal(size=(cout, cin * 9))
        b = rng.normal(size=cout)
        out, cache = conv2d_forward(x, w, b, stride)
        want, want_cache = reference_conv2d_forward(x, w, b, stride)
        assert_bitwise(out, want)
        g = rng.normal(size=out.shape)
        for first in (0, 1, cin - 1):
            got = conv2d_backward(g, w, cache, first_grad_channel=first)
            ref = reference_conv2d_backward(g, w, want_cache, first_grad_channel=first)
            for got_part, ref_part in zip(got, ref):  # grad_w, grad_b, grad_x
                assert_bitwise(got_part, ref_part)

    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("stride,cin,cout", [(1, 8, 20), (1, 3, 1), (2, 5, 6)])
    def test_backward_bitwise_at_a_one_column_output(self, stride, cin, cout, bsz):
        # A one-column output keeps the window form.  Only the backward is
        # compared: at stride 2 the output is one cell, where the
        # padded-window forward's product is a gemv (N = 1).
        rng = np.random.default_rng([stride, cin, cout, bsz])
        x = rng.normal(size=(bsz, cin, 2, 1))
        w = rng.normal(size=(cout, cin * 9))
        out, cache = conv2d_forward(x, w, np.zeros(cout), stride)
        _, want_cache = reference_conv2d_forward(x, w, np.zeros(cout), stride)
        g = rng.normal(size=out.shape)
        for got_part, ref_part in zip(conv2d_backward(g, w, cache), reference_conv2d_backward(g, w, want_cache)):
            assert_bitwise(got_part, ref_part)

    @pytest.mark.parametrize("samples", [1, 2, 5], ids=["one-sample-chunks", "two-sample-chunks", "one-chunk"])
    @pytest.mark.parametrize("hw", [(7, 9), (16, 16)], ids=lambda hw: "%dx%d" % hw)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_bitwise_across_sample_chunks(self, monkeypatch, stride, hw, samples, bsz=5, cin=5, cout=6):
        # A budget of `samples` samples on the output grid cuts the batch of
        # 5 into 1 + 1 + 1 + 1 + 1, 2 + 2 + 1, or one chunk of 5.
        rng = np.random.default_rng([stride, *hw, samples])
        x = rng.normal(size=(bsz, cin) + hw)
        w = rng.normal(size=(cout, cin * 9))
        b = rng.normal(size=cout)
        ho, _, gw, *_ = convnet._layout(*hw, stride)
        monkeypatch.setattr(convnet, "GRAD_CHUNK", samples * cout * ho * gw)
        out, _ = conv2d_forward(x, w, b, stride)
        want, _ = reference_conv2d_forward(x, w, b, stride)
        assert_bitwise(out, want)

    @pytest.mark.parametrize("hw,stride,cin,cout", [((12, 12), 2, 4, 1), ((7, 9), 1, 3, 1), ((2, 1), 2, 5, 6)],
                             ids=["12x12-s2-cout1", "7x9-s1-cout1", "2x1-s2-one-cell"])
    def test_forward_near_the_padded_window_conv_off_the_bitwise_rule(self, hw, stride, cin, cout):
        # One output channel, or a one-cell output, sends a tap product of
        # one form or the other to BLAS gemv, so the forms agree to roundoff
        # rather than bitwise (at 12x12 stride 2, 4 -> 1, some cells differ).
        rng = np.random.default_rng([stride, *hw, cin, cout])
        x = rng.normal(size=(3, cin) + hw)
        w = rng.normal(size=(cout, cin * 9))
        b = rng.normal(size=cout)
        out, _ = conv2d_forward(x, w, b, stride)
        want, _ = reference_conv2d_forward(x, w, b, stride)
        assert out.shape == want.shape
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)


@functools.cache
def default_conv_stages():
    """{stage: (ConvCache.shape without the batch, stride, weight)} of a default denoiser."""
    cfg = TrainConfig()
    params = init_denoiser_params(cfg, SeededRng(cfg.seed, stream=1000).spawn(2000))
    _, cache = denoiser_forward(np.zeros((1, cfg.frames_out, cfg.height, cfg.width)), np.ones(1, dtype=np.int64),
                                np.zeros((1, cfg.cond_dim)), cfg, params)
    return {name: (c.shape[1:], c.stride, params[f"den.{name}.w"]) for name, c in cache.convs.items()}


def conv_case(name, bsz):
    """Random input, bias and upstream gradient at a default stage's shapes."""
    shape, stride, w = default_conv_stages()[name]
    rng = np.random.default_rng([len(name), bsz, *shape])
    x = rng.normal(size=(bsz,) + shape)
    b = rng.normal(size=w.shape[0])
    out, cache = conv2d_forward(x, w, b, stride)
    return x, w, b, stride, out, cache, rng.normal(size=out.shape)


class TestConvAtDefaultStages:
    """The six convolutions a default training step runs, at their own shapes."""

    @pytest.mark.parametrize("bsz", [1, 8])
    @pytest.mark.parametrize("name", [stage[0] for stage in DENOISER_STAGES])
    def test_bitwise_the_padded_window_conv(self, name, bsz):
        x, w, b, stride, out, cache, g = conv_case(name, bsz)
        want, want_cache = reference_conv2d_forward(x, w, b, stride)
        assert_bitwise(out, want)
        # The step asks `in` for the conditioning channels' gradient only.
        firsts = (0, TrainConfig().frames_out) if name == "in" else (0,)
        for first in firsts:
            got = conv2d_backward(g, w, cache, first_grad_channel=first)
            ref = reference_conv2d_backward(g, w, want_cache, first_grad_channel=first)
            for got_part, ref_part in zip(got, ref):  # grad_w, grad_b, grad_x
                assert_bitwise(got_part, ref_part)

    @pytest.mark.parametrize("name", ["in", "d1", "u2"])
    def test_bitwise_across_sample_chunks(self, monkeypatch, name):
        # A budget of two samples splits a batch of 5 into 2 + 2 + 1.
        x, w, b, stride, out, cache, g = conv_case(name, 5)
        _, want_cache = reference_conv2d_forward(x, w, b, stride)
        _, _, gw, rows, _, offsets = convnet._layout(*x.shape[2:], stride)
        seg = max(off for *_, off in offsets) + rows * gw
        monkeypatch.setattr(convnet, "GRAD_CHUNK", 2 * w.shape[0] * seg)
        got = conv2d_backward(g, w, cache)
        ref = reference_conv2d_backward(g, w, want_cache)
        for got_part, ref_part in zip(got, ref):
            assert_bitwise(got_part, ref_part)


def traced_peak(fn) -> int:
    """Bytes fn holds at its peak, counting what it allocates after the call starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryCeilings:
    """Peak allocation of the backward's largest stages and of one default step.

    Each ceiling is the peak measured at the window-scatter backward this
    one replaced (two 8-sample tap windows in flight), so buffers that pile
    up fail here.
    """

    @pytest.mark.parametrize("name,ceiling", [("in", 3_460_000), ("u2", 2_620_000), ("out", 1_800_000)])
    def test_conv_backward_at_batch_8(self, name, ceiling):
        _, w, _, _, _, cache, g = conv_case(name, 8)
        first = TrainConfig().frames_out if name == "in" else 0
        assert traced_peak(lambda: conv2d_backward(g, w, cache, first_grad_channel=first)) < ceiling

    def test_default_objective_step(self):
        cfg = TrainConfig()
        model = build_model(cfg)
        train_specs, _, _ = make_split(cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test, cfg.height, cfg.width)
        batch, draws = draw_batch(model, render_dataset(train_specs, cfg), cfg, SeededRng(cfg.seed, stream=3000))
        assert traced_peak(lambda: objective(model, batch, draws, cfg, hare_enabled=True)) < 21_270_000


def test_hot_kernels_leave_inputs_and_caches_unchanged():
    """No public kernel of the step writes into its arguments or a saved cache.

    Several kernels work in place on arrays they have just made; each call
    here must leave the bytes of every array it was given, those inside a
    parameter dict or a cache included.
    """

    def call(fn, *args):
        arrays = []
        for arg in args:
            if isinstance(arg, dict):
                arrays += arg.values()
            elif dataclasses.is_dataclass(arg):
                arrays += [v for v in vars(arg).values() if isinstance(v, np.ndarray)]
            elif isinstance(arg, np.ndarray):
                arrays.append(arg)
        before = [a.tobytes() for a in arrays]
        result = fn(*args)
        assert [a.tobytes() for a in arrays] == before, fn.__name__
        return result

    rng = SeededRng(17)
    for shape in ((2, 2, 9, 9), (3, 5), (4, 1)):  # long rows, short rows, one column
        scores = rng.normal(shape)
        assert_bitwise(call(softmax_rows, scores), reference_softmax_rows(scores))

    pred, target = rng.normal((3, 2, 4, 4)), rng.normal((3, 2, 4, 4))
    call(mse, pred, target)
    y01, eps = rng.uniform((3, 2, 4, 4)), rng.normal((3, 2, 4, 4))
    call(noising, y01, np.array([1, 500, 1000]), eps, make_schedule(1000))

    y, g = np.tanh(rng.normal((2, 3, 4, 4))), rng.normal((2, 3, 4, 4))
    assert_bitwise(call(tanh_backward, g, y), g * (1.0 - y * y))
    call(upsample2_forward, y)
    call(upsample2_backward, rng.normal((2, 3, 8, 8)))

    params = init_attention(8, rng)
    x, grad_y = rng.normal((3, 9, 8)), rng.normal((3, 9, 8))
    _, cache = call(mha_forward, x, params, 2)
    call(mha_backward, params, 2, cache, grad_y, rng.normal(cache.o.shape))

    for name in ("in", "d1", "out"):
        x, w, b, stride, _, _, grad_out = conv_case(name, 2)
        _, cache = call(conv2d_forward, x, w, b, stride)
        call(conv2d_backward, grad_out, w, cache, 1)


class TestDenoiser:
    @pytest.mark.parametrize("bsz", [1, 8])
    @pytest.mark.parametrize("model", ["default", "gradcheck_micro"])
    def test_stage_table_is_bitwise_the_hand_written_denoiser(self, model, bsz):
        cfg = TrainConfig() if model == "default" else micro_train_config(0, (1.0, 1.0, 5.0))
        params = init_denoiser_params(cfg, SeededRng(cfg.seed, stream=1000).spawn(2000))
        want = reference_init_denoiser_params(cfg, SeededRng(cfg.seed, stream=1000).spawn(2000))
        assert list(params) == list(want)
        for name in params:
            assert_bitwise(params[name], want[name])

        rng = SeededRng(61, stream=bsz)
        # Offsets on every parameter so the zero-initialised biases take part.
        params = {name: arr + 0.1 * rng.normal(arr.shape) for name, arr in params.items()}
        x_t = rng.normal((bsz, cfg.frames_out, cfg.height, cfg.width))
        t = np.asarray(rng.integers(1, 1001, size=bsz))
        cond = rng.normal((bsz, cfg.cond_dim))
        grad_eps = rng.normal(x_t.shape)
        eps_hat, cache = denoiser_forward(x_t, t, cond, cfg, params)
        want_eps_hat, want_cache = reference_denoiser_forward(x_t, t, cond, cfg, params)
        assert_bitwise(eps_hat, want_eps_hat)

        grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        want_grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        g_cond = denoiser_backward(grad_eps, cfg, params, cache, grads)
        want_g_cond = reference_denoiser_backward(grad_eps, cfg, params, want_cache, want_grads)
        for name in params:
            assert_bitwise(grads[name], want_grads[name])
        assert_bitwise(g_cond, want_g_cond)

    def test_zero_denoiser_loss_near_one(self):
        cfg = TrainConfig(frames_out=2, cond_dim=4, den_base=4, den_mid=6, den_bottleneck=8, den_heads=2)
        params = {k: np.zeros_like(v) for k, v in init_denoiser_params(cfg, SeededRng(15)).items()}
        sched = make_schedule(1000)
        rng = SeededRng(16)
        bsz = 32
        y = rng.uniform((bsz, 2, 16, 16))
        t = np.asarray(rng.integers(1, 1001, size=bsz))
        eps = rng.normal(y.shape)
        x_t = noising(y, t, eps, sched)
        loss, _, g_cond = diffusion_loss(x_t, t, np.zeros((bsz, 4)), eps, cfg, params, None)
        assert g_cond is None  # no grads registry, no backward
        n = eps.size
        assert abs(loss - 1.0) < 3 * np.sqrt(2.0 / n)

    def test_oracle_noise_model_gives_zero_loss(self):
        sched = make_schedule(1000)
        y = SeededRng(41).uniform((3, 2, 8, 8))
        rng = SeededRng(42)
        t = np.asarray(rng.integers(1, sched.steps + 1, size=3))
        eps = rng.normal(y.shape)
        x_t = noising(y, t, eps, sched)
        # Invert the forward noising given the clean target.
        ab = sched.alpha_bars[t - 1][:, None, None, None]
        eps_hat = (x_t - np.sqrt(ab) * (2.0 * y - 1.0)) / np.sqrt(1.0 - ab)
        assert float(np.mean((eps_hat - eps) ** 2)) == pytest.approx(0.0, abs=1e-20)


class TestDdim:
    def oracle_eps_fn(self, target, sched):
        def eps_fn(x, t):
            ab = sched.alpha_bars[np.asarray(t) - 1][:, None, None, None]
            return (x - np.sqrt(ab) * target) / np.sqrt(1.0 - ab)

        return eps_fn

    def test_oracle_denoiser_converges_to_target(self):
        sched = make_schedule(1000)
        target = SeededRng(18).uniform((1, 2, 8, 8)) * 1.6 - 0.8
        out = ddim_sample(self.oracle_eps_fn(target, sched), sched, (1, 2, 8, 8), 5, SeededRng(19))
        np.testing.assert_allclose(out, (target + 1) / 2, atol=1e-3)

    def test_determinism(self):
        sched = make_schedule(1000)
        target = SeededRng(20).uniform((1, 2, 8, 8)) - 0.5
        fn = self.oracle_eps_fn(target, sched)
        a = ddim_sample(fn, sched, (1, 2, 8, 8), 5, SeededRng(21))
        b = ddim_sample(fn, sched, (1, 2, 8, 8), 5, SeededRng(21))
        np.testing.assert_array_equal(a, b)

    def test_schedule_refinement(self):
        sched = make_schedule(1000)
        target = SeededRng(22).uniform((1, 2, 8, 8)) - 0.5
        fn = self.oracle_eps_fn(target, sched)
        out5 = ddim_sample(fn, sched, (1, 2, 8, 8), 5, SeededRng(23))
        out50 = ddim_sample(fn, sched, (1, 2, 8, 8), 50, SeededRng(23))
        out_full = ddim_sample(fn, sched, (1, 2, 8, 8), 1000, SeededRng(23))
        np.testing.assert_allclose(out5, out50, atol=1e-9)
        np.testing.assert_allclose(out50, out_full, atol=1e-9)

    def test_bad_step_count(self):
        sched = make_schedule(100)
        with pytest.raises(ConfigError):
            ddim_sample(lambda x, t: x, sched, (1, 1, 8, 8), 0, SeededRng(1))


class TestRollout:
    def test_single_chunk_equals_direct_prediction(self):
        ctx = SeededRng(24).uniform((2, 8, 8))
        pred = SeededRng(25).uniform((3, 8, 8))
        out = rollout(lambda c: pred.copy(), ctx, horizon=3, chunk=3, frames_in=2)
        np.testing.assert_array_equal(out, pred)

    def test_second_chunk_conditions_on_first_output(self):
        ctx = SeededRng(26).uniform((2, 8, 8))
        contexts = []
        pred = SeededRng(27).uniform((2, 8, 8))

        def predict(context):
            contexts.append(context)
            return pred.copy()

        rollout(predict, ctx, horizon=4, chunk=2, frames_in=2)
        assert len(contexts) == 2
        np.testing.assert_array_equal(contexts[0], ctx)
        np.testing.assert_array_equal(contexts[1], pred)  # frames_in == chunk here

    def test_constant_field_predictor(self):
        const = np.full((2, 8, 8), 0.25)
        out = rollout(lambda c: const.copy(), SeededRng(28).uniform((2, 8, 8)),
                      horizon=8, chunk=2, frames_in=2)
        np.testing.assert_array_equal(out, np.full((8, 8, 8), 0.25))

    def test_horizon_must_divide(self):
        with pytest.raises(ConfigError):
            rollout(lambda c: c, np.zeros((2, 8, 8)), horizon=5, chunk=2, frames_in=2)

    @pytest.mark.parametrize("horizon, chunk", [(0, 2), (-2, 2), (4, 0)])
    def test_non_positive_size_refused(self, horizon, chunk):
        with pytest.raises(ConfigError, match=f"got horizon={horizon} chunk={chunk}"):
            rollout(lambda c: c, np.zeros((2, 8, 8)), horizon=horizon, chunk=chunk, frames_in=2)

    @pytest.mark.parametrize("chunk", [1, 4])
    def test_chunk_must_match_the_predictor(self, chunk):
        """A predictor of frames_out = 2 frames cannot fill chunks of 1 or 4."""
        with pytest.raises(ConfigError, match=f"predict_chunk gave 2 frames, but chunk is {chunk}"):
            rollout(lambda c: np.zeros((2, 8, 8)), np.zeros((2, 8, 8)), horizon=4, chunk=chunk, frames_in=2)

    def test_model_predictor_shapes_and_determinism(self):
        cfg = micro_cfg()
        model = build_model(cfg)
        pred_a = make_predictor(model, cfg, SeededRng(30))
        pred_b = make_predictor(model, cfg, SeededRng(30))
        ctx = SeededRng(31).uniform((2, 16, 16))
        out_a = rollout(pred_a, ctx, horizon=4, chunk=2, frames_in=2)
        out_b = rollout(pred_b, ctx, horizon=4, chunk=2, frames_in=2)
        assert out_a.shape == (4, 16, 16)
        assert out_a.min() >= 0.0 and out_a.max() <= 1.0
        np.testing.assert_array_equal(out_a, out_b)

    def test_multimodal_model_forecasts(self, monkeypatch):
        import harecast.nowcast.training as training_mod

        cfg = micro_cfg(mode="multimodal")
        model = build_model(cfg)
        spec = make_split(cfg.seed, 4, 2, 2, 16, 16)[0][0]
        context = render_radar(spec, cfg.frames_in + cfg.frames_out, 16, 16)[: cfg.frames_in]
        seen = []
        encode_real = training_mod.encode

        def spy(x_radar, x_sat, *rest):
            seen.append(x_sat)
            return encode_real(x_radar, x_sat, *rest)

        monkeypatch.setattr(training_mod, "encode", spy)
        out = rollout(make_predictor(model, cfg, SeededRng(30)), context, horizon=4, chunk=2, frames_in=2)
        assert out.shape == (4, 16, 16)
        assert np.all(np.isfinite(out)) and out.min() >= 0.0 and out.max() <= 1.0
        # The first chunk's satellite input is the one render_dataset gives this context.
        assert len(seen) == 2
        assert_bitwise(seen[0], render_dataset([spec], cfg)["x_sat"])


class TestTraining:
    def test_two_runs_identical(self):
        cfg = micro_cfg()
        r1 = train(cfg)
        r2 = train(cfg)
        assert r1.losses == r2.losses
        for name in r1.model.params:
            np.testing.assert_array_equal(r1.model.params[name], r2.model.params[name])
        assert [rec.to_line() for rec in r1.probe_trace] == [rec.to_line() for rec in r2.probe_trace]

    def test_zero_weight_is_bitwise_identical_to_disabled_build(self):
        cfg = micro_cfg(lambda_hare=0.0)
        on = train(cfg)
        off = train(cfg, hare_enabled=False)
        for name in on.model.params:
            assert np.array_equal(on.model.params[name], off.model.params[name]), name
        assert on.trace == [] == off.trace

    def test_hare_needs_batch_statistics(self):
        with pytest.raises(ConfigError):
            train(micro_cfg(batch_size=1, lambda_hare=1.0))

    def test_batch_of_one_rejected_without_stabilization(self):
        # The held-out probe's cross-sample variance needs two samples too.
        with pytest.raises(ConfigError, match="batch_size must be >= 2"):
            micro_cfg(batch_size=1, n_val=1, lambda_hare=0.0)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 3])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\*\*63\)"):
            TrainConfig(seed=seed)

    def test_largest_seed_accepted(self):
        assert TrainConfig(seed=2**63 - 1).seed == 2**63 - 1

    @pytest.mark.parametrize("hare_enabled", [True, False])
    def test_forward_only_objective_matches_full_pass(self, hare_enabled):
        cfg = micro_cfg()
        model = build_model(cfg)
        specs, _, _ = make_split(cfg.seed, 4, 2, 2, 16, 16)
        data = render_dataset(specs, cfg)
        batch = {k: v[:2] for k, v in data.items()}
        draws = FrozenDraws(t=np.array([5, 700]), eps=SeededRng(37).normal(batch["y_future"].shape))
        full = objective(model, batch, draws, cfg, hare_enabled)
        fwd = objective(model, batch, draws, cfg, hare_enabled, compute_grads=False)
        assert fwd.grads is None and full.grads is not None
        for name in ("total", "recon", "hare", "diff"):
            assert getattr(fwd, name) == getattr(full, name), name
        assert (full.hare != 0.0) == hare_enabled

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_masked_objective_against_all_ones(self, fraction, monkeypatch):
        cfg = micro_cfg()
        model = build_model(cfg)
        specs, _, _ = make_split(cfg.seed, 4, 2, 2, 16, 16)
        data = render_dataset(specs, cfg)
        draws = FrozenDraws(t=np.array([5, 300, 700, 999]),
                            eps=SeededRng(38).normal(data["y_future"].shape))
        masked = objective(model, data, draws, micro_cfg(mask_fraction=fraction), hare_enabled=True)
        # The same objective with an explicit all-ones stabilization mask.
        monkeypatch.setattr(training, "difficulty_mask", lambda loss, fraction: np.ones(len(loss)))
        full = objective(model, data, draws, cfg, hare_enabled=True)
        if fraction == 1.0:
            # Every sample is kept: the default config's loss is the all-ones loss, bit for bit.
            assert_bitwise([masked.total, masked.hare], [full.total, full.hare])
            for name in full.grads:
                assert_bitwise(masked.grads[name], full.grads[name])
        else:
            # ReLU terms are >= 0 and mu_g uses the full batch, so dropping
            # samples can only lower the penalty.
            assert masked.hare <= full.hare

    def test_objective_gradient_matches_finite_differences(self):
        for seed in (0, 1):
            rep = objective_gradcheck(seed, hare_only=False)
            assert rep.ok, rep.failures
            rep = objective_gradcheck(seed, hare_only=True)
            assert rep.ok, rep.failures

    def test_multimodal_objective_gradients_and_rerun(self, tmp_path):
        # Only multimodal runs reach the satellite decoder and the 2*P*P patch vector.
        for seed in range(3):
            cfg = dataclasses.replace(micro_train_config(seed, (1.0, 1.0, 5.0)), mode="multimodal")
            model, batch, draws, res = _robust_micro_instance(cfg, seed)
            assert "dec.satellite.w" in res.grads and model.params["enc.embed.w"].shape[0] == 2 * 8 * 8

            def loss():
                return objective(model, batch, draws, cfg, hare_enabled=True, compute_grads=False).total

            rep = check_gradients(loss, model.params, res.grads, SeededRng(seed + 31), coords_per_param=4)
            assert rep.ok, rep.failures
        runs = [tmp_path / tag for tag in ("a", "b")]
        for out in runs:
            assert main(["train-toy", "--out", str(out), "--mode", "multimodal", *MICRO]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir()) and "model.bin" in names
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_decoders_absent_from_inference_path(self, monkeypatch):
        cfg = micro_cfg()
        model = build_model(cfg)

        def bomb(*a, **k):
            raise AssertionError("decoder evaluated on the inference path")

        import harecast.nowcast.model as model_mod
        import harecast.nowcast.training as training_mod

        monkeypatch.setattr(model_mod, "reconstruction_loss", bomb)
        monkeypatch.setattr(training_mod, "reconstruction_loss", bomb)
        predict = make_predictor(model, cfg, SeededRng(33))
        out = rollout(predict, SeededRng(34).uniform((2, 16, 16)), horizon=2, chunk=2, frames_in=2)
        assert out.shape == (2, 16, 16)
        # Sanity: the patched decoder does fire on the training path.
        specs, _, _ = make_split(cfg.seed, 4, 2, 2, 16, 16)
        data = render_dataset(specs, cfg)
        batch = {k: v[:2] for k, v in data.items()}
        draws = FrozenDraws(t=np.array([5, 10]), eps=SeededRng(35).normal(batch["y_future"].shape))
        with pytest.raises(AssertionError, match="decoder evaluated"):
            objective(model, batch, draws, cfg, hare_enabled=True)

    def test_stabilization_descends_on_frozen_batch(self):
        # Pure-stabilization training on one fixed batch: the loss of that
        # batch never increases over the first few small SGD steps.
        cfg = micro_cfg(lambda_recon=0.0, lambda_hare=1.0, lambda_diff=0.0,
                        learning_rate=1e-4, batch_size=4, n_train=4, n_val=4,
                        seed=2)
        model = build_model(cfg)
        specs, _, _ = make_split(cfg.seed + 10_000, 4, 4, 2, 16, 16)
        data = render_dataset(specs, cfg)
        batch = {k: v[:4] for k, v in data.items()}
        draws = FrozenDraws(t=np.array([3, 7, 11, 13]), eps=SeededRng(36).normal(batch["y_future"].shape))
        prev = None
        for _ in range(5):
            res = objective(model, batch, draws, cfg, hare_enabled=True)
            if prev is not None:
                assert res.hare <= prev + 1e-10
            prev = res.hare
            for name in sorted(model.params):
                model.params[name] -= cfg.learning_rate * res.grads[name]

    def test_trace_records_emitted(self):
        cfg = micro_cfg(trace_every=2, steps=5)
        r = train(cfg)
        steps = {rec.step for rec in r.trace}
        assert steps == {0, 2, 4}
        assert all(rec.batch_csi_m is None for rec in r.trace)
        assert all(rec.batch_csi_m is not None for rec in r.probe_trace)
