"""Each library entry point's input refusals: the error type and its message.

One row per refusal that no other test reaches, so each documented check
stays both reachable and worded as its callers rely on.
"""

import dataclasses

import numpy as np
import pytest

from harecast.attention import init_attention, mha_backward, mha_forward
from harecast.bounds import DistributionSpec, check_lemma2
from harecast.errors import ConfigError, DataError, ShapeError
from harecast.gradcheck import micro_train_config
from harecast.hare import hare_loss
from harecast.metrics import paired_t_test, pooled_csi, ssim
from harecast.nowcast.convnet import conv2d_forward
from harecast.nowcast.diffusion import denoiser_forward, make_schedule
from harecast.nowcast.model import encode
from harecast.nowcast.training import build_model
from harecast.synthdata import EventSpec, FrameSequence, render_radar
from harecast.tensor_core import SeededRng, softmax_rows
from harecast.trace import TraceRecord, analyze_trace

ATT_PARAMS = init_attention(8, SeededRng(0))
ATT_X = SeededRng(1).normal((2, 5, 8))
_, ATT_CACHE = mha_forward(ATT_X, ATT_PARAMS, 2)
CFG = micro_train_config(0, (1.0, 1.0, 5.0))
MULTI_CFG = dataclasses.replace(CFG, mode="multimodal")
PARAMS = build_model(CFG).params
RADAR = np.zeros((1, CFG.frames_in, CFG.height, CFG.width))
T1, COND = np.ones(1, dtype=np.int64), np.zeros((1, CFG.cond_dim))

REFUSALS = {
    "mha_backward_grad_y_shape": (
        lambda: mha_backward(ATT_PARAMS, 2, ATT_CACHE, np.zeros((2, 5, 4))),
        ShapeError, "grad_y shape (2, 5, 4) != input shape (2, 5, 8)"),
    "mha_backward_grad_o_extra_shape": (
        lambda: mha_backward(ATT_PARAMS, 2, ATT_CACHE, np.zeros_like(ATT_X), np.zeros((2, 2, 5, 3))),
        ShapeError, "grad_o_extra shape (2, 2, 5, 3) != O shape (2, 2, 5, 4)"),
    "distribution_spec_one_sample": (
        lambda: DistributionSpec(kind="gaussian", dim=2, n=1, seed=0),
        ConfigError, "sample count must be >= 2"),
    "distribution_spec_unknown_kind": (
        lambda: DistributionSpec(kind="cauchy", dim=2, n=10, seed=0),
        ConfigError, "unknown distribution kind 'cauchy'"),
    "check_lemma2_unpaired": (
        lambda: check_lemma2(np.zeros((4, 2)), np.zeros((4, 3))),
        ConfigError, "paired samples disagree: (4, 2) vs (4, 3)"),
    "hare_loss_mask_shape": (
        lambda: hare_loss(np.ones((3, 2)), np.ones(2), True),
        ShapeError, "mask shape (2,) != (3,)"),
    "pooled_csi_pool_zero": (
        lambda: pooled_csi(np.zeros((4, 4)), np.zeros((4, 4)), 16, pool=0),
        ConfigError, "pool must be >= 1, got 0"),
    "ssim_shape_mismatch": (
        lambda: ssim(np.zeros((8, 8)), np.zeros((8, 9))),
        ShapeError, "pred shape (8, 8) != truth shape (8, 9)"),
    "paired_t_test_shape_mismatch": (
        lambda: paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0]),
        ShapeError, "paired sequences disagree: (3,) vs (2,)"),
    "conv2d_forward_channels": (
        lambda: conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((3, 9)), np.zeros(3), 1),
        ShapeError, "conv weight (3, 9) incompatible with 2 input channels"),
    "make_schedule_zero_steps": (
        lambda: make_schedule(0),
        ConfigError, "schedule needs at least one step"),
    "denoiser_forward_channels": (
        lambda: denoiser_forward(np.zeros((1, CFG.frames_out + 1, 16, 16)), T1, COND, CFG, PARAMS),
        ShapeError, f"expected {CFG.frames_out} frame channels, got {CFG.frames_out + 1}"),
    "denoiser_forward_size_multiple": (
        lambda: denoiser_forward(np.zeros((1, CFG.frames_out, 18, 16)), T1, COND, CFG, PARAMS),
        ShapeError, "spatial dims (18, 16) must be divisible by 4"),
    "encode_rank": (
        lambda: encode(RADAR[0], None, CFG, PARAMS),
        ShapeError, "x_radar must be (B,T,H,W), got (2, 16, 16)"),
    "encode_shape_against_config": (
        lambda: encode(np.zeros((1, CFG.frames_in + 1, 16, 16)), None, CFG, PARAMS),
        ShapeError, "x_radar shape (3, 16, 16) != (2, 16, 16)"),
    "encode_x_sat_shape": (
        lambda: encode(RADAR, np.zeros((1, CFG.frames_in, 8, 8)), MULTI_CFG, PARAMS),
        ShapeError, "x_sat shape (1, 2, 8, 8) != x_radar shape (1, 2, 16, 16)"),
    "frame_sequence_rank": (
        lambda: FrameSequence(np.zeros((4, 4)), "radar"),
        ShapeError, "frames must be (T,H,W), got (4, 4)"),
    "render_radar_size": (
        lambda: render_radar(EventSpec(blobs=(), seed=0), 2, 0, 16),
        ConfigError, "t_len, height, width must be positive"),
    "softmax_rows_zero_dim": (
        lambda: softmax_rows(np.float64(1.0)),
        ShapeError, "softmax_rows needs at least one axis"),
    "analyze_trace_two_batch_csi": (
        lambda: analyze_trace([TraceRecord("r", 0, 0, 0, 0, 0, 1.0, 0.5),
                               TraceRecord("r", 0, 0, 0, 0, 1, 2.0, 0.7)]),
        DataError, "batch ('r', 0, 0) carries inconsistent batch_csi_m values"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
