"""Toy energy-regulated nowcasting: encoder, decoders, diffusion, training."""

from .model import encode  # noqa: F401
from .diffusion import DiffusionSchedule, make_schedule, ddim_sample  # noqa: F401
from .training import TrainConfig, train, rollout  # noqa: F401
