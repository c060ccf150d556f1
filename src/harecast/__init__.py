"""Head-wise attention response energy toolkit.

Per-head energy statistics of attention blocks, the group-wise
stabilization loss, Monte-Carlo verification of the variance-propagation
bounds that motivate it, forecast-verification metrics, and a toy
diffusion-based nowcaster demonstrating the mechanism end to end.
"""

from .attention import LinearHead  # noqa: F401
from .hare import EnergyBatch, HeadPartition  # noqa: F401
from .tensor_core import SeededRng  # noqa: F401

__version__ = "0.1.0"
