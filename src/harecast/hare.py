"""Head-wise attention response energy and its group-wise stabilization loss.

Energy of a head on one sample is the squared Frobenius norm of the head's
response O = A V.  Heads are partitioned per batch into a single strongest
head, weakly activated heads (batch-mean energy below alpha times the
global head mean), and a contextual remainder.  The stabilization loss is a
masked one-sided (ReLU) penalty pulling each sample's group-level energy
down toward the batch-mean target of that group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import HeadActivations
from .errors import ConfigError, ShapeError

__all__ = [
    "HareConfig",
    "EnergyBatch",
    "HeadPartition",
    "GroupEnergies",
    "compute_energies",
    "partition_heads",
    "group_energies",
    "hare_loss",
    "hare_grad_to_O",
    "cross_sample_variance",
    "difficulty_mask",
    "block_stabilization",
    "BlockHareResult",
]

GROUP_NAMES = ("strong", "contextual", "weak")


@dataclass(frozen=True)
class HareConfig:
    """Knobs of the stabilization loss.

    alpha is the weak-head threshold in (0,1).  detach_target keeps the
    batch-mean target out of the gradient (the target is a reference the
    samples move toward, not a quantity they push around); the non-detached
    variant exists for ablation.  grouping=False collapses all heads into a
    single group with one shared target.
    """

    alpha: float = 0.75
    detach_target: bool = True
    grouping: bool = True
    mask_strategy: str = "all_ones"
    mask_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if self.mask_strategy not in ("all_ones", "top_fraction_by_sample_loss"):
            raise ConfigError(f"unknown mask strategy {self.mask_strategy!r}")
        if not (0.0 < self.mask_fraction <= 1.0):
            raise ConfigError(f"mask_fraction must be in (0,1], got {self.mask_fraction}")


@dataclass
class EnergyBatch:
    """Per-sample per-head energies with their batch statistics.

    energies: (B, M) nonnegative; head_means: (M,) batch mean per head;
    mean_energy: scalar mean of head_means.
    """

    energies: np.ndarray
    head_means: np.ndarray
    mean_energy: float


@dataclass(frozen=True)
class HeadPartition:
    """Disjoint, exhaustive split of head indices for one block and batch."""

    strong: tuple[int, ...]
    contextual: tuple[int, ...]
    weak: tuple[int, ...]

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return (self.strong, self.contextual, self.weak)


@dataclass
class GroupEnergies:
    """Per-sample mean energy per group; empty groups are flagged absent.

    values: (B, G) in group order; columns of absent groups are 0 but must
    never be read (present[g] is False and the loss skips them).
    """

    values: np.ndarray
    present: np.ndarray


def compute_energies(acts: HeadActivations) -> EnergyBatch:
    """Energy e[i,m] = ||O_{i,m}||_F^2 plus batch/head means."""
    o = acts.o
    e = np.sum(o * o, axis=(2, 3))
    head_means = e.mean(axis=0)
    return EnergyBatch(energies=e, head_means=head_means, mean_energy=float(head_means.mean()))


def partition_heads(eb: EnergyBatch, alpha: float) -> HeadPartition:
    """Strongest head / weak heads below alpha * global mean / remainder.

    Argmax ties break to the lowest head index.  The strong head can never
    satisfy the strict weak inequality (max >= mean > alpha * mean for
    nonnegative energies and alpha < 1), so the groups are disjoint.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    hm = eb.head_means
    strong = int(np.argmax(hm))
    weak = tuple(m for m in range(hm.size) if hm[m] < alpha * eb.mean_energy)
    contextual = tuple(
        m for m in range(hm.size) if m != strong and m not in weak
    )
    return HeadPartition(strong=(strong,), contextual=contextual, weak=weak)


def group_energies(eb: EnergyBatch, groups: tuple[tuple[int, ...], ...]) -> GroupEnergies:
    """Per-sample mean energy of each group of head indices; empty groups flagged absent."""
    bsz, nheads = eb.energies.shape
    values = np.zeros((bsz, len(groups)))
    present = np.zeros(len(groups), dtype=bool)
    for g, members in enumerate(groups):
        if any(m < 0 or m >= nheads for m in members):
            raise ShapeError(f"group {g} references invalid heads {members}")
        if members:
            present[g] = True
            values[:, g] = eb.energies[:, list(members)].mean(axis=1)
    return GroupEnergies(values=values, present=present)


def hare_loss(ge: GroupEnergies, mask: np.ndarray, cfg: HareConfig):
    """Masked one-sided deviation from the batch-mean group targets.

    loss = (1/B) sum_i mask_i sum_g relu(e_i^g - mu_g) with mu_g the mean
    of e^g over the FULL batch (the mask never biases the target).  Returns
    (loss, grad wrt the group energies, shape (B, G)).  With
    detach_target the target is a constant in the gradient; otherwise the
    gradient includes the -1/B flow through every sample's contribution to
    mu_g.  Absent groups contribute nothing.
    """
    values = ge.values
    bsz = values.shape[0]
    if bsz < 2:
        raise ConfigError("batch statistics need at least 2 samples")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (bsz,):
        raise ShapeError(f"mask shape {mask.shape} != ({bsz},)")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ConfigError("mask entries must be 0 or 1")

    loss = 0.0
    grad = np.zeros_like(values)
    for g in range(values.shape[1]):
        if not ge.present[g]:
            continue
        mu = values[:, g].mean()
        dev = values[:, g] - mu
        active = (dev > 0.0).astype(np.float64)
        loss += float(np.sum(mask * np.maximum(dev, 0.0))) / bsz
        grad[:, g] = mask * active / bsz
        if not cfg.detach_target:
            grad[:, g] -= np.sum(mask * active) / bsz**2
    return loss, grad


def hare_grad_to_O(
    grad_ge: np.ndarray, groups: tuple[tuple[int, ...], ...], acts: HeadActivations
) -> np.ndarray:
    """Chain the group-energy gradient back to the head responses.

    dL/dO_{i,m} = grad_ge[i, g(m)] * (1/|H^g|) * 2 O_{i,m} for the unique
    group g(m) containing head m.
    """
    o = acts.o
    if grad_ge.shape != (o.shape[0], len(groups)):
        raise ShapeError(
            f"grad_ge shape {grad_ge.shape} != ({o.shape[0]}, {len(groups)})"
        )
    grad_o = np.zeros_like(o)
    for g, members in enumerate(groups):
        if not members:
            continue
        coeff = grad_ge[:, g] * (1.0 / len(members))
        for m in members:
            grad_o[:, m] = coeff[:, None, None] * 2.0 * o[:, m]
    return grad_o


def cross_sample_variance(eb: EnergyBatch) -> np.ndarray:
    """Unbiased (n-1) per-head variance of energy across the batch."""
    if eb.energies.shape[0] < 2:
        raise ConfigError("cross-sample variance needs at least 2 samples")
    return eb.energies.var(axis=0, ddof=1)


def difficulty_mask(per_sample_loss: np.ndarray, fraction: float) -> np.ndarray:
    """1 for the ceil(fraction * B) samples with the highest loss, else 0.

    Ties resolve toward the lower sample index (stable order).
    """
    loss = np.asarray(per_sample_loss, dtype=np.float64)
    bsz = loss.shape[0]
    keep = max(1, int(np.ceil(fraction * bsz)))
    order = sorted(range(bsz), key=lambda i: (-loss[i], i))
    mask = np.zeros(bsz)
    mask[order[:keep]] = 1.0
    return mask


@dataclass
class BlockHareResult:
    """Stabilization outcome of one attention block.

    groups maps each group name to its head indices, in the column order
    of group.values: strong/contextual/weak, or one "shared" group of all
    heads when grouping is off.
    """

    loss: float
    grad_o: np.ndarray
    energy: EnergyBatch
    groups: dict[str, tuple[int, ...]]
    group: GroupEnergies


def block_stabilization(acts: HeadActivations, mask: np.ndarray, cfg: HareConfig) -> BlockHareResult:
    """Full per-block pipeline: energies -> groups -> group loss -> dL/dO.

    With grouping disabled, all heads form a single group with one shared
    target (the no-grouping ablation).
    """
    eb = compute_energies(acts)
    if cfg.grouping:
        groups = dict(zip(GROUP_NAMES, partition_heads(eb, cfg.alpha).groups))
    else:
        groups = {"shared": tuple(range(eb.energies.shape[1]))}
    members = tuple(groups.values())
    ge = group_energies(eb, members)
    loss, grad_ge = hare_loss(ge, mask, cfg)
    grad_o = hare_grad_to_O(grad_ge, members, acts)
    return BlockHareResult(loss=loss, grad_o=grad_o, energy=eb, groups=groups, group=ge)
