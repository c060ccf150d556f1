"""Head-wise attention response energy and its group-wise stabilization loss.

Energy of a head on one sample is the squared Frobenius norm of the head's
response O = A V.  Heads are partitioned per batch into a single strongest
head, weakly activated heads (batch-mean energy below alpha times the
global head mean), and a contextual remainder.  The stabilization loss is a
masked one-sided (ReLU) penalty pulling each sample's group-level energy
down toward the batch-mean target of that group.  The weak and contextual
groups can be empty; an empty group has no group energy and no term in the
loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "EnergyBatch",
    "HeadPartition",
    "compute_energies",
    "partition_heads",
    "hare_loss",
    "cross_sample_variance",
    "difficulty_mask",
    "block_stabilization",
    "BlockHareResult",
]


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
        return tuple(getattr(self, name) for name in GROUP_NAMES)


# The group names, in the order of HeadPartition's fields and of groups.
GROUP_NAMES = tuple(f.name for f in fields(HeadPartition))


def compute_energies(o: np.ndarray) -> EnergyBatch:
    """Energy e[i,m] = ||O_{i,m}||_F^2 of responses o (B, M, N, d_h), plus batch/head means."""
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


def hare_loss(values: np.ndarray, mask: np.ndarray, detach_target: bool):
    """Masked one-sided deviation from the batch-mean group targets.

    values (B, G) holds each sample's group energy e_i^g, one column per
    non-empty group.  loss = (1/B) sum_i mask_i sum_g relu(e_i^g - mu_g)
    with mu_g the mean of e^g over the FULL batch (the mask never biases the
    target).  Returns (loss, grad wrt values, shape (B, G)).

    With detach_target the target is a constant in the gradient: it is a
    reference the samples move toward, not a quantity they push around.
    Otherwise (the ablation) the gradient includes the -1/B flow through
    every sample's contribution to mu_g.
    """
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
        mu = values[:, g].mean()
        dev = values[:, g] - mu
        active = (dev > 0.0).astype(np.float64)
        loss += float(np.sum(mask * np.maximum(dev, 0.0))) / bsz
        grad[:, g] = mask * active / bsz
        if not detach_target:
            grad[:, g] -= np.sum(mask * active) / bsz**2
    return loss, grad


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

    groups maps each group name to its head indices, empty groups included:
    strong/contextual/weak, or one "shared" group of all heads when grouping
    is off.  group_energies (B, G) holds the group energies of the non-empty
    groups, in groups order.
    """

    loss: float
    grad_o: np.ndarray
    energy: EnergyBatch
    groups: dict[str, tuple[int, ...]]
    group_energies: np.ndarray


def block_stabilization(
    o: np.ndarray, mask: np.ndarray, alpha: float, grouping: bool, detach_target: bool
) -> BlockHareResult:
    """Full per-block pipeline: energies -> groups -> group loss -> dL/dO.

    o holds the block's head responses (B, M, N, d_h) and mask the 0/1
    per-sample weights.  alpha in (0,1) is the weak-head threshold.  With
    grouping off, all heads form a single group with one shared target
    (the no-grouping ablation).  detach_target is as in hare_loss.

    A group's energy is the mean of its heads' energies, so head m of group
    g gets dL/dO_{i,m} = dL/de_i^g * (1/|H^g|) * 2 O_{i,m}; an empty group
    takes no part.
    """
    eb = compute_energies(o)
    if grouping:
        groups = dict(zip(GROUP_NAMES, partition_heads(eb, alpha).groups))
    else:
        groups = {"shared": tuple(range(eb.energies.shape[1]))}
    members = [list(heads) for heads in groups.values() if heads]
    values = np.zeros((o.shape[0], len(members)))
    for g, heads in enumerate(members):
        values[:, g] = eb.energies[:, heads].mean(axis=1)
    loss, grad_ge = hare_loss(values, mask, detach_target)
    grad_o = np.zeros_like(o)
    for g, heads in enumerate(members):
        coeff = grad_ge[:, g] * (1.0 / len(heads))
        for m in heads:
            grad_o[:, m] = coeff[:, None, None] * 2.0 * o[:, m]
    return BlockHareResult(loss=loss, grad_o=grad_o, energy=eb, groups=groups, group_energies=values)
