"""Training objectives: contrastive losses, cross-entropy over cosine
logits, temperature-scaled soft labels, KL distillation, and the two
alignment constraints (logit-level and feature-level).

All losses are pure functions over tensors and safe to evaluate concurrently
on disjoint graphs. Contrastive-style losses take their positives as a dense
boolean mask (row i marks i's positives: a :class:`ContrastiveBatchView`
holds an (n, n) one, :class:`~pal.batching.AnchorSets` an (n, A) one) and
weight each positive similarity by ``1/count`` of its row, so no loss loops
over rows. They return a :class:`ContrastiveResult` carrying the count of
instances skipped for lack of positives; an in-batch view always has at
least its other augmented view as a positive, so skips only occur for
hand-built degenerate views.

Instances are summed, not averaged: callers that want a per-instance scale
divide by the batch size themselves (the trainers do).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .batching import AnchorSets, other_view_mask, same_class_mask
from .core import (
    Tensor,
    as_tensor,
    clamp_min,
    dot,
    log,
    log_sum_exp,
    matmul,
    reduce_sum,
    reshape,
    scale,
    softmax_temperature,
    transpose,
)
from .encoders import CosineClassifier
from .exceptions import ContractError, ParameterError, ShapeError

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

_floor_reported = False


def _report_floor(count: int) -> None:
    # First trigger is loud; repeats (every step of a KL-aligned run can
    # floor a few tail probabilities) drop to debug.
    global _floor_reported
    level = logging.DEBUG if _floor_reported else logging.WARNING
    logger.log(level, "kl_loss: floored %d student probabilit(ies) at %g", count, PROB_FLOOR)
    _floor_reported = True


@dataclass(frozen=True)
class SoftLabel:
    """Probability vector over base classes with its producing side."""

    probs: np.ndarray
    source: str = "partner"

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if self.source not in ("partner", "main"):
            raise ParameterError(f"soft-label source must be partner|main, got {self.source!r}")
        if probs.ndim != 1 or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ParameterError("soft label must be a 1-D probability vector summing to 1")


@dataclass
class ContrastiveBatchView:
    """2B unit embeddings with labels, the positive mask, and the
    contrastive temperature."""

    features: Tensor  # (n, d), unit rows
    labels: np.ndarray  # (n,)
    pos_mask: np.ndarray  # (n, n) bool, row i marks i's positives
    tau: float
    mode: str = "supervised"

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        n = self.features.shape[0]
        mask = self.pos_mask
        if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != (n, n):
            raise ShapeError(f"pos_mask must be a boolean array of shape {(n, n)} for {n} features")

    @classmethod
    def supervised(cls, features, labels, tau: float) -> "ContrastiveBatchView":
        """Positives are the other rows with the same label."""
        labels = np.asarray(labels)
        return cls(as_tensor(features), labels, same_class_mask(labels), tau, mode="supervised")

    @classmethod
    def unsupervised(cls, features, labels, tau: float) -> "ContrastiveBatchView":
        """Positive set is the other augmented view: i+B for i < B, i-B after."""
        features = as_tensor(features)
        mask = other_view_mask(features.shape[0])
        return cls(features, np.asarray(labels), mask, tau, mode="unsupervised")


class ContrastiveResult(NamedTuple):
    loss: Tensor
    skipped: int


def _contrastive_sum(
    sims: Tensor,
    candidate_mask: np.ndarray,
    pos_mask: np.ndarray,
) -> ContrastiveResult:
    """Sum over instances of ``lse(candidates) - mean(positive sims)``.

    ``sims`` is the (n, m) similarity matrix already divided by tau;
    ``candidate_mask`` is additive (0 where a column participates in the
    denominator of row i, -inf elsewhere); ``pos_mask`` is the boolean (n, m)
    positive mask. Rows with no positives are skipped and counted: they
    weigh 0 in both terms, and their candidate row is made finite so that
    no log-sum-exp over an empty row enters the graph.
    """
    counts = np.count_nonzero(pos_mask, axis=1)
    has_pos = counts > 0
    skipped = int(np.count_nonzero(~has_pos))
    if skipped:
        logger.warning("contrastive loss: skipped %d instance(s) with no positives", skipped)
    if not has_pos.any():
        return ContrastiveResult(Tensor(0.0), skipped)

    pos_weights = pos_mask / np.maximum(counts, 1)[:, None]
    denom = log_sum_exp(sims + np.where(has_pos[:, None], candidate_mask, 0.0), axis=-1)
    if skipped:
        denom = denom * has_pos
    numer = reduce_sum(sims * pos_weights)
    return ContrastiveResult(reduce_sum(denom) - numer, skipped)


def supct_loss(view: ContrastiveBatchView) -> ContrastiveResult:
    """Supervised contrastive loss over an augmented batch.

    Per instance i: ``-1/|P(i)| * sum_{j in P(i)} log softmax_j`` where the
    softmax runs over every other instance at temperature tau, summed over
    the batch. Computed through log-sum-exp, never through raw exponentials.
    """
    z = view.features
    n = z.shape[0]
    sims = scale(matmul(z, transpose(z)), 1.0 / view.tau)
    self_mask = np.zeros((n, n))
    np.fill_diagonal(self_mask, -np.inf)
    return _contrastive_sum(sims, self_mask, view.pos_mask)


def ct_loss(view: ContrastiveBatchView) -> ContrastiveResult:
    """Unsupervised variant: identical formula with the other view as the
    single positive."""
    if view.mode != "unsupervised":
        raise ContractError("ct_loss requires a view built with the unsupervised index rule")
    return supct_loss(view)


def ce_loss(logits: Tensor, label: int) -> Tensor:
    """``-log softmax(logits)[label]`` via log-sum-exp."""
    logits = as_tensor(logits)
    n = logits.shape[-1]
    if not 0 <= label < n:
        raise IndexError(f"label {label} out of range for {n} classes")
    one_hot = np.zeros(n)
    one_hot[label] = 1.0
    return soft_cross_entropy(one_hot, logits)


def soft_cross_entropy(p_target, logits: Tensor) -> Tensor:
    """``H(p_target, softmax(logits))``; the target is a constant, so the
    gradient reaches only the logits."""
    probs = p_target.probs if isinstance(p_target, SoftLabel) else np.asarray(p_target, dtype=np.float64)
    logits = as_tensor(logits)
    if probs.shape != logits.shape:
        raise ShapeError(
            f"soft_cross_entropy: target shape {probs.shape} vs logits shape {logits.shape}"
        )
    return log_sum_exp(logits) - dot(probs, logits)


def ce_loss_batch(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Sum of per-row cross-entropies for a (n, C) logit matrix."""
    logits = as_tensor(logits)
    n, c = logits.shape
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= c):
        bad = int(labels[(labels < 0) | (labels >= c)][0])
        raise IndexError(f"label {bad} out of range for {c} classes")
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), labels] = 1.0
    return soft_cross_entropy_batch(one_hot, logits)


def soft_cross_entropy_batch(p_targets: np.ndarray, logits: Tensor) -> Tensor:
    """Sum of per-row soft cross-entropies; targets are constants."""
    p_targets = np.asarray(p_targets, dtype=np.float64)
    logits = as_tensor(logits)
    if p_targets.shape != tuple(logits.shape):
        raise ShapeError(
            f"soft_cross_entropy: target shape {p_targets.shape} vs logits shape "
            f"{tuple(logits.shape)}"
        )
    return reduce_sum(log_sum_exp(logits, axis=-1)) - reduce_sum(logits * p_targets)


def kl_loss(p_t, p_s) -> Tensor:
    """``KL(p_t || p_s)`` with the teacher treated as a constant.

    Decomposes exactly as ``-H(p_t) + H(p_t, p_s)``. Student probabilities
    are floored at 1e-12 before the log; flooring where the teacher has mass
    is reported through the module logger.
    """
    p_t = p_t.probs if isinstance(p_t, SoftLabel) else np.asarray(p_t, dtype=np.float64)
    if isinstance(p_s, SoftLabel):
        p_s = p_s.probs
    p_s_data = p_s.data if isinstance(p_s, Tensor) else np.asarray(p_s, dtype=np.float64)
    floored = int(np.count_nonzero((p_s_data < PROB_FLOOR) & (p_t > 0)))
    if floored:
        _report_floor(floored)
    neg_entropy_t = float(np.sum(np.where(p_t > 0, p_t * np.log(np.where(p_t > 0, p_t, 1.0)), 0.0)))
    cross = scale(dot(p_t, log(clamp_min(as_tensor(p_s), PROB_FLOOR))), -1.0)
    return cross + neg_entropy_t


def kl_loss_batch(p_t: np.ndarray, p_s: Tensor) -> Tensor:
    """Sum of per-row ``KL(p_t || p_s)`` for (n, C) inputs."""
    p_t = np.asarray(p_t, dtype=np.float64)
    p_s_data = p_s.data if isinstance(p_s, Tensor) else np.asarray(p_s, dtype=np.float64)
    floored = int(np.count_nonzero((p_s_data < PROB_FLOOR) & (p_t > 0)))
    if floored:
        _report_floor(floored)
    neg_entropy_t = float(np.sum(np.where(p_t > 0, p_t * np.log(np.where(p_t > 0, p_t, 1.0)), 0.0)))
    cross = scale(reduce_sum(log(clamp_min(as_tensor(p_s), PROB_FLOOR)) * p_t), -1.0)
    return cross + neg_entropy_t


def logit_align_loss(
    clf: CosineClassifier,
    z_partner: np.ndarray,
    logits_main: Tensor,
    tau: float,
    x_class: int | None = None,
    x_prime_class: int | None = None,
) -> Tensor:
    """Cross-entropy between the partner's temperature-softened soft label
    (through the shared classifier) and the main prediction.

    The target is computed outside the graph, so neither the classifier nor
    anything upstream of ``z_partner`` receives gradient through it; only
    ``logits_main`` is trained. No teacher-entropy term is added.
    """
    if x_class is not None and x_prime_class is not None and x_class != x_prime_class:
        raise ContractError(
            f"logit alignment pairs same-class inputs, got classes "
            f"{x_prime_class} (partner) vs {x_class} (main)"
        )
    z_partner = np.asarray(z_partner, dtype=np.float64)
    target = softmax_temperature(clf.logits(z_partner), tau)
    return soft_cross_entropy(target, logits_main)


def logit_align_loss_batch(
    clf: CosineClassifier, z_partner: np.ndarray, logits_main: Tensor, tau: float
) -> Tensor:
    """Batched logit alignment; row i of ``z_partner`` is the partner view
    paired with row i of ``logits_main``."""
    targets = softmax_temperature(clf.logits(np.asarray(z_partner, dtype=np.float64)), tau)
    return soft_cross_entropy_batch(targets, logits_main)


def feat_align_loss(z_main, anchors: AnchorSets, tau: float) -> ContrastiveResult:
    """Feature-level alignment of main embeddings to partner soft-anchors.

    Per instance i: ``-1/|pos(i)| * sum_{j in pos(i)} log softmax_j`` where
    the softmax runs over i's sampled positive and negative anchors at
    temperature tau, summed over the batch. Anchors are constants; instances
    with no positive anchors are skipped and counted.
    """
    if tau <= 0:
        raise ParameterError(f"tau must be positive, got {tau}")
    z = as_tensor(z_main)
    if z.ndim == 1:
        z = reshape(z, (1, z.shape[0]))
    n = z.shape[0]
    if n != len(anchors.pos_mask):
        raise ShapeError(
            f"feat_align_loss: {n} embeddings vs {len(anchors.pos_mask)} anchor sets"
        )
    sims = scale(matmul(z, anchors.features.T), 1.0 / tau)
    mask = np.where(anchors.pos_mask | anchors.neg_mask, 0.0, -np.inf)
    return _contrastive_sum(sims, mask, anchors.pos_mask)
