"""Training objectives: contrastive losses, cross-entropy over cosine
logits, temperature-scaled soft labels, KL distillation, and the two
alignment constraints (logit-level and feature-level).

All losses are pure functions over tensors and safe to evaluate concurrently
on disjoint graphs. Contrastive masks are boolean end to end: row i of the
dense positive mask marks i's positives (n x n in a
:class:`ContrastiveBatchView`, n x A in :class:`~pal.batching.AnchorSets`),
each weighing ``1/count`` of its row, so no loss loops over rows; only
``_contrastive_sum`` turns a candidate mask into ``-inf``. They return a
:class:`ContrastiveResult` carrying the count of instances skipped for lack
of positives; an in-batch view always has its other augmented view as a
positive, so skips only occur for hand-built degenerate views.

Instances are summed, not averaged: callers that want a per-instance scale
divide by the batch size themselves (the trainers do).

The batch objectives the trainers call are single graph nodes: SupCon, CT
and feature alignment all build one ``_contrastive_sum`` node,
:func:`soft_cross_entropy_batch` (behind :func:`ce_loss_batch` and
:func:`logit_align_loss_batch`) builds one node, and so does
:func:`kl_loss_batch`. Their backward passes replay the arithmetic of the
composite chains they replaced (log-sum-exp; for KL, the floored log), so
the gradients are bit-identical to those chains (``tests/oracles.py``).
Each one-row loss (:func:`ce_loss`, :func:`soft_cross_entropy`,
:func:`kl_loss`, :func:`logit_align_loss`) is its batch form applied to a
1-D row.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .batching import AnchorSets, other_view_mask, same_class_mask
from .core import Tensor, as_tensor, from_op, lse_softmax, reshape, softmax_temperature
from .encoders import CosineClassifier
from .exceptions import ContractError, ParameterError, ShapeError

logger = logging.getLogger(__name__)

PROB_FLOOR = 1e-12

_floor_reported = False


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
    z: Tensor,
    keys: np.ndarray | None,
    tau: float,
    candidates: np.ndarray | None,
    pos_mask: np.ndarray,
) -> ContrastiveResult:
    """Sum over instances of ``lse(candidates) - mean(positive sims)``, one
    graph node over ``z``.

    The similarities are ``z @ z.T / tau`` when ``keys`` is None (``z`` is
    then listed as the node's parent twice, once per side of the product,
    as the composite ``matmul(z, transpose(z))`` fed it), else ``z @
    keys.T / tau`` against constant (m, d) keys. Both masks are boolean
    (n, m): ``candidates`` marks the columns in row i's denominator (None:
    all but the row's own), ``pos_mask`` its positives; only this node turns
    a mask into ``-inf``. Rows with no positives are skipped and counted:
    they weigh 0 in both terms, and every column is their candidate, so no
    log-sum-exp over an empty row is taken.
    """
    pos_weights = pos_mask.astype(np.float64)
    counts = pos_weights.sum(axis=1)
    has_pos = counts > 0
    skipped = int(np.count_nonzero(~has_pos))
    if skipped:
        logger.warning("contrastive loss: skipped %d instance(s) with no positives", skipped)
    if not has_pos.any():
        return ContrastiveResult(Tensor(0.0), skipped)

    alpha = float(1.0 / tau)
    zd = z.data
    sims = zd @ (zd.T if keys is None else keys.T)
    sims *= alpha
    pos_weights *= (1.0 / np.maximum(counts, 1))[:, None]
    if candidates is None:
        candidates = ~np.eye(*sims.shape, dtype=bool)
    if skipped:
        live = has_pos.astype(np.float64)
        candidates = candidates | ~has_pos[:, None]
    denom, probs = lse_softmax(np.where(candidates, sims, -np.inf), axis=-1)
    if skipped:
        denom = denom * live
    value = denom.sum() - (sims * pos_weights).sum()

    def vjp(g: np.ndarray):
        # The softmax term (per row, zeroed on skipped rows), then the
        # positive-weight term, scaled by 1/tau, then through the product.
        d_sims = (g * live)[:, None] * probs if skipped else g * probs
        d_sims += -g * pos_weights
        d_sims *= alpha
        if keys is None:
            return d_sims @ zd, (zd.T @ d_sims).T
        return (d_sims @ keys,)

    parents = (z, z) if keys is None else (z,)
    return ContrastiveResult(from_op(value, parents, vjp, "contrastive"), skipped)


def supct_loss(view: ContrastiveBatchView) -> ContrastiveResult:
    """Supervised contrastive loss over an augmented batch.

    Per instance i: ``-1/|P(i)| * sum_{j in P(i)} log softmax_j`` where the
    softmax runs over every other instance at temperature tau, summed over
    the batch. Computed through log-sum-exp, never through raw exponentials.
    """
    return _contrastive_sum(view.features, None, view.tau, None, view.pos_mask)


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
    if isinstance(p_target, SoftLabel):
        p_target = p_target.probs
    return soft_cross_entropy_batch(p_target, logits)


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
    """Sum of per-row soft cross-entropies; targets are constants (a 1-D
    row is one cross-entropy).

    One graph node, ``sum(lse(logits)) - sum(logits * p_targets)``. It lists
    ``logits`` as its parent twice and returns the log-sum-exp term's
    gradient first, then the target term's, so the contributions accumulate
    in the order the two-term composite fed them.
    """
    p_targets = np.asarray(p_targets, dtype=np.float64)
    logits = as_tensor(logits)
    if p_targets.shape != tuple(logits.shape):
        raise ShapeError(
            f"soft_cross_entropy: target shape {p_targets.shape} vs logits shape "
            f"{tuple(logits.shape)}"
        )
    lse, probs = lse_softmax(logits.data, axis=-1)
    value = lse.sum() - (logits.data * p_targets).sum()

    def vjp(g: np.ndarray):
        return g * probs, -g * p_targets

    return from_op(value, (logits, logits), vjp, "soft_cross_entropy")


def kl_loss(p_t, p_s) -> Tensor:
    """``KL(p_t || p_s)`` for one row, either side a :class:`SoftLabel` or
    a probability vector; see :func:`kl_loss_batch`."""
    p_t, p_s = (p.probs if isinstance(p, SoftLabel) else p for p in (p_t, p_s))
    return kl_loss_batch(p_t, p_s)


def kl_loss_batch(p_t: np.ndarray, p_s: Tensor) -> Tensor:
    """Sum of per-row ``KL(p_t || p_s)`` for (n, C) inputs (or one 1-D
    row), with the teacher treated as a constant.

    Decomposes exactly as ``-H(p_t) + H(p_t, p_s)``. Student probabilities
    are floored at 1e-12 before the log; flooring where the teacher has mass
    is reported through the module logger, loudly the first time and at
    debug level after that (every step of a KL-aligned run can floor a few
    tail probabilities). One graph node over ``p_s``; a floored entry gets
    no gradient. It replays the float operations of the composite
    ``clamp_min``/``log``/``mul``/``sum``/``scale``/``add`` chain, forward
    and backward (``tests/oracles.py``).
    """
    global _floor_reported
    p_t = np.asarray(p_t, dtype=np.float64)
    p_s = as_tensor(p_s)
    p_s_data = p_s.data
    if p_t.shape != p_s_data.shape:
        raise ShapeError(f"kl_loss: teacher shape {p_t.shape} vs student shape {p_s_data.shape}")
    floored = int(np.count_nonzero((p_s_data < PROB_FLOOR) & (p_t > 0)))
    if floored:
        level = logging.DEBUG if _floor_reported else logging.WARNING
        logger.log(level, "kl_loss: floored %d student probabilit(ies) at %g", floored, PROB_FLOOR)
        _floor_reported = True
    neg_entropy_t = float(np.sum(np.where(p_t > 0, p_t * np.log(np.where(p_t > 0, p_t, 1.0)), 0.0)))
    clamped = np.maximum(p_s_data, PROB_FLOOR)
    value = (np.log(clamped) * p_t).sum() * -1.0 + neg_entropy_t

    def vjp(g: np.ndarray):
        grad = np.broadcast_to(g * -1.0, clamped.shape).copy() * p_t / clamped
        return (grad * (p_s_data >= PROB_FLOOR),)

    return from_op(value, (p_s,), vjp, "kl")


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
    return logit_align_loss_batch(clf, z_partner, logits_main, tau)


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
    keys = np.asarray(anchors.features, dtype=np.float64)
    return _contrastive_sum(z, keys, tau, anchors.pos_mask | anchors.neg_mask, anchors.pos_mask)
