"""Augmented-batch construction, positive masks and soft-anchor sampling.

A training batch holds the two independently augmented views of B raw items
stacked as 2B rows, with labels duplicated and the i <-> i+-B view pairing
kept explicit. Anchor pools are the frozen partner's embeddings of the
current batch (co-batch anchors), which keeps them fresh and gradient-free
by construction.

Positives and anchors are stored as dense boolean masks, one row per batch
instance. :func:`same_class_mask` is the single definition of a positive
(same label, not the row itself); :func:`other_view_mask` is the
unsupervised rule. Per-instance index arrays are derived from a mask with
:func:`mask_rows` where a caller wants them.

All sampling is driven by caller-provided generators; batch building and
anchor sampling are deterministic per generator state, so parallel prefetch
just needs per-batch streams split from the run seed. Uncapped anchor
sampling (the default) draws nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ContractError, ParameterError, ShapeError

if TYPE_CHECKING:
    from .encoders import Encoder


@dataclass(frozen=True)
class AugmentConfig:
    noise_sigma: float = 0.0
    mask_prob: float = 0.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ParameterError(f"mask_prob must be in [0, 1), got {self.mask_prob}")


def augment(x: np.ndarray, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    """Additive gaussian noise, then independent coordinate masking.

    Both draws always happen, so the generator stream position does not
    depend on the config values (sigma=0, mask_prob=0 is the identity).
    """
    x = np.asarray(x, dtype=np.float64)
    noisy = rng.standard_normal(x.shape)
    noisy *= cfg.noise_sigma
    noisy += x
    noisy *= rng.random(x.shape) >= cfg.mask_prob
    return noisy


@dataclass
class AugmentedBatch:
    """2B-sample batch: ``inputs = concat(Aug(raw), Aug(raw))``."""

    inputs: np.ndarray  # (2B, dim)
    labels: np.ndarray  # (2B,)

    @property
    def b(self) -> int:
        return len(self.labels) // 2

    @property
    def size(self) -> int:
        return 2 * self.b

    @property
    def view_map(self) -> np.ndarray:
        """``view_map[i]`` is the index of i's other augmented view."""
        b = self.b
        return np.concatenate([np.arange(b) + b, np.arange(b)])


def build_batch(
    raw_inputs: np.ndarray,
    raw_labels: np.ndarray,
    rng: np.random.Generator,
    cfg: AugmentConfig,
) -> AugmentedBatch:
    raw_inputs = np.asarray(raw_inputs, dtype=np.float64)
    raw_labels = np.asarray(raw_labels)
    if raw_inputs.ndim != 2 or len(raw_inputs) == 0:
        raise ParameterError(f"raw batch must be a nonempty matrix, got shape {raw_inputs.shape}")
    if len(raw_labels) != len(raw_inputs):
        raise ParameterError(
            f"got {len(raw_labels)} labels for {len(raw_inputs)} items"
        )
    first = augment(raw_inputs, rng, cfg)
    second = augment(raw_inputs, rng, cfg)
    return AugmentedBatch(
        inputs=np.concatenate([first, second], axis=0),
        labels=np.concatenate([raw_labels, raw_labels]),
    )


def same_class_mask(labels) -> np.ndarray:
    """``mask[i, j]`` is True when rows i and j share a label and ``i != j``.

    This is the package's one definition of a positive: row i's positives are
    the True entries of row i, its other augmented view among them.
    """
    labels = np.asarray(labels)
    mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(mask, False)
    return mask


def other_view_mask(n: int) -> np.ndarray:
    """``mask[i, j]`` is True when j is i's other augmented view in an n-row
    batch: ``j = i + n/2`` in the first half, ``i - n/2`` in the second."""
    if n % 2 != 0:
        raise ShapeError(f"an augmented batch has an even row count, got {n}")
    b = n // 2
    return np.eye(n, k=b, dtype=bool) | np.eye(n, k=-b, dtype=bool)


def mask_rows(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ascending column indices of each row's True entries."""
    if len(mask) == 0:
        return ()
    cols = np.nonzero(mask)[1]
    return tuple(np.split(cols, np.cumsum(np.count_nonzero(mask, axis=1))[:-1]))


@dataclass
class AnchorSets:
    """Per-instance positive/negative anchors from the frozen partner.

    ``features`` rows are constants (never part of a graph). Row i of the
    boolean (n, A) ``pos_mask``/``neg_mask`` marks the anchors that are
    positives/negatives of main-batch instance i.
    """

    features: np.ndarray  # (A, d) unit rows
    anchor_labels: np.ndarray  # (A,)
    instance_labels: np.ndarray  # (n,)
    pos_mask: np.ndarray  # (n, A) bool
    neg_mask: np.ndarray  # (n, A) bool

    def __post_init__(self):
        shape = (len(self.instance_labels), len(self.features))
        for name in ("pos_mask", "neg_mask"):
            mask = getattr(self, name)
            if not isinstance(mask, np.ndarray) or mask.dtype != bool or mask.shape != shape:
                raise ShapeError(f"{name} must be a boolean array of shape {shape}")

    @classmethod
    def from_indices(
        cls, features, anchor_labels, instance_labels, pos_indices, neg_indices
    ) -> "AnchorSets":
        """Build from one index array per instance into the rows of
        ``features``; every index must lie in ``[0, A)``."""
        features = np.asarray(features, dtype=np.float64)
        instance_labels = np.asarray(instance_labels)
        n, a = len(instance_labels), len(features)
        masks = []
        for name, sets in (("pos_indices", pos_indices), ("neg_indices", neg_indices)):
            if len(sets) != n:
                raise ShapeError(f"{name}: got {len(sets)} sets for {n} instances")
            mask = np.zeros((n, a), dtype=bool)
            for i, idx in enumerate(sets):
                idx = np.asarray(idx, dtype=np.intp)
                if np.any((idx < 0) | (idx >= a)):
                    raise ShapeError(f"{name}[{i}]: anchor index outside [0, {a}): {idx.tolist()}")
                mask[i, idx] = True
            masks.append(mask)
        return cls(features, np.asarray(anchor_labels), instance_labels, *masks)

    @property
    def pos_indices(self) -> tuple[np.ndarray, ...]:
        return mask_rows(self.pos_mask)

    @property
    def neg_indices(self) -> tuple[np.ndarray, ...]:
        return mask_rows(self.neg_mask)


def sample_anchor_sets(
    partner: "Encoder",
    batch: AugmentedBatch,
    rng: np.random.Generator,
    n_pos: int | None = None,
    n_neg: int | None = None,
) -> AnchorSets:
    """Sample per-instance anchors from the partner's co-batch embeddings.

    ``None`` means "all available" (the default, mirroring the contrastive
    denominator structure); integers must be >= 1 and are capped at what the
    batch can provide. Positives exclude the instance itself but include its
    other view. With both counts ``None`` the anchors are the whole masked
    co-batch and nothing is drawn from ``rng``.
    """
    if not partner.frozen:
        raise ContractError("anchor sampling requires a frozen partner encoder")
    if n_pos is not None and n_pos < 1:
        raise ParameterError(f"n_pos must be >= 1 or None, got {n_pos}")
    if n_neg is not None and n_neg < 1:
        raise ParameterError(f"n_neg must be >= 1 or None, got {n_neg}")

    features = partner.encode(batch.inputs)
    labels = batch.labels
    pos_mask = same_class_mask(labels)
    neg_mask = ~pos_mask
    np.fill_diagonal(neg_mask, False)
    if n_pos is not None or n_neg is not None:
        pos_mask, neg_mask = _draw_capped(pos_mask, neg_mask, rng, n_pos, n_neg)
    return AnchorSets(features, labels.copy(), labels.copy(), pos_mask, neg_mask)


def _draw_capped(pos_mask, neg_mask, rng, n_pos, n_neg):
    """Keep at most ``n_pos``/``n_neg`` of each row's candidates, drawn
    uniformly without replacement. Rows are drawn in order, positives before
    negatives, which fixes the generator stream of capped runs."""
    kept = (np.zeros_like(pos_mask), np.zeros_like(neg_mask))
    for i in range(len(pos_mask)):
        for cand_mask, cap, out in zip((pos_mask, neg_mask), (n_pos, n_neg), kept):
            cand = np.flatnonzero(cand_mask[i])
            take = len(cand) if cap is None else min(cap, len(cand))
            if take:
                out[i, rng.choice(cand, size=take, replace=False)] = True
    return kept
