"""Long-double references for the training losses at the temperatures in use.

Each reference computes its loss in ``np.longdouble`` (x87 extended precision
on x86-64: eps 1.1e-19), in log space (a max-shifted log-sum-exp, with the
softmax taken as ``exp(x - lse)``), and its gradient in closed form: the
softmax minus the target, never a finite difference. They share no code
with ``pal.losses``.

Every loss is checked at tau in {0.05, 0.5, 1} on two kinds of input:

- ``desk``: the shapes training uses at desk scale, 2B = 128 unit embeddings
  of width 32 (cosine logits over 32 classes), so the similarities span
  +-1/tau and the logits +-10/tau;
- ``saturated``: hand-made rows whose effective logits (similarities, or
  partner logits, divided by tau; the class logits themselves for CE and
  soft CE) are +-200 or 0, where a float64 softmax has entries far below
  eps.

The value must match to ``VALUE_RTOL`` relative, and each gradient entry to
``GRAD_RTOL`` relative, or to ``GRAD_ATOL`` absolute where the reference
entry is below ``GRAD_TINY`` in magnitude (such entries are differences of
O(1) softmax terms, so float64 keeps only their absolute error small).
The KL term has no case here yet: its student floor (``PROB_FLOOR``) drops
the gradient of saturated entries.
"""
from __future__ import annotations

import numpy as np
import pytest

from pal.batching import AnchorSets
from pal.core import Tensor, backward
from pal.encoders import CosineClassifier
from pal.losses import (
    ContrastiveBatchView,
    ce_loss_batch,
    ct_loss,
    feat_align_loss,
    logit_align_loss_batch,
    soft_cross_entropy_batch,
    supct_loss,
)

LD = np.longdouble
pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps > 1e-18, reason="np.longdouble is no wider than float64 on this platform"
)

TAUS = (0.05, 0.5, 1.0)
KINDS = ("desk", "saturated")
VALUE_RTOL = 1e-12
GRAD_RTOL = 1e-9
GRAD_TINY = 1e-12
GRAD_ATOL = 1e-12
N, D, C = 128, 32, 32  # 2B rows, embedding width, classes
SAT = 200.0


# --- references ---------------------------------------------------------------

def lse_softmax_ref(x, mask=None):
    """Row-wise log-sum-exp and softmax of long-double ``x`` over ``mask``."""
    if mask is not None:
        x = np.where(mask, x, LD(-np.inf))
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    return lse[..., 0], np.exp(x - lse)


def contrastive_ref(z, keys, tau, candidates, pos):
    """``sum_i lse_{candidates(i)}(s_i) - mean_{pos(i)} s_i`` with ``s = z @
    keys.T / tau`` (``keys`` None: ``z`` itself, own column excluded), and its
    gradient in ``z``: ``(softmax - w) / tau`` back through the product."""
    z = np.asarray(z, dtype=LD)
    k = z if keys is None else np.asarray(keys, dtype=LD)
    tau = LD(tau)
    sims = (z @ k.T) / tau
    if candidates is None:
        candidates = ~np.eye(len(z), dtype=bool)
    w = pos / pos.sum(axis=1, keepdims=True).astype(LD)
    lse, p = lse_softmax_ref(sims, candidates)
    value = (lse - (w * sims).sum(axis=1)).sum()
    d = (p - w) / tau
    grad = d @ k if keys is not None else d @ z + d.T @ z
    return value, grad


def soft_ce_ref(targets, logits):
    """``sum_i lse(l_i) - <l_i, t_i>`` and its gradient ``softmax(l) - t``
    (every target row sums to 1)."""
    t = np.asarray(targets, dtype=LD)
    lse, p = lse_softmax_ref(np.asarray(logits, dtype=LD))
    return (lse - (np.asarray(logits, dtype=LD) * t).sum(axis=1)).sum(), p - t


# --- inputs -------------------------------------------------------------------

def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def desk_labels(rng):
    """2B labels: B items of 8 classes, then the same labels for the second view."""
    half = rng.integers(0, 8, size=N // 2)
    return np.concatenate([half, half])


def saturated_embeddings(tau):
    """8 rows (4 items, two views) along +-e_k with squared norm ``SAT * tau``,
    so every similarity over tau is +-200 or 0. Rows 0, 2, 4 and 6 meet their
    positive at +200 (a loss near exp(-200)); rows 3 and 5 meet theirs at 0
    against a +200 candidate (a loss near 200); rows 1 and 7 at 0 against
    candidates at 0 and -200 (log 6)."""
    e = np.eye(4)
    z = np.stack([e[0], e[1], -e[0], e[2], e[0], e[2], -e[0], -e[1]]) * np.sqrt(SAT * tau)
    return z, np.array([0, 1, 2, 3, 0, 1, 2, 3])


def saturated_logits():
    """Hand-made (8, 6) logit rows of +-200 and 0 (after the temperature)."""
    rows = np.zeros((8, 6))
    rows[0, 0], rows[0, 1] = SAT, -SAT
    rows[1, :3] = SAT, SAT, -SAT
    rows[2] = -SAT
    rows[2, 5] = SAT
    rows[3, ::2] = SAT
    rows[4, 1::2] = -SAT
    rows[5] = np.linspace(-SAT, SAT, 6)
    rows[6, 3] = -SAT
    rows[7, 4] = SAT
    labels = np.array([0, 1, 0, 3, 1, 2, 3, 5])
    return rows, labels


# --- checks -------------------------------------------------------------------

def assert_matches(value, grad, ref_value, ref_grad):
    rel = abs(LD(float(value)) - ref_value) / abs(ref_value)
    assert rel <= VALUE_RTOL, f"value {float(value)!r} vs {ref_value!r}: relative error {rel}"
    ref = np.asarray(ref_grad, dtype=LD)
    err = np.abs(np.asarray(grad, dtype=LD) - ref)
    tiny = np.abs(ref) < GRAD_TINY
    worst_rel = (err[~tiny] / np.abs(ref[~tiny])).max(initial=0)
    worst_abs = err[tiny].max(initial=0)
    assert worst_rel <= GRAD_RTOL, f"gradient: worst relative error {worst_rel}"
    assert worst_abs <= GRAD_ATOL, f"gradient: worst absolute error {worst_abs} (tiny entries)"


def leaf(array):
    return Tensor(np.array(array, dtype=np.float64), requires_grad=True)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_supct_matches_long_double_reference(tau, kind):
    if kind == "desk":
        rng = np.random.default_rng(1)
        z, labels = unit_rows(rng, N, D), desk_labels(rng)
    else:
        z, labels = saturated_embeddings(tau)
    x = leaf(z)
    result = supct_loss(ContrastiveBatchView.supervised(x, labels, tau))
    backward(result.loss)
    pos = (labels[:, None] == labels[None, :]) & ~np.eye(len(labels), dtype=bool)
    assert result.skipped == 0
    assert_matches(result.loss, x.grad, *contrastive_ref(z, None, tau, None, pos))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_ct_matches_long_double_reference(tau, kind):
    if kind == "desk":
        rng = np.random.default_rng(2)
        z, labels = unit_rows(rng, N, D), desk_labels(rng)
    else:
        z, labels = saturated_embeddings(tau)
    x = leaf(z)
    result = ct_loss(ContrastiveBatchView.unsupervised(x, labels, tau))
    backward(result.loss)
    n = len(labels)
    pos = np.zeros((n, n), dtype=bool)
    pos[np.arange(n), (np.arange(n) + n // 2) % n] = True  # the other view
    assert_matches(result.loss, x.grad, *contrastive_ref(z, None, tau, None, pos))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_feat_align_matches_long_double_reference(tau, kind):
    rng = np.random.default_rng(3)
    if kind == "desk":
        z, labels = unit_rows(rng, N, D), desk_labels(rng)
        # The partner's embeddings of the batch are the anchors.
        keys, key_labels = unit_rows(rng, N, D), labels
    else:
        z, labels = saturated_embeddings(tau)
        keys, key_labels = z[::-1].copy(), labels[::-1].copy()
    pos = labels[:, None] == key_labels[None, :]
    # Every positive, and a random half of the negatives.
    neg = ~pos & (rng.random(pos.shape) < 0.5)
    anchors = AnchorSets(keys, key_labels, labels, pos, neg)
    x = leaf(z)
    result = feat_align_loss(x, anchors, tau)
    backward(result.loss)
    assert result.skipped == 0
    assert_matches(result.loss, x.grad, *contrastive_ref(z, keys, tau, pos | neg, pos))


def class_logits(kind, tau, seed):
    """Class logits and labels: desk cosine logits of scale 10 over tau, or
    the saturated rows (the same at every tau)."""
    if kind == "saturated":
        return saturated_logits()
    rng = np.random.default_rng(seed)
    cos = unit_rows(rng, N, D) @ unit_rows(rng, C, D).T
    return cos * 10.0 / tau, rng.integers(0, C, size=N)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_ce_matches_long_double_reference(tau, kind):
    logits, labels = class_logits(kind, tau, seed=4)
    x = leaf(logits)
    loss = ce_loss_batch(x, labels)
    backward(loss)
    one_hot = np.eye(logits.shape[1])[labels]
    assert_matches(loss, x.grad, *soft_ce_ref(one_hot, logits))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_soft_ce_matches_long_double_reference(tau, kind):
    logits, _ = class_logits(kind, tau, seed=5)
    # Soft targets of another set of logits at the same temperature.
    teacher, _ = class_logits(kind, tau, seed=6)
    if kind == "saturated":
        teacher = teacher[::-1]
    e = np.exp(teacher - teacher.max(axis=1, keepdims=True))
    targets = e / e.sum(axis=1, keepdims=True)
    x = leaf(logits)
    loss = soft_cross_entropy_batch(targets, x)
    backward(loss)
    assert_matches(loss, x.grad, *soft_ce_ref(targets, logits))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", TAUS)
def test_logit_align_matches_long_double_reference(tau, kind):
    rng = np.random.default_rng(7)
    clf = CosineClassifier(C, D, 10.0, seed=8)
    if kind == "desk":
        z_partner = unit_rows(rng, N, D)
        main = unit_rows(rng, N, D) @ clf.weights.data.T * 10.0
    else:
        # Partner rows whose classifier logits over tau are +-200 at most.
        z_partner = unit_rows(rng, 8, D) * (SAT * tau / 10.0)
        main, _ = saturated_logits()
        main = np.concatenate([main, np.zeros((8, C - main.shape[1]))], axis=1)
    x = leaf(main)
    loss = logit_align_loss_batch(clf, z_partner, x, tau)
    backward(loss)
    partner_logits = np.asarray(z_partner, dtype=LD) @ np.asarray(clf.weights.data, dtype=LD).T
    _, targets = lse_softmax_ref(partner_logits * LD(10.0) / LD(tau))
    assert_matches(loss, x.grad, *soft_ce_ref(targets, main))
