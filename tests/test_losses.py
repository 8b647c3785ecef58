"""Loss values against hand evaluations and brute-force oracles, plus
gradient and no-leak contracts."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from pal.batching import AnchorSets
from pal.core import Tensor, backward, softmax
from pal.core.gradcheck import max_relative_error
from pal.encoders import CosineClassifier
from pal.exceptions import ContractError, ShapeError
from pal.losses import (
    ContrastiveBatchView,
    SoftLabel,
    ce_loss,
    ce_loss_batch,
    ct_loss,
    feat_align_loss,
    kl_loss,
    kl_loss_batch,
    logit_align_loss,
    logit_align_loss_batch,
    soft_cross_entropy,
    soft_cross_entropy_batch,
    supct_loss,
)

from oracles import (
    cross_entropy_py,
    feat_align_brute,
    kl_py,
    random_simplex,
    random_unit_rows,
    softmax_py,
    supct_brute,
    supct_brute_labels,
)


def make_anchor_sets(features, labels, instance_labels, pos_sets, neg_sets):
    return AnchorSets.from_indices(
        features=np.asarray(features, dtype=np.float64),
        anchor_labels=np.asarray(labels),
        instance_labels=np.asarray(instance_labels),
        pos_indices=tuple(np.asarray(p, dtype=np.intp) for p in pos_sets),
        neg_indices=tuple(np.asarray(n, dtype=np.intp) for n in neg_sets),
    )


# ---------------------------------------------------------------- supct / ct


def test_supct_orthogonal_batch_is_four_ln_three():
    # B=2, labels [0,1,0,1], all four embeddings pairwise orthogonal.
    z = np.eye(4)
    view = ContrastiveBatchView.supervised(Tensor(z), [0, 1, 0, 1], tau=0.5)
    got = supct_loss(view)
    assert got.skipped == 0
    expected, _ = supct_brute_labels(z, [0, 1, 0, 1], 0.5)
    assert float(got.loss) == pytest.approx(expected, abs=1e-9)
    assert float(got.loss) == pytest.approx(4.0 * math.log(3.0), abs=1e-9)


def test_supct_perfect_positive_batch_closed_form():
    # Each instance equals its one positive, orthogonal to both negatives.
    z = np.array([[1.0, 0], [0, 1.0], [1.0, 0], [0, 1.0]])
    view = ContrastiveBatchView.supervised(Tensor(z), [0, 1, 0, 1], tau=0.5)
    got = float(supct_loss(view).loss)
    per_term = -math.log(math.exp(2.0) / (math.exp(2.0) + 2.0))
    assert got == pytest.approx(4.0 * per_term, abs=1e-9)


def test_supct_permutation_invariant():
    rng = np.random.default_rng(0)
    z = random_unit_rows(rng, 8, 5)
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    base = float(supct_loss(ContrastiveBatchView.supervised(Tensor(z), labels, 0.5)).loss)
    perm = rng.permutation(8)
    shuffled = float(
        supct_loss(ContrastiveBatchView.supervised(Tensor(z[perm]), labels[perm], 0.5)).loss
    )
    assert shuffled == pytest.approx(base, abs=1e-9)


def test_supct_matches_brute_force_random_batches():
    rng = np.random.default_rng(1)
    for _ in range(25):
        b = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        z = random_unit_rows(rng, 2 * b, d)
        labels = np.concatenate([rng.integers(0, 3, size=b)] * 2)
        tau = float(rng.uniform(0.1, 2.0))
        view = ContrastiveBatchView.supervised(Tensor(z), labels, tau)
        got = supct_loss(view)
        expected, skipped = supct_brute_labels(z, labels, tau)
        assert float(got.loss) == pytest.approx(expected, abs=1e-6)
        assert got.skipped == skipped


def test_supct_skips_and_counts_singleton_classes():
    z = np.eye(3)
    view = ContrastiveBatchView.supervised(Tensor(z), [0, 0, 5], tau=1.0)
    got = supct_loss(view)
    assert got.skipped == 1
    expected, skipped = supct_brute_labels(z, [0, 0, 5], 1.0)
    assert skipped == 1
    assert float(got.loss) == pytest.approx(expected, abs=1e-9)


def test_ct_two_views_of_one_item_is_zero():
    # B=1: the only non-self index is the positive, so the ratio is 1.
    z = random_unit_rows(np.random.default_rng(2), 2, 4)
    view = ContrastiveBatchView.unsupervised(Tensor(z), [7, 7], tau=0.5)
    assert float(ct_loss(view).loss) == pytest.approx(0.0, abs=1e-12)


def test_ct_requires_unsupervised_view():
    z = random_unit_rows(np.random.default_rng(3), 4, 4)
    with pytest.raises(ContractError):
        ct_loss(ContrastiveBatchView.supervised(Tensor(z), [0, 1, 0, 1], 0.5))


def test_view_rejects_malformed_positive_mask():
    z = Tensor(random_unit_rows(np.random.default_rng(5), 4, 3))
    labels = np.array([0, 1, 0, 1])
    good = ContrastiveBatchView.supervised(z, labels, 0.5).pos_mask
    for bad in (
        good[:, :3],  # wrong shape
        good.astype(np.intp),  # wrong dtype
        (np.array([-1]), np.array([3]), np.array([0]), np.array([1])),  # index sets
    ):
        with pytest.raises(ShapeError):
            ContrastiveBatchView(z, labels, bad, 0.5)
    with pytest.raises(ShapeError):
        ContrastiveBatchView.supervised(z, labels[:3], 0.5)


def test_ct_vs_supct_differ_by_extra_positive_terms():
    rng = np.random.default_rng(4)
    z = random_unit_rows(rng, 6, 5)
    labels = np.array([0, 0, 1, 0, 0, 1])
    sup = float(supct_loss(ContrastiveBatchView.supervised(Tensor(z), labels, 0.5)).loss)
    uns = float(ct_loss(ContrastiveBatchView.unsupervised(Tensor(z), labels, 0.5)).loss)
    sup_oracle, _ = supct_brute_labels(z, labels, 0.5)
    pos_rule = [[(i + 3) % 6] for i in range(6)]
    uns_oracle, _ = supct_brute(z, pos_rule, 0.5)
    assert sup == pytest.approx(sup_oracle, abs=1e-9)
    assert uns == pytest.approx(uns_oracle, abs=1e-9)
    assert sup != pytest.approx(uns, abs=1e-6)


def test_supct_equals_ct_when_each_class_appears_once():
    # B=1 per class: the supervised positive rule degenerates to the view rule.
    rng = np.random.default_rng(5)
    z = random_unit_rows(rng, 6, 4)
    labels = np.array([0, 1, 2, 0, 1, 2])
    sup = supct_loss(ContrastiveBatchView.supervised(Tensor(z), labels, 0.5))
    uns = ct_loss(ContrastiveBatchView.unsupervised(Tensor(z), labels, 0.5))
    assert float(sup.loss) == float(uns.loss)


def test_tau_change_preserves_batch_ordering():
    # Two batches with the same similarity rank order and uniform gaps: the
    # loss changes with tau but which batch scores lower does not.
    def batch(angle):
        z = np.array(
            [
                [1.0, 0.0],
                [math.cos(angle), math.sin(angle)],
                [1.0, 0.0],
                [math.cos(angle), math.sin(angle)],
            ]
        )
        return ContrastiveBatchView.supervised(Tensor(z), [0, 1, 0, 1], tau=1.0)

    tight, loose = batch(0.9 * math.pi), batch(0.5 * math.pi)
    for tau in (0.5, 1.0):
        lt = float(supct_loss(ContrastiveBatchView(tight.features, tight.labels, tight.pos_mask, tau)).loss)
        ll = float(supct_loss(ContrastiveBatchView(loose.features, loose.labels, loose.pos_mask, tau)).loss)
        assert lt < ll
    v05 = float(supct_loss(ContrastiveBatchView(tight.features, tight.labels, tight.pos_mask, 0.5)).loss)
    v10 = float(supct_loss(ContrastiveBatchView(tight.features, tight.labels, tight.pos_mask, 1.0)).loss)
    assert v05 != pytest.approx(v10, abs=1e-6)


# ------------------------------------------------------------------- ce / kd


def test_ce_uniform_logits():
    assert float(ce_loss(Tensor(np.zeros(4)), 2)) == pytest.approx(math.log(4.0), abs=1e-12)


def test_ce_confident_logit_closed_form():
    s, c = 10.0, 5
    logits = np.full(c, -s)
    logits[0] = s
    expected = -math.log(math.exp(s) / (math.exp(s) + (c - 1) * math.exp(-s)))
    assert float(ce_loss(Tensor(logits), 0)) == pytest.approx(expected, abs=1e-9)


def test_ce_label_out_of_range():
    with pytest.raises(IndexError, match="label 4"):
        ce_loss(Tensor(np.zeros(4)), 4)
    with pytest.raises(IndexError):
        ce_loss_batch(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_ce_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(scale=3.0, size=6), requires_grad=True)
    backward(ce_loss(logits, 2))
    p = softmax(logits.data)
    p[2] -= 1.0
    np.testing.assert_allclose(logits.grad, p, atol=1e-6)


def test_soft_ce_one_hot_reduces_to_ce():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=5)
    one_hot = np.zeros(5)
    one_hot[3] = 1.0
    assert float(soft_cross_entropy(one_hot, Tensor(logits))) == float(ce_loss(Tensor(logits), 3))


def test_soft_ce_self_target_is_entropy():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=6)
    p = softmax(logits)
    entropy = -float(np.sum(p * np.log(p)))
    assert float(soft_cross_entropy(p, Tensor(logits))) == pytest.approx(entropy, abs=1e-9)


def test_soft_ce_hand_value():
    # p = [1, 0] against a uniform prediction.
    assert float(soft_cross_entropy(np.array([1.0, 0.0]), Tensor(np.zeros(2)))) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_soft_ce_shape_mismatch():
    with pytest.raises(ShapeError):
        soft_cross_entropy(np.array([0.5, 0.5]), Tensor(np.zeros(3)))


@pytest.mark.parametrize("loss", [kl_loss, kl_loss_batch])
def test_kl_shape_mismatch(loss):
    # A 1-D teacher must not broadcast over a batch of students.
    p_s = softmax(Tensor(np.zeros((4, 3))))
    with pytest.raises(ShapeError, match="teacher shape"):
        loss(np.full(3, 1 / 3), p_s)


def test_soft_label_validation():
    with pytest.raises(Exception):
        SoftLabel(np.array([0.5, 0.6]))
    with pytest.raises(Exception):
        SoftLabel(np.array([0.5, 0.5]), source="teacher")
    lbl = SoftLabel(np.array([0.25, 0.75]), source="main")
    assert lbl.probs.sum() == pytest.approx(1.0)


def test_kl_identical_distributions_is_zero():
    p = random_simplex(np.random.default_rng(9), 5)
    assert float(kl_loss(p, p)) == pytest.approx(0.0, abs=1e-12)


def test_kl_hand_value():
    assert float(kl_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5]))) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_kl_decomposition_identity_many_draws():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p_t, p_s = random_simplex(rng, n), random_simplex(rng, n)
        kl = float(kl_loss(p_t, p_s))
        neg_h_t = float(np.sum(p_t * np.log(p_t)))
        h_ts = cross_entropy_py(p_t, p_s)
        assert kl == pytest.approx(neg_h_t + h_ts, abs=1e-9)
        assert kl == pytest.approx(kl_py(p_t, p_s), abs=1e-9)
        assert kl >= -1e-12


def test_kl_floor_guard_reports(caplog):
    import pal.losses as losses_module

    losses_module._floor_reported = False  # first trigger warns, repeats go quiet
    p_t = np.array([0.5, 0.5])
    p_s = np.array([1.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="pal.losses"):
        val = float(kl_loss(p_t, p_s))
    assert math.isfinite(val)
    assert any("floored" in rec.message for rec in caplog.records)


def test_kl_gradient_flows_to_student_only():
    rng = np.random.default_rng(11)
    p_t = random_simplex(rng, 4)
    logits = Tensor(rng.normal(size=4), requires_grad=True)
    p_s = softmax(logits)
    backward(kl_loss(p_t, p_s))
    assert logits.grad is not None
    # d KL / d logits = p_s - p_t for softmax students.
    np.testing.assert_allclose(logits.grad, softmax(logits.data) - p_t, atol=1e-9)


# ------------------------------------------------------------ logit alignment


def test_logit_align_toy_hand_value():
    clf = CosineClassifier(n_classes=3, embed_dim=3, scale=1.0, seed=0)
    clf.weights.data = np.eye(3)
    z_partner = np.array([1.0, 0.0, 0.0])
    target = softmax_py([2.0, 0.0, 0.0])  # logits [1,0,0] / tau=0.5
    logits_main = Tensor(np.array([1.0, 0.0, 0.0]), requires_grad=True)
    got = float(logit_align_loss(clf, z_partner, logits_main, tau=0.5))
    expected = cross_entropy_py(target, softmax_py([1.0, 0.0, 0.0]))
    assert got == pytest.approx(expected, abs=1e-9)


def test_logit_align_agreement_floor_is_target_entropy():
    clf = CosineClassifier(n_classes=3, embed_dim=3, scale=10.0, seed=0)
    clf.weights.data = np.eye(3)
    z_partner = np.array([1.0, 0.0, 0.0])
    target = softmax_py([10.0, 0.0, 0.0], tau=0.5)
    # Main logits whose plain softmax equals the target exactly.
    logits_main = Tensor(np.log(np.array(target)), requires_grad=True)
    got = float(logit_align_loss(clf, z_partner, logits_main, tau=0.5))
    entropy = -sum(t * math.log(t) for t in target)
    assert got == pytest.approx(entropy, abs=1e-9)


def test_logit_align_no_gradient_into_classifier_through_target():
    clf = CosineClassifier(n_classes=4, embed_dim=5, seed=1)
    rng = np.random.default_rng(12)
    z_partner = random_unit_rows(rng, 1, 5)[0]
    logits_main = Tensor(rng.normal(size=4), requires_grad=True)
    clf.weights.zero_grad()
    backward(logit_align_loss(clf, z_partner, logits_main, tau=0.5))
    assert clf.weights.grad is None
    assert logits_main.grad is not None


def test_logit_align_class_mismatch_contract():
    clf = CosineClassifier(n_classes=3, embed_dim=3, seed=2)
    with pytest.raises(ContractError, match="same-class"):
        logit_align_loss(
            clf, np.array([1.0, 0, 0]), Tensor(np.zeros(3)), tau=0.5, x_class=0, x_prime_class=1
        )


# ----------------------------------------------------------- feat alignment


def test_feat_align_one_positive_one_negative_hand_value():
    z = np.array([1.0, 0.0])
    anchors = make_anchor_sets(
        features=[[1.0, 0.0], [0.0, 1.0]],
        labels=[0, 1],
        instance_labels=[0],
        pos_sets=[[0]],
        neg_sets=[[1]],
    )
    got = feat_align_loss(Tensor(z), anchors, tau=0.5)
    expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
    assert float(got.loss) == pytest.approx(expected, abs=1e-9)
    assert got.skipped == 0


def test_feat_align_all_orthogonal_is_ln_k_plus_one():
    d = 6
    for k in (1, 2, 4):
        feats = np.eye(d)[: k + 1]
        anchors = make_anchor_sets(
            features=feats,
            labels=[0] + [1] * k,
            instance_labels=[0],
            pos_sets=[[0]],
            neg_sets=[[j + 1 for j in range(k)]],
        )
        z = np.zeros(d)
        z[d - 1] = 1.0  # orthogonal to every anchor
        got = float(feat_align_loss(Tensor(z), anchors, tau=0.5).loss)
        assert got == pytest.approx(math.log(k + 1.0), abs=1e-9)


def test_feat_align_matches_brute_force_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        a = int(rng.integers(2, 17))
        d = int(rng.integers(2, 10))
        z = random_unit_rows(rng, n, d)
        feats = random_unit_rows(rng, a, d)
        labels = rng.integers(0, 3, size=a)
        inst_labels = rng.integers(0, 3, size=n)
        pos_sets, neg_sets = [], []
        for i in range(n):
            pos = np.flatnonzero(labels == inst_labels[i])
            neg = np.flatnonzero(labels != inst_labels[i])
            pos_sets.append(pos)
            neg_sets.append(neg)
        anchors = make_anchor_sets(feats, labels, inst_labels, pos_sets, neg_sets)
        tau = float(rng.uniform(0.1, 2.0))
        got = feat_align_loss(Tensor(z), anchors, tau)
        expected, skipped = feat_align_brute(z, feats, pos_sets, neg_sets, tau)
        assert float(got.loss) == pytest.approx(expected, abs=1e-6)
        assert got.skipped == skipped


def test_feat_align_empty_positive_skipped_with_report():
    anchors = make_anchor_sets(
        features=np.eye(3),
        labels=[1, 1, 1],
        instance_labels=[0, 1],
        pos_sets=[[], [0, 1, 2]],
        neg_sets=[[0, 1, 2], []],
    )
    z = random_unit_rows(np.random.default_rng(14), 2, 3)
    got = feat_align_loss(Tensor(z), anchors, tau=0.5)
    assert got.skipped == 1
    expected, _ = feat_align_brute(z, np.eye(3), [[], [0, 1, 2]], [[0, 1, 2], []], 0.5)
    assert float(got.loss) == pytest.approx(expected, abs=1e-9)


def test_feat_align_skipped_row_without_candidates_is_finite():
    # Instance 0 has neither positives nor negatives: it is skipped, and
    # neither the loss nor the gradient may turn non-finite through it.
    anchors = make_anchor_sets(
        features=np.eye(3),
        labels=[1, 1, 2],
        instance_labels=[0, 1],
        pos_sets=[[], [0, 1]],
        neg_sets=[[], [2]],
    )
    z = Tensor(random_unit_rows(np.random.default_rng(16), 2, 3), requires_grad=True)
    got = feat_align_loss(z, anchors, tau=0.5)
    assert got.skipped == 1
    expected, _ = feat_align_brute(z.data, np.eye(3), [[], [0, 1]], [[], [2]], 0.5)
    assert float(got.loss) == pytest.approx(expected, abs=1e-9)
    backward(got.loss)
    assert np.all(np.isfinite(z.grad))
    np.testing.assert_array_equal(z.grad[0], 0.0)


def test_feat_align_anchor_gradient_free():
    rng = np.random.default_rng(15)
    z = Tensor(random_unit_rows(rng, 3, 4), requires_grad=True)
    feats = random_unit_rows(rng, 6, 4)
    labels = np.array([0, 0, 1, 1, 2, 2])
    inst = np.array([0, 1, 2])
    pos = [np.flatnonzero(labels == c) for c in inst]
    neg = [np.flatnonzero(labels != c) for c in inst]
    anchors = make_anchor_sets(feats, labels, inst, pos, neg)
    result = feat_align_loss(z, anchors, tau=0.5)
    backward(result.loss)
    assert z.grad is not None
    np.testing.assert_array_equal(anchors.features, feats)  # constants untouched


# --------------------------------------------------------------- gradients


@pytest.mark.parametrize("seed", range(5))
def test_all_losses_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    b, d, c = 3, 5, 4
    labels = np.concatenate([rng.integers(0, 2, size=b)] * 2)

    def supct_fn(t):
        return supct_loss(ContrastiveBatchView.supervised(t, labels, 0.7)).loss

    def ct_fn(t):
        return ct_loss(ContrastiveBatchView.unsupervised(t, labels, 0.7)).loss

    z0 = random_unit_rows(rng, 2 * b, d)
    assert max_relative_error(supct_fn, z0) <= 1e-4
    assert max_relative_error(ct_fn, z0) <= 1e-4

    logits0 = rng.normal(scale=2.0, size=c)
    assert max_relative_error(lambda t: ce_loss(t, 1), logits0) <= 1e-4

    p_target = random_simplex(rng, c)
    assert max_relative_error(lambda t: soft_cross_entropy(p_target, t), logits0) <= 1e-4

    p_t = random_simplex(rng, c)
    assert max_relative_error(lambda t: kl_loss(p_t, softmax(t)), logits0) <= 1e-4

    clf = CosineClassifier(n_classes=c, embed_dim=d, seed=seed)
    z_partner = random_unit_rows(rng, 1, d)[0]
    assert (
        max_relative_error(lambda t: logit_align_loss(clf, z_partner, t, 0.5), logits0) <= 1e-4
    )

    feats = random_unit_rows(rng, 6, d)
    a_labels = np.array([0, 0, 1, 1, 2, 2])
    inst = rng.integers(0, 3, size=2 * b)
    anchors = make_anchor_sets(
        feats,
        a_labels,
        inst,
        [np.flatnonzero(a_labels == y) for y in inst],
        [np.flatnonzero(a_labels != y) for y in inst],
    )
    assert max_relative_error(lambda t: feat_align_loss(t, anchors, 0.5).loss, z0) <= 1e-4


def test_losses_are_nonnegative_on_random_inputs():
    rng = np.random.default_rng(16)
    for _ in range(20):
        b, d, c = 2, 4, 5
        labels = np.concatenate([rng.integers(0, 2, size=b)] * 2)
        z = random_unit_rows(rng, 2 * b, d)
        assert float(supct_loss(ContrastiveBatchView.supervised(Tensor(z), labels, 0.5)).loss) >= -1e-12
        logits = rng.normal(size=c)
        assert float(ce_loss(Tensor(logits), 0)) >= -1e-12
        assert float(soft_cross_entropy(random_simplex(rng, c), Tensor(logits))) >= -1e-12
        assert float(kl_loss(random_simplex(rng, c), random_simplex(rng, c))) >= -1e-12


_C = 12
_TARGET = random_simplex(np.random.default_rng(21), _C)
_CLF = CosineClassifier(_C, 4, scale=8.0, seed=1)
_Z_PARTNER = random_unit_rows(np.random.default_rng(22), 1, 4)
ONE_ROW_AND_BATCH = {
    "ce_loss": (lambda t: ce_loss(t, 7), lambda t: ce_loss_batch(t, np.array([7]))),
    "soft_cross_entropy": (
        lambda t: soft_cross_entropy(SoftLabel(_TARGET), t),
        lambda t: soft_cross_entropy_batch(_TARGET[None], t),
    ),
    "kl_loss": (
        lambda t: kl_loss(SoftLabel(_TARGET), softmax(t)),
        lambda t: kl_loss_batch(_TARGET[None], softmax(t)),
    ),
    "logit_align_loss": (
        lambda t: logit_align_loss(_CLF, _Z_PARTNER[0], t, 0.5, x_class=2, x_prime_class=2),
        lambda t: logit_align_loss_batch(_CLF, _Z_PARTNER, t, 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_ROW_AND_BATCH))
def test_one_row_loss_is_its_batch_form_on_that_row(name):
    one, batch = ONE_ROW_AND_BATCH[name]
    logits = np.random.default_rng(23).normal(scale=3.0, size=_C)
    row = Tensor(logits.copy(), requires_grad=True)
    rows = Tensor(logits[None].copy(), requires_grad=True)
    value, batch_value = one(row), batch(rows)
    backward(value)
    backward(batch_value)
    assert np.array_equal(value.data, batch_value.data)
    assert np.array_equal(row.grad, rows.grad[0])
