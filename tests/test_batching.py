"""Augmentation, batch construction, positive sets, anchor sampling."""
from __future__ import annotations

import numpy as np
import pytest

from pal.batching import (
    AnchorSets,
    AugmentConfig,
    augment,
    build_batch,
    mask_rows,
    positive_index_sets,
    sample_anchor_sets,
)
from pal.core import backward
from pal.encoders import Encoder, EncoderConfig
from pal.exceptions import ContractError, ParameterError, ShapeError
from pal.losses import ContrastiveBatchView, feat_align_loss

from oracles import anchor_sets_loop, other_view_sets_loop, positive_sets_loop


@pytest.fixture
def partner():
    return Encoder(EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=4, seed=3)).freeze()


def test_augment_config_validation():
    with pytest.raises(ParameterError):
        AugmentConfig(noise_sigma=-1.0)
    with pytest.raises(ParameterError):
        AugmentConfig(mask_prob=1.0)


def test_augment_noop_config_is_identity():
    x = np.random.default_rng(0).normal(size=12)
    out = augment(x, np.random.default_rng(1), AugmentConfig(0.0, 0.0))
    np.testing.assert_array_equal(out, x)


def test_augment_deterministic_given_seed():
    x = np.random.default_rng(2).normal(size=12)
    cfg = AugmentConfig(noise_sigma=0.3, mask_prob=0.2)
    a = augment(x, np.random.default_rng(7), cfg)
    b = augment(x, np.random.default_rng(7), cfg)
    np.testing.assert_array_equal(a, b)


def test_augment_mask_fraction_monte_carlo():
    # dim 1000, 100 draws: zeroed fraction concentrates near mask_prob.
    rng = np.random.default_rng(3)
    x = np.ones(1000)
    cfg = AugmentConfig(noise_sigma=0.0, mask_prob=0.2)
    fractions = [np.mean(augment(x, rng, cfg) == 0.0) for _ in range(100)]
    assert abs(np.mean(fractions) - 0.2) <= 0.05


def test_build_batch_structure():
    raw = np.arange(8.0).reshape(2, 4)
    batch = build_batch(raw, np.array([5, 7]), np.random.default_rng(4), AugmentConfig())
    assert batch.size == 4
    np.testing.assert_array_equal(batch.labels, [5, 7, 5, 7])
    # Raw item i pairs with its second view at i+B (0-based).
    np.testing.assert_array_equal(batch.view_map, [2, 3, 0, 1])
    np.testing.assert_array_equal(batch.labels[batch.view_map], batch.labels)


def test_build_batch_halves_differ_with_noise():
    raw = np.zeros((3, 5))
    cfg = AugmentConfig(noise_sigma=0.5, mask_prob=0.0)
    batch = build_batch(raw, np.zeros(3, dtype=int), np.random.default_rng(5), cfg)
    assert not np.allclose(batch.inputs[:3], batch.inputs[3:])


def test_build_batch_empty_raw_rejected():
    with pytest.raises(ParameterError):
        build_batch(np.zeros((0, 3)), np.zeros(0, dtype=int), np.random.default_rng(6), AugmentConfig())


def test_positive_sets_supervised_example():
    raw = np.zeros((2, 3))
    batch = build_batch(raw, np.array([0, 1]), np.random.default_rng(7), AugmentConfig())
    sets = positive_index_sets(batch, "supervised")
    np.testing.assert_array_equal(sets[0], [2])
    np.testing.assert_array_equal(sets[1], [3])
    np.testing.assert_array_equal(sets[2], [0])
    np.testing.assert_array_equal(sets[3], [1])


def test_positive_sets_unsupervised_rule():
    raw = np.zeros((3, 2))
    batch = build_batch(raw, np.array([0, 0, 0]), np.random.default_rng(8), AugmentConfig())
    sets = positive_index_sets(batch, "unsupervised")
    # The only positive of i is its other view: 1 <-> 4 when B = 3.
    np.testing.assert_array_equal(sets[1], [4])
    np.testing.assert_array_equal(sets[4], [1])


def test_positive_sets_single_class_batch_complete():
    raw = np.zeros((3, 2))
    batch = build_batch(raw, np.array([2, 2, 2]), np.random.default_rng(9), AugmentConfig())
    sets = positive_index_sets(batch, "supervised")
    assert all(len(s) == 5 for s in sets)


def test_positive_sets_include_other_view():
    rng = np.random.default_rng(10)
    raw = rng.normal(size=(4, 3))
    batch = build_batch(raw, np.array([0, 1, 0, 2]), rng, AugmentConfig(0.1, 0.1))
    sets = positive_index_sets(batch, "supervised")
    for i, partner in enumerate(batch.view_map):
        assert partner in sets[i]


def test_positive_sets_unknown_mode():
    raw = np.zeros((2, 2))
    batch = build_batch(raw, np.array([0, 1]), np.random.default_rng(11), AugmentConfig())
    with pytest.raises(ParameterError):
        positive_index_sets(batch, "semi")


def test_anchor_sets_partition_by_class(partner):
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(4, 4))
    batch = build_batch(raw, np.array([0, 1, 0, 1]), rng, AugmentConfig(0.1, 0.0))
    anchors = sample_anchor_sets(partner, batch, rng)
    anchors.validate()
    for i in range(batch.size):
        got = np.sort(np.concatenate([anchors.pos_indices[i], anchors.neg_indices[i]]))
        expected = np.array([j for j in range(batch.size) if j != i])
        np.testing.assert_array_equal(got, expected)
        assert i not in anchors.pos_indices[i]
        assert batch.view_map[i] in anchors.pos_indices[i]


def test_anchor_sampling_deterministic(partner):
    raw = np.random.default_rng(13).normal(size=(5, 4))
    labels = np.array([0, 1, 2, 0, 1])
    batch = build_batch(raw, labels, np.random.default_rng(14), AugmentConfig(0.1, 0.0))
    a1 = sample_anchor_sets(partner, batch, np.random.default_rng(99), n_pos=1, n_neg=3)
    a2 = sample_anchor_sets(partner, batch, np.random.default_rng(99), n_pos=1, n_neg=3)
    for p1, p2 in zip(a1.pos_indices, a2.pos_indices):
        np.testing.assert_array_equal(p1, p2)
    for n1, n2 in zip(a1.neg_indices, a2.neg_indices):
        np.testing.assert_array_equal(n1, n2)


def test_anchor_sampling_uniform_frequencies(partner):
    rng = np.random.default_rng(15)
    raw = rng.normal(size=(3, 4))
    labels = np.array([0, 0, 0])
    batch = build_batch(raw, labels, rng, AugmentConfig())
    counts = np.zeros(batch.size)
    draws = 1000
    sample_rng = np.random.default_rng(16)
    for _ in range(draws):
        anchors = sample_anchor_sets(partner, batch, sample_rng, n_pos=1, n_neg=1)
        counts[anchors.pos_indices[0][0]] += 1
    eligible = [j for j in range(batch.size) if j != 0]
    freqs = counts[eligible] / draws
    assert np.all(np.abs(freqs - 1.0 / len(eligible)) <= 0.05)


def _assert_same_sets(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.dtype.kind == "i"
        np.testing.assert_array_equal(g, e)


def test_masks_match_loop_reference(partner):
    rng = np.random.default_rng(23)
    label_vectors = [np.zeros(5, dtype=int), np.arange(6)]  # one class; all distinct
    for _ in range(20):
        label_vectors.append(rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(1, 9))))
    for raw_labels in label_vectors:
        raw = rng.normal(size=(len(raw_labels), 4))
        batch = build_batch(raw, raw_labels, rng, AugmentConfig(0.1, 0.0))
        supervised = positive_sets_loop(batch.labels)
        unsupervised = other_view_sets_loop(batch.size)
        _assert_same_sets(positive_index_sets(batch, "supervised"), supervised)
        _assert_same_sets(positive_index_sets(batch, "unsupervised"), unsupervised)
        z = rng.normal(size=(batch.size, 3))
        view = ContrastiveBatchView.supervised(z, batch.labels, 0.5)
        _assert_same_sets(mask_rows(view.pos_mask), supervised)
        view = ContrastiveBatchView.unsupervised(z, batch.labels, 0.5)
        _assert_same_sets(mask_rows(view.pos_mask), unsupervised)

        untouched = np.random.default_rng(0)
        anchors = sample_anchor_sets(partner, batch, untouched)
        pos, neg = anchor_sets_loop(batch.labels, np.random.default_rng(1))
        _assert_same_sets(anchors.pos_indices, pos)
        _assert_same_sets(anchors.neg_indices, neg)
        assert untouched.bit_generator.state == np.random.default_rng(0).bit_generator.state

        for n_pos, n_neg in ((1, 2), (2, None), (None, 1)):
            seed = int(rng.integers(1 << 30))
            drawn, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            anchors = sample_anchor_sets(partner, batch, drawn, n_pos=n_pos, n_neg=n_neg)
            pos, neg = anchor_sets_loop(batch.labels, looped, n_pos, n_neg)
            _assert_same_sets(anchors.pos_indices, pos)
            _assert_same_sets(anchors.neg_indices, neg)
            assert drawn.bit_generator.state == looped.bit_generator.state


def test_anchor_sets_reject_out_of_range_indices():
    feats = np.eye(3)
    labels = np.array([0, 1, 1])
    for bad in ([-3], [3], [0, -1]):
        with pytest.raises(ShapeError, match="outside"):
            AnchorSets.from_indices(feats, labels, [0], pos_indices=[bad], neg_indices=[[1]])
        with pytest.raises(ShapeError, match="outside"):
            AnchorSets.from_indices(feats, labels, [0], pos_indices=[[0]], neg_indices=[bad])
    with pytest.raises(ShapeError):
        AnchorSets.from_indices(feats, labels, [0, 1], pos_indices=[[0]], neg_indices=[[1], [0]])
    with pytest.raises(ShapeError):
        AnchorSets(feats, labels, np.array([0]), np.ones((1, 2), bool), np.zeros((1, 3), bool))
    ok = AnchorSets.from_indices(feats, labels, [0], pos_indices=[[0]], neg_indices=[[2, 1]])
    ok.validate()
    _assert_same_sets(ok.neg_indices, [np.array([1, 2])])


def test_anchor_sets_validate_names_the_instance():
    feats = np.eye(3)
    labels = np.array([0, 1, 1])
    wrong_pos = AnchorSets.from_indices(feats, labels, [0, 1], [[0], [0]], [[1], [0]])
    with pytest.raises(ContractError, match="instance 1: positive"):
        wrong_pos.validate()
    wrong_neg = AnchorSets.from_indices(feats, labels, [0, 1], [[0], [1]], [[1], [2]])
    with pytest.raises(ContractError, match="instance 1: negative"):
        wrong_neg.validate()


def test_anchor_sampling_requires_frozen_partner():
    enc = Encoder(EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=4, seed=3))
    raw = np.zeros((2, 4))
    batch = build_batch(raw, np.array([0, 1]), np.random.default_rng(17), AugmentConfig())
    with pytest.raises(ContractError, match="frozen"):
        sample_anchor_sets(enc, batch, np.random.default_rng(18))


def test_anchor_sampling_rejects_bad_counts(partner):
    raw = np.zeros((2, 4))
    batch = build_batch(raw, np.array([0, 1]), np.random.default_rng(19), AugmentConfig())
    with pytest.raises(ParameterError):
        sample_anchor_sets(partner, batch, np.random.default_rng(20), n_pos=0)
    with pytest.raises(ParameterError):
        sample_anchor_sets(partner, batch, np.random.default_rng(21), n_neg=-1)


def test_partner_gradient_free_through_feat_align(partner):
    rng = np.random.default_rng(22)
    raw = rng.normal(size=(3, 4))
    batch = build_batch(raw, np.array([0, 1, 0]), rng, AugmentConfig(0.1, 0.0))
    anchors = sample_anchor_sets(partner, batch, rng)
    main = Encoder(EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=4, seed=5))
    z = main.embed(batch.inputs)
    result = feat_align_loss(z, anchors, tau=0.5)
    backward(result.loss)
    for p in partner.parameters():
        assert p.grad is None
    for p in main.parameters():
        assert p.grad is not None
