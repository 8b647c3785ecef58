"""Estimator protocol: params round-trip, prototype classifier, fit/transform."""
from __future__ import annotations

import numpy as np
import pytest

from pal.batching import AugmentConfig
from pal.encoders import Encoder, EncoderConfig
from pal.episodes import classify_query
from pal.estimators import PALRepresentation, PrototypeClassifier
from pal.exceptions import ParameterError, ShapeError
from pal.training import TrainConfig, Variant


def blobs(rng, n_classes=4, per_class=30, dim=6, spread=4.0):
    centers = rng.normal(scale=spread, size=(n_classes, dim))
    X = np.concatenate([c + rng.normal(size=(per_class, dim)) for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return X, y


def test_get_set_params_roundtrip():
    clf = PrototypeClassifier()
    assert clf.get_params() == {"encoder": None}
    est = PALRepresentation(variant="CE_only")
    params = est.get_params()
    assert params["variant"] == "CE_only"
    est.set_params(variant="PAL_feat_only", classifier_scale=5.0)
    assert est.variant == "PAL_feat_only"
    assert est.classifier_scale == 5.0
    with pytest.raises(ParameterError, match="invalid parameter"):
        est.set_params(gamma=1.0)


def test_repr_strings():
    assert repr(PrototypeClassifier()) == "PrototypeClassifier(encoder=None)"
    assert repr(PALRepresentation(variant="CE_only")) == (
        "PALRepresentation(variant='CE_only', train_config=None, augment_config=None, "
        "classifier_scale=10.0)"
    )


@pytest.mark.parametrize("est", [
    PrototypeClassifier(),
    PALRepresentation(),
    PALRepresentation("Mutual", TrainConfig(epochs=1, lr_decay_epoch=1, warmup_epochs=0),
                      AugmentConfig(), 5.0),
], ids=["PrototypeClassifier", "PALRepresentation", "PALRepresentation-set"])
def test_clone_round_trip(est):
    params = est.get_params()
    assert type(est)(**params).get_params() == params


def test_positional_construction_order():
    enc = Encoder(EncoderConfig(input_dim=4, hidden_dims=(8,), embed_dim=4, seed=0))
    assert PrototypeClassifier(enc).encoder is enc
    cfg, aug = TrainConfig(), AugmentConfig()
    assert PALRepresentation("CE_only", cfg, aug, 2.0).get_params() == {
        "variant": "CE_only", "train_config": cfg, "augment_config": aug,
        "classifier_scale": 2.0,
    }
    assert list(PALRepresentation().get_params()) == [
        "variant", "train_config", "augment_config", "classifier_scale",
    ]


def test_unknown_variant_raises_from_fit():
    est = PALRepresentation(variant="PAL_typo")  # construction stores it verbatim
    X, y = blobs(np.random.default_rng(4), n_classes=2, per_class=4)
    names = [v.value for v in Variant]
    with pytest.raises(ParameterError) as exc:
        est.fit(X, y)
    assert str(exc.value) == f"unknown variant 'PAL_typo'; expected one of {names}"


def test_prototype_classifier_separable_blobs():
    rng = np.random.default_rng(0)
    X, y = blobs(rng)
    clf = PrototypeClassifier().fit(X, y)
    assert clf.score(X, y) > 0.9
    np.testing.assert_array_equal(clf.classes_, [0, 1, 2, 3])
    np.testing.assert_allclose(np.linalg.norm(clf.prototypes_, axis=1), 1.0, atol=1e-9)


def test_prototype_classifier_matches_classify_query():
    rng = np.random.default_rng(1)
    X, y = blobs(rng, n_classes=3)
    clf = PrototypeClassifier().fit(X, y)
    queries = rng.normal(size=(50, X.shape[1]))
    preds = clf.predict(queries)
    for q, pred in zip(queries, preds):
        z = q / np.linalg.norm(q)
        assert clf.classes_[classify_query(clf.prototypes_, z)] == pred


def test_prototype_classifier_with_encoder():
    rng = np.random.default_rng(2)
    X, y = blobs(rng, dim=8)
    enc = Encoder(EncoderConfig(input_dim=8, hidden_dims=(16,), embed_dim=8, seed=0))
    clf = PrototypeClassifier(encoder=enc).fit(X, y)
    preds = clf.predict(X)
    assert preds.shape == y.shape


def test_prototype_classifier_validation():
    clf = PrototypeClassifier()
    with pytest.raises(ParameterError, match="not fitted"):
        clf.predict(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        clf.fit(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ParameterError, match="non-finite"):
        clf.fit(np.array([[np.nan, 1.0]]), np.array([0]))
    with pytest.raises(ShapeError):
        clf.fit(np.zeros((4, 2)), np.zeros(3))


def test_pal_representation_fit_transform_smoke():
    rng = np.random.default_rng(3)
    X, y = blobs(rng, n_classes=3, per_class=12, dim=6)
    cfg = TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=6, tau=0.5, warmup_epochs=0, seed=0
    )
    est = PALRepresentation(variant="CE_only", train_config=cfg)
    Z = est.fit_transform(X, y)
    assert Z.shape == (len(X), 32)
    np.testing.assert_allclose(np.linalg.norm(Z, axis=1), 1.0, atol=1e-6)
    assert est.classifier_ is not None
    assert est.partner_ is None
    est2 = PALRepresentation(variant="PAL_feat_only", train_config=cfg)
    est2.fit(X, y)
    assert est2.partner_ is not None and est2.partner_.frozen
