"""Estimator-style API over the training pipeline and prototype classifier.

These classes follow the scikit-learn protocol (``fit``/``transform``/
``predict`` plus ``get_params``/``set_params``) without importing sklearn,
so they drop into pipelines and grid searches that only rely on the
protocol. Constructor arguments are stored verbatim; everything learned in
``fit`` lands on trailing-underscore attributes.
"""
from __future__ import annotations

import inspect

import numpy as np

from .batching import AugmentConfig
from .core import l2_normalize
from .data import Split
from .exceptions import ParameterError
from .training import NetConfig, TrainConfig, Variant, train_variant
from .validation import check_fitted, check_labels, check_matrix


class BaseEstimator:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ParameterError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class PrototypeClassifier(BaseEstimator):
    """Cosine nearest-prototype classifier.

    ``fit`` averages the (optionally encoder-embedded) rows of each class
    and L2-normalizes the result; ``predict`` returns the class whose
    prototype has the highest cosine similarity, ties to the lowest class.
    """

    def __init__(self, encoder=None):
        self.encoder = encoder

    def _embed(self, X: np.ndarray) -> np.ndarray:
        if self.encoder is not None:
            return self.encoder.encode(X)
        return l2_normalize(X)

    def fit(self, X, y) -> "PrototypeClassifier":
        X = check_matrix(X)
        y = check_labels(y, len(X))
        z = self._embed(X)
        self.classes_ = np.unique(y)
        protos = np.stack([z[y == c].mean(axis=0) for c in self.classes_])
        self.prototypes_ = l2_normalize(protos)
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "prototypes_")
        z = self._embed(check_matrix(X))
        return self.classes_[np.argmax(z @ self.prototypes_.T, axis=1)]

    def score(self, X, y) -> float:
        y = check_labels(np.asarray(y), len(np.atleast_2d(X)))
        return float(np.mean(self.predict(X) == y))


class PALRepresentation(BaseEstimator):
    """Two-stage representation learner behind fit/transform.

    ``fit(X, y)`` runs the configured training variant on the rows of X as
    the base split; ``transform`` maps rows to unit embeddings under the
    evaluation encoder. The trained pieces are exposed as ``encoder_``,
    ``partner_``, and ``classifier_``.

    With no ``train_config`` it trains the full-scale 90-epoch
    ``TrainConfig()`` schedule; the CLI trains ``config.DESK_TRAIN`` instead.
    """

    def __init__(
        self,
        variant: str = "PAL",
        train_config: TrainConfig | None = None,
        augment_config: AugmentConfig | None = None,
        classifier_scale: float = 10.0,
    ):
        self.variant = variant
        self.train_config = train_config
        self.augment_config = augment_config
        self.classifier_scale = classifier_scale

    def fit(self, X, y) -> "PALRepresentation":
        X = check_matrix(X)
        y = check_labels(y, len(X))
        cfg = self.train_config if self.train_config is not None else TrainConfig()
        variant = Variant.parse(self.variant) if isinstance(self.variant, str) else self.variant
        if cfg.variant != variant:
            from dataclasses import replace

            cfg = replace(cfg, variant=variant)
        split = Split(
            x=X.astype(np.float32),
            y=y.astype(np.int32),
            label_width=int(y.max()) + 1,
        )
        result = train_variant(
            split, cfg, aug=self.augment_config, net=NetConfig(scale=self.classifier_scale)
        )
        self.encoder_ = result.encoder
        self.partner_ = result.partner
        self.classifier_ = result.classifier
        self.metrics_ = result.metrics
        return self

    def transform(self, X) -> np.ndarray:
        check_fitted(self, "encoder_")
        return self.encoder_.encode(check_matrix(X))

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)
