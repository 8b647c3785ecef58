"""Estimator-style API over the training pipeline and prototype classifier.

These classes follow the scikit-learn protocol (``fit``/``transform``/
``predict`` plus ``get_params``/``set_params``) without importing sklearn,
so they drop into pipelines and grid searches that only rely on the
protocol. Each estimator is a dataclass whose fields are its constructor
parameters, stored verbatim; everything learned in ``fit`` lands on
trailing-underscore attributes. The input checks (a finite non-empty 2-D
``X``, integer labels of matching length, fitted before use) live here too.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .batching import AugmentConfig
from .core import l2_normalize
from .data import Split
from .encoders import Encoder
from .exceptions import ParameterError, ShapeError
from .training import NetConfig, TrainConfig, train_variant


def check_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ShapeError(f"{name} must be a nonempty 2-D array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ParameterError(f"{name} contains non-finite values")
    return X


def check_labels(y, n_rows: int, name: str = "y") -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or len(y) != n_rows:
        raise ShapeError(f"{name} must be 1-D with {n_rows} entries, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        rounded = np.asarray(y, dtype=np.int64)
        if not np.all(rounded == y):
            raise ParameterError(f"{name} must hold integer class ids")
        y = rounded
    return y.astype(np.int64)


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise ParameterError(
            f"{type(estimator).__name__} is not fitted yet; call fit before predict/transform"
        )


class BaseEstimator:
    """get_params/set_params over the dataclass fields."""

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "BaseEstimator":
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ParameterError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self


@dataclass(eq=False)
class PrototypeClassifier(BaseEstimator):
    """Cosine nearest-prototype classifier.

    ``fit`` averages the (optionally encoder-embedded) rows of each class
    and L2-normalizes the result; ``predict`` returns the class whose
    prototype has the highest cosine similarity, ties to the lowest class.
    """

    encoder: Encoder | None = None

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


@dataclass(eq=False)
class PALRepresentation(BaseEstimator):
    """Two-stage representation learner behind fit/transform.

    ``fit(X, y)`` runs the configured training variant on the rows of X as
    the base split; ``transform`` maps rows to unit embeddings under the
    evaluation encoder. The trained pieces are exposed as ``encoder_``,
    ``partner_``, and ``classifier_``.

    With no ``train_config`` it trains the full-scale 90-epoch
    ``TrainConfig()`` schedule; the CLI trains ``config.DESK_TRAIN`` instead.
    """

    variant: str = "PAL"
    train_config: TrainConfig | None = None
    augment_config: AugmentConfig | None = None
    classifier_scale: float = 10.0

    def fit(self, X, y) -> "PALRepresentation":
        X = check_matrix(X)
        y = check_labels(y, len(X))
        # TrainConfig parses the variant name, and refuses an unknown one.
        cfg = replace(self.train_config or TrainConfig(), variant=self.variant)
        split = Split(x=X.astype(np.float32), y=y.astype(np.int32),
                      label_width=int(y.max()) + 1)
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
