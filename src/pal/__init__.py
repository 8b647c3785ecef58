"""Partner-assisted representation learning, desk scale.

Two-stage training: a contrastively-trained partner encoder supplies
soft-anchors that regularize a main encoder through logit-level and
feature-level alignment; encoders are scored by episodic N-way K-shot
prototype classification.
"""

__version__ = "0.1.0"

from .batching import AugmentConfig, AugmentedBatch, AnchorSets
from .core import Tensor, backward
from .data import Split, SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoders import CosineClassifier, Encoder, EncoderConfig, load_encoder, save_encoder
from .episodes import EvalReport, evaluate, sample_episode
from .estimators import PALRepresentation, PrototypeClassifier
from .exceptions import (
    CapacityError,
    ContractError,
    DivergenceError,
    DomainError,
    FeasibilityError,
    FormatError,
    PALError,
    ParameterError,
    ShapeError,
)
from .training import NetConfig, TrainConfig, Variant, train_main, train_partner, train_variant

__all__ = [
    "__version__",
    "Tensor",
    "backward",
    "AugmentConfig",
    "AugmentedBatch",
    "AnchorSets",
    "Split",
    "SyntheticSpec",
    "generate_synthetic",
    "load_dataset",
    "save_dataset",
    "Encoder",
    "EncoderConfig",
    "CosineClassifier",
    "load_encoder",
    "save_encoder",
    "EvalReport",
    "evaluate",
    "sample_episode",
    "PALRepresentation",
    "PrototypeClassifier",
    "NetConfig",
    "TrainConfig",
    "Variant",
    "train_partner",
    "train_main",
    "train_variant",
    "PALError",
    "ShapeError",
    "DomainError",
    "ParameterError",
    "ContractError",
    "DivergenceError",
    "CapacityError",
    "FormatError",
    "FeasibilityError",
]
