"""Two-stage training pipeline and every ablation variant.

Stage one (:func:`train_partner`) trains the partner encoder under a
contrastive or a CE objective; stage two (:func:`train_main`) trains the
evaluated network: for PAL the main encoder (plus its cosine classifier)
under cross-entropy with optional feature-level and logit-level alignment
against the frozen partner. ``train_variant`` runs every alternative of the
ablation grid (baselines, multi-task, mutual learning, the reversed order,
other partner objectives) as an optional partner stage, then a main stage.

A run is fixed by its ``TrainConfig`` (objective and schedule), its
``AugmentConfig``, its ``NetConfig`` (the network shape every stage shares:
hidden and embedding widths, the classifier's scale and, optionally, the
input width the data must have) and its data.

A stage is data: ``_STAGES`` maps each variant to its frozen ``_Stage``
records, each with a display name (variant and role), its data-order seed
stream and seed, and its networks (objective and init streams; two for
``Mutual``'s main stage, each aligned to the other by a ``"peer"`` term).
``_train_stage`` is the one training loop: it builds a record's models and
owns the data order, batching, every loss term, the non-finite loss check,
the optimizer step under the lr schedule and the alignment warm-up, the
metrics log, and the final float32 rounding. ``_run`` is the one stage
runner behind ``train_partner`` and ``train_main``, and alone decides a run
directory's layout: ``{role}_encoder.palw``, ``main_classifier.palw``,
``peer_encoder.palw`` and ``metrics_{role}.csv``.

Runs are fully independent (each derives every generator it uses from its
own seed), so a grid can run them concurrently; or they share stages: with
one ``reuse`` dict, each distinct :func:`_stage_key` (exactly what fixes a
stage's bytes) trains once; ``train_variant`` hands the dict to the stages
that are some variant's partner stage only. Without the dict nothing is
hashed or stored.

Logged loss components are per-instance means (component sums divided by the
2B batch rows), so learning rates keep the same meaning across batch sizes;
the loss *functions* themselves sum over instances as documented.
"""
from __future__ import annotations

import copy
import hashlib
import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .batching import AugmentConfig, build_batch, sample_anchor_sets
from .core import Tensor, backward, scale, softmax_temperature
from .data import Split, write_csv
from .encoders import (
    CosineClassifier,
    Encoder,
    EncoderConfig,
    check_shape,
    save_classifier,
    save_encoder,
)
from .exceptions import ContractError, DivergenceError, ParameterError
from .losses import (
    ContrastiveBatchView,
    ce_loss_batch,
    ct_loss,
    feat_align_loss,
    kl_loss_batch,
    logit_align_loss_batch,
    supct_loss,
)

logger = logging.getLogger(__name__)


class Variant(str, Enum):
    PAL = "PAL"
    CE_ONLY = "CE_only"
    SUPCT_ONLY = "SupCT_only"
    MULTITASK = "MultiTask"
    MUTUAL = "Mutual"
    REVERSE = "Reverse"
    PARTNER_CT = "Partner_CT"
    PARTNER_CE = "Partner_CE"
    PAL_LOGIT_ONLY = "PAL_logit_only"
    PAL_FEAT_ONLY = "PAL_feat_only"
    PAL_KL_LOGIT = "PAL_KL_logit"
    PAL_FEAT_KL = "PAL_feat_KL"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        for member in cls:
            if member.value == name:
                return member
        raise ParameterError(
            f"unknown variant {name!r}; expected one of {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 90
    lr: float = 0.03
    lr_decay_factor: float = 10.0
    lr_decay_epoch: int = 60
    batch_size: int = 64
    tau: float = 0.5
    kl_tau: float | None = None  # temperature for the KL alignment rows
    logit_tau: float | None = None  # soft-label temperature for logit alignment
    warmup_epochs: int = 30
    seed: int = 0
    variant: Variant = Variant.PAL
    weight_decay: float = 5e-4
    momentum: float = 0.0
    n_pos: int | None = None  # anchor positives per instance; None = all
    n_neg: int | None = None

    def __post_init__(self):
        if isinstance(self.variant, str):
            object.__setattr__(self, "variant", Variant.parse(self.variant))
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.lr <= 0:
            raise ParameterError(f"lr must be positive, got {self.lr}")
        if self.lr_decay_factor <= 0:
            raise ParameterError(f"lr_decay_factor must be positive, got {self.lr_decay_factor}")
        if not 0 <= self.lr_decay_epoch <= self.epochs:
            raise ParameterError(
                f"lr_decay_epoch must lie in [0, epochs], got {self.lr_decay_epoch}"
            )
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ParameterError(
                f"warmup_epochs must lie in [0, epochs], got {self.warmup_epochs}"
            )
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 <= self.momentum < 1:
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        for name in ("kl_tau", "logit_tau"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ParameterError(f"{name} must be positive or None, got {value}")
        for name in ("n_pos", "n_neg"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ParameterError(f"{name} must be >= 1 or None, got {value}")

    @property
    def kl_temperature(self) -> float:
        return self.tau if self.kl_tau is None else self.kl_tau

    @property
    def logit_temperature(self) -> float:
        """Temperature applied to the partner's logits when forming the
        logit-alignment soft label; the contrastive tau by default."""
        return self.tau if self.logit_tau is None else self.logit_tau


@dataclass(frozen=True)
class NetConfig:
    """The network shape of a run; its fields are the ``[encoder]`` keys of
    a config file. ``input_dim`` 0 takes the width from the data."""

    input_dim: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)
    embed_dim: int = 32
    scale: float = 10.0  # cosine-classifier logit scale

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        check_shape(self.input_dim, self.hidden_dims, self.embed_dim, min_input=0)
        if not self.scale > 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")

    def encoder(self, input_dim: int, seed: int) -> Encoder:
        if self.input_dim and self.input_dim != input_dim:
            raise ParameterError(
                f"[encoder] input_dim = {self.input_dim} but the data has {input_dim} features"
            )
        return Encoder(EncoderConfig(input_dim, self.hidden_dims, self.embed_dim, seed))

    def classifier(self, n_classes: int, seed: int) -> CosineClassifier:
        return CosineClassifier(n_classes, self.embed_dim, self.scale, seed)


class WarmupSchedule:
    """Linear ramp of the logit-alignment weight: 0 at epoch 0, 1 from
    ``warmup_epochs`` on, nondecreasing, capped at 1."""

    def __init__(self, warmup_epochs: int):
        if warmup_epochs < 0:
            raise ParameterError(f"warmup_epochs must be >= 0, got {warmup_epochs}")
        self.warmup_epochs = warmup_epochs

    def __call__(self, epoch: int) -> float:
        if self.warmup_epochs == 0:
            return 1.0
        return min(1.0, epoch / self.warmup_epochs)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: initial lr, divided by the decay factor from the decay
    epoch onward."""
    if not 0 <= epoch < cfg.epochs:
        raise ParameterError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.lr_decay_epoch:
        return cfg.lr
    return cfg.lr / cfg.lr_decay_factor


def sgd_step(params: list[Tensor], lr: float, weight_decay: float = 0.0) -> None:
    """One vanilla step: ``p <- p - lr * (grad + weight_decay * p)``."""
    SGD(params).step(lr, weight_decay)


class SGD:
    """SGD with optional momentum: ``v <- momentum * v + grad + weight_decay
    * p``, then ``p <- p - lr * v``. At momentum 0 the velocity is exactly
    this step's gradient, so the step is the vanilla one bit for bit."""

    def __init__(self, params: list[Tensor], momentum: float = 0.0):
        self.params = list(params)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float, weight_decay: float = 0.0) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                raise ContractError("SGD.step: parameter has no gradient; run backward first")
            g = weight_decay * p.data
            g += p.grad
            v *= self.momentum
            v += g
            p.data = p.data - np.multiply(v, lr, out=g)


METRIC_COLUMNS = (
    "epoch",
    "step",
    "lr",
    "loss_total",
    "loss_ce",
    "loss_feat",
    "loss_logit",
    "w_logit",
    "skipped_positive_instances",
    "loss_aux",
)


class MetricsLogger:
    """Per-step training log with a fixed CSV schema."""

    def __init__(self):
        self.rows: list[dict] = []

    def log(self, **kwargs) -> None:
        unknown = sorted(set(kwargs) - set(METRIC_COLUMNS))
        if unknown:
            raise ContractError(f"MetricsLogger.log: unknown column(s) {unknown}")
        row = {col: kwargs.get(col, 0.0) for col in METRIC_COLUMNS}
        self.rows.append(row)

    def write_csv(self, path) -> None:
        write_csv(path, METRIC_COLUMNS, (row.values() for row in self.rows))


def _seed_streams(cfg: TrainConfig) -> dict[str, np.random.SeedSequence]:
    names = (
        "partner_init",
        "main_init",
        "classifier_init",
        "partner_data",
        "main_data",
        "anchors",
        "second_init",
        "eval",
    )
    return dict(zip(names, np.random.SeedSequence(cfg.seed).spawn(len(names))))


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def eval_seed(cfg: TrainConfig) -> int:
    """Evaluation stream tied to the run seed (shared across variants with
    the same seed, so comparisons are paired)."""
    return _seed_int(_seed_streams(cfg)["eval"])


def _iter_batches(
    split: Split, cfg: TrainConfig, rng: np.random.Generator, aug: AugmentConfig
):
    order = rng.permutation(len(split.y))
    for start in range(0, len(order), cfg.batch_size):
        chunk = order[start : start + cfg.batch_size]
        yield build_batch(split.x[chunk].astype(np.float64), split.y[chunk], rng, aug)


def quantize_to_storage(*models) -> None:
    """Round parameters to float32 so in-memory weights match checkpoint
    bytes exactly; training always ends with this before returning."""
    for model in models:
        for p in model.parameters():
            p.data = p.data.astype("<f4").astype(np.float64)


@dataclass
class StageResult:
    encoder: Encoder
    classifier: CosineClassifier | None
    metrics: MetricsLogger
    encoder_checkpoint: Path | None = None
    classifier_checkpoint: Path | None = None
    peer: Encoder | None = None  # the other network of a joint stage (Mutual's SupCon one)


@dataclass
class VariantResult:
    variant: Variant
    encoder: Encoder  # the network used at evaluation time
    classifier: CosineClassifier | None
    partner: Encoder | None
    metrics: dict[str, MetricsLogger]
    encoder_checkpoint: Path | None = None


# Loss columns checked after every step, components before their total.
LOSS_COLUMNS = ("loss_ce", "loss_feat", "loss_logit", "loss_aux", "loss_total")


@dataclass(frozen=True)
class _Objective:
    """The loss terms of one network, summed in field order. The contrastive
    term is logged as ``loss_aux``, a ``logit`` or ``kl`` alignment is weighted
    by the warm-up, and a ``peer`` alignment (KL at temperature 1 to the other
    peer's class probabilities, held constant) is logged unweighted as ``loss_aux``."""

    ce: bool = False
    feat: bool = False
    contrastive: str = "none"  # none | supct | ct
    align: str = "none"  # none | logit | kl | peer

    @property
    def needs_partner(self) -> bool:
        return self.feat or self.align in ("logit", "kl")

    def reads(self, cfg: TrainConfig) -> tuple:
        """The resolved ``cfg`` values beyond the schedule that the network's
        terms and metrics row read, None for each it does not: the warm-up (a
        peer term logs ``w_logit`` as 1), ``tau``, the logit and KL
        temperatures, and the anchor caps (None too for a cap no batch
        reaches: a row of a batch has at most ``2 * batch_size - 1`` positives
        and, its other view being one, ``2 * batch_size - 2`` negatives)."""
        most = 2 * cfg.batch_size - 1
        return (None if self.align == "peer" else cfg.warmup_epochs,
                cfg.tau if self.feat or self.contrastive != "none" else None,
                cfg.logit_temperature if self.align == "logit" else None,
                cfg.kl_temperature if self.align == "kl" else None,
                tuple(None if cap is not None and cap >= top else cap for cap, top in
                      ((cfg.n_pos, most), (cfg.n_neg, most - 1))) if self.feat else None)


@dataclass(frozen=True)
class _Network:
    """A network of a stage: its objective and its init seed streams. It has a
    classifier when the objective has CE or an alignment term."""

    objective: _Objective
    encoder_init: str
    classifier_init: str = "classifier_init"

    @property
    def classified(self) -> bool:
        return self.objective.ce or self.objective.align != "none"


@dataclass(frozen=True)
class _Stage:
    """A stage of a variant. ``variant`` and ``role`` ("partner" or "main")
    only name it, so they are no part of its equality. ``data`` is its
    data-order seed stream, and ``seed`` the stream of the run seed its own
    seed is drawn from (None: the run seed)."""

    variant: Variant = field(compare=False)
    role: str = field(compare=False)
    networks: tuple[_Network, ...]
    data: str
    seed: str | None = None

    @property
    def name(self) -> str:
        return f"{self.variant.value} {self.role}"

    @property
    def needs_partner(self) -> bool:
        return any(n.objective.needs_partner for n in self.networks)


_SUPCT = _Objective(contrastive="supct")
_CE = _Objective(ce=True)
_PAL = _Objective(ce=True, feat=True, align="logit")


def _partner(objective: _Objective, role: str = "partner") -> tuple:
    """The ``_Stage`` fields after the variant of a partner stage under
    ``objective``. A CE partner trains as ``CE_only``'s main stage does, under
    the seed drawn from the run's ``partner_init`` stream, so partner and main
    share neither init nor batch order."""
    if objective == _CE:
        return role, (_Network(_CE, "main_init"),), "main_data", "partner_init"
    return role, (_Network(objective, "partner_init"),), "partner_data"


def _main(objective: _Objective) -> tuple:
    return "main", (_Network(objective, "main_init"),), "main_data"


# Every variant's stages, in the order train_variant runs them.
_STAGES = {variant: tuple(_Stage(variant, *fields) for fields in stages) for variant, stages in {
    Variant.PAL: (_partner(_SUPCT), _main(_PAL)),
    Variant.CE_ONLY: (_main(_CE),),
    # The SupCon partner, evaluated as it is.
    Variant.SUPCT_ONLY: (_partner(_SUPCT, "main"),),
    Variant.MULTITASK: (_main(_Objective(ce=True, contrastive="supct")),),
    # Deep mutual learning: a SupCon and the evaluated CE network train from
    # scratch as one stage, each aligned to the other.
    Variant.MUTUAL: (("main", (
        _Network(_Objective(contrastive="supct", align="peer"), "partner_init", "second_init"),
        _Network(_Objective(ce=True, align="peer"), "main_init")), "main_data"),),
    # Contrastive second network anchored on a cross-entropy partner.
    Variant.REVERSE: (_partner(_CE), _main(_Objective(feat=True, contrastive="supct"))),
    Variant.PARTNER_CT: (_partner(_Objective(contrastive="ct")), _main(_PAL)),
    Variant.PARTNER_CE: (_partner(_CE), _main(_PAL)),
    Variant.PAL_LOGIT_ONLY: (_partner(_SUPCT), _main(_Objective(ce=True, align="logit"))),
    Variant.PAL_FEAT_ONLY: (_partner(_SUPCT), _main(_Objective(ce=True, feat=True))),
    Variant.PAL_KL_LOGIT: (_partner(_SUPCT), _main(_Objective(ce=True, align="kl"))),
    Variant.PAL_FEAT_KL: (_partner(_SUPCT), _main(_Objective(ce=True, feat=True, align="kl"))),
}.items()}

# The stages train_variant stores in a reuse dict: every variant's partner
# stage, which SupCT_only's main stage equals.
_PARTNERS = {stage for stages in _STAGES.values() for stage in stages if stage.role == "partner"}


def _stage_of(variant: Variant, role: str) -> _Stage:
    for stage in _STAGES[variant]:
        if stage.role == role:
            return stage
    raise ParameterError(f"variant {variant.value} has no {role} stage of its own")


def _require_rows(stage: _Stage, base: Split) -> None:
    """Reject a split the stage cannot train on, naming the stage, before any
    model is built: an empty one, or one of fewer than 2 classes when a
    network of the stage has cross-entropy."""
    if len(base.y) == 0:
        raise ParameterError(f"{stage.name} stage: the base split has no rows")
    n_classes = len(base.classes)
    if n_classes < 2 and any(n.objective.ce for n in stage.networks):
        raise ParameterError(
            f"{stage.name} stage: cross-entropy needs >= 2 base classes, got {n_classes}"
        )


def _digest(*arrays) -> str:
    """SHA-256 of ``arrays``, each with its dtype and shape."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


# The TrainConfig fields every stage reads (and lr_decay_factor, when the lr
# decays); the others are in _Objective.reads.
_SCHEDULE = ("epochs", "lr", "lr_decay_epoch", "batch_size", "seed", "weight_decay", "momentum")


def _stage_key(
    stage: _Stage, base: Split, cfg: TrainConfig, partner, aug, net: NetConfig
) -> tuple:
    """Exactly what fixes the bytes ``stage`` trains: the record without its
    name, the schedule (the decay factor only if the lr decays), the resolved
    values its networks read, the ``AugmentConfig``, the network shape (input
    width resolved, classifier scale only for a stage with a classifier), the
    split's arrays and label width and, for an aligned stage, its partner's
    weights. So one dict serves calls on other splits, configs or partners,
    and calls that differ only in a value the stage does not read share it."""
    classified = any(n.classified for n in stage.networks)
    return (
        stage,
        tuple(getattr(cfg, name) for name in _SCHEDULE),
        cfg.lr_decay_factor if cfg.lr_decay_epoch < cfg.epochs else None,
        tuple(n.objective.reads(cfg) for n in stage.networks),
        aug if aug is not None else AugmentConfig(),
        (net.input_dim or base.dim, net.hidden_dims, net.embed_dim,
         net.scale if classified else None),
        _digest(base.x, base.y, np.array(base.label_width)),
        _digest(*(p.data for p in partner.parameters())) if stage.needs_partner else None,
    )


def _trained(
    stage: _Stage, base: Split, cfg: TrainConfig, partner, aug, net: NetConfig, reuse: dict | None
) -> StageResult:
    """``stage`` trained on ``base``, once its inputs are checked. With a
    ``reuse`` dict it trains only if its :func:`_stage_key` is not in the dict
    yet, and is stored under it; either way the caller gets a copy, so what
    it does to the result never reaches the dict or another caller."""
    _require_rows(stage, base)
    if len(base.classes) == 1 and stage.networks[0].objective == _SUPCT:
        logger.warning("%s stage: single-class data; every batch is all-positive and "
                       "the SupCon objective is degenerate", stage.name)
    if stage.needs_partner:
        variant = stage.variant.value
        if partner is None or not partner.frozen:
            raise ContractError(f"variant {variant} needs a frozen partner encoder")
        if partner.config.embed_dim != net.embed_dim:
            raise ContractError(
                f"variant {variant}: the partner embeds in {partner.config.embed_dim} "
                f"dimensions but the main encoder in {net.embed_dim}"
            )
        if partner.config.input_dim != base.dim:
            raise ContractError(
                f"variant {variant}: the partner takes {partner.config.input_dim} "
                f"input features but the base split has {base.dim}"
            )
    if reuse is None:
        return _train_stage(stage, base, cfg, partner, aug, net)
    key = _stage_key(stage, base, cfg, partner, aug, net)
    if key not in reuse:
        reuse[key] = _train_stage(stage, base, cfg, partner, aug, net)
    return copy.deepcopy(reuse[key])


def _train_stage(
    stage: _Stage, base: Split, cfg: TrainConfig, partner: Encoder | None, aug, net: NetConfig
) -> StageResult:
    """The one training loop: train ``stage``'s networks jointly.

    All their encoders' and classifiers' parameters share one optimizer, and
    classifier rows are re-normalized after every step. The data order is
    drawn from the stage's ``data`` seed stream. Each network's terms'
    per-instance means sum to its own backward root: one summed root could
    reorder the gradient accumulation, and so the trained bytes. The first
    non-finite loss (:class:`DivergenceError`, naming the stage) raises
    before its own step, so a failed stage returns nothing to save. The
    result is the last network's; an earlier one's encoder is its ``peer``.
    """
    if stage.seed is not None:
        cfg = replace(cfg, seed=_seed_int(_seed_streams(cfg)[stage.seed]))
    streams = _seed_streams(cfg)
    class_list = base.classes
    objectives = [n.objective for n in stage.networks]
    encs = [net.encoder(base.dim, _seed_int(streams[n.encoder_init])) for n in stage.networks]
    clfs = [net.classifier(len(class_list), _seed_int(streams[n.classifier_init]))
            if n.classified else None for n in stage.networks]
    models = [m for pair in zip(encs, clfs) for m in pair if m is not None]
    opt = SGD([p for model in models for p in model.parameters()], momentum=cfg.momentum)
    anchor_rng = np.random.default_rng(streams["anchors"])
    data_rng = np.random.default_rng(streams[stage.data])
    schedule = WarmupSchedule(cfg.warmup_epochs)
    aug = aug if aug is not None else AugmentConfig()
    metrics = MetricsLogger()

    for epoch in range(cfg.epochs):
        lr, w = lr_at(epoch, cfg), schedule(epoch)
        for step, batch in enumerate(_iter_batches(base, cfg, data_rng, aug)):
            zs = [enc.embed(batch.inputs) for enc in encs]
            logits = [clf.logits(z) if clf else None for clf, z in zip(clfs, zs)]
            # The anchors are the partner's embeddings of this batch, so a
            # variant that samples them encodes the batch once.
            if any(objective.feat for objective in objectives):
                anchors = sample_anchor_sets(
                    partner, batch, anchor_rng, n_pos=cfg.n_pos, n_neg=cfg.n_neg
                )
                z_partner = anchors.features
            elif stage.needs_partner:
                z_partner = partner.encode(batch.inputs)

            roots = []
            row = {"epoch": epoch, "step": step, "lr": lr, "w_logit": w,
                   "skipped_positive_instances": 0}
            for i, (objective, z, clf) in enumerate(zip(objectives, zs, clfs)):
                terms = []
                if objective.ce:
                    terms.append(("loss_ce", ce_loss_batch(
                        logits[i], np.searchsorted(class_list, batch.labels))))
                if objective.feat:
                    result = feat_align_loss(z, anchors, cfg.tau)
                    terms.append(("loss_feat", result.loss))
                    row["skipped_positive_instances"] += result.skipped
                if objective.contrastive == "supct":
                    result = supct_loss(ContrastiveBatchView.supervised(z, batch.labels, cfg.tau))
                elif objective.contrastive == "ct":
                    result = ct_loss(ContrastiveBatchView.unsupervised(z, batch.labels, cfg.tau))
                if objective.contrastive != "none":
                    terms.append(("loss_aux", result.loss))
                    row["skipped_positive_instances"] += result.skipped
                if objective.align == "logit":
                    terms.append(("loss_logit", logit_align_loss_batch(
                        clf, z_partner[batch.view_map], logits[i], cfg.logit_temperature)))
                elif objective.align != "none":
                    # A constant teacher: the partner's class probabilities, or the other peer's.
                    if objective.align == "kl":
                        column, tau = "loss_logit", cfg.kl_temperature
                        teacher = clf.logits(z_partner)
                    else:
                        column, teacher, tau = "loss_aux", logits[i - 1].data, 1.0
                        row["w_logit"] = 1.0
                    terms.append((column, kl_loss_batch(
                        softmax_temperature(teacher, tau), softmax_temperature(logits[i], tau))))

                # -0.0 is the identity of float addition: a column's first value
                # is logged as it is, and later networks' values add to it.
                total = None
                for column, loss in terms:
                    term = scale(loss, 1.0 / batch.size)
                    row[column] = row.get(column, -0.0) + float(term)
                    if column == "loss_logit":
                        term = scale(term, w)
                    total = term if total is None else total + term
                row["loss_total"] = row.get("loss_total", -0.0) + float(total)
                roots.append(total)

            for column in LOSS_COLUMNS:
                if not math.isfinite(row.get(column, 0.0)):
                    raise DivergenceError(
                        f"{stage.name} stage diverged: {column} = "
                        f"{row[column]} at epoch {epoch}, step {step}"
                    )
            opt.zero_grad()
            for root in roots:
                backward(root)
            opt.step(lr, cfg.weight_decay)
            for clf in filter(None, clfs):
                clf.renormalize()
            metrics.log(**row)

    opt.zero_grad()  # the last step's gradients; a trained model does not carry them
    quantize_to_storage(*models)
    return StageResult(encs[-1], clfs[-1], metrics, peer=encs[0] if len(encs) > 1 else None)


def _run(role: str, base: Split, cfg: TrainConfig, partner, aug, out_dir, net: NetConfig,
         reuse: dict | None) -> StageResult:
    """The one stage runner: train ``cfg.variant``'s ``role`` stage through
    :func:`_trained` and write it under ``out_dir`` (nothing when it is None)
    as ``{role}_encoder.palw`` and ``metrics_{role}.csv``; a main stage's
    classifier as ``main_classifier.palw``, and a joint stage's other network
    as ``peer_encoder.palw``. The result carries the checkpoint paths."""
    done = _trained(_stage_of(cfg.variant, role), base, cfg, partner, aug, net, reuse)
    if out_dir is None:
        return done
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if done.peer is not None:
        save_encoder(done.peer, out / "peer_encoder.palw")
    done.encoder_checkpoint = out / f"{role}_encoder.palw"
    save_encoder(done.encoder, done.encoder_checkpoint)
    if role == "main" and done.classifier is not None:
        done.classifier_checkpoint = out / "main_classifier.palw"
        save_classifier(done.classifier, done.classifier_checkpoint)
    done.metrics.write_csv(out / f"metrics_{role}.csv")
    return done


def train_partner(
    base: Split,
    cfg: TrainConfig,
    aug: AugmentConfig | None = None,
    out_dir=None,
    net: NetConfig = NetConfig(),
    *,
    reuse: dict | None = None,
) -> StageResult:
    """Stage one: train ``cfg.variant``'s partner stage, SupCT, CT
    (``Partner_CT``) or CE (``Reverse``, ``Partner_CE``).

    With a ``reuse`` dict, a stage whose :func:`_stage_key` the dict holds is
    not trained again, and a stage that trains is stored under it; either way
    the caller gets (and ``out_dir`` is written from) its own copy."""
    return _run("partner", base, cfg, None, aug, out_dir, net, reuse)


def train_main(
    base: Split,
    cfg: TrainConfig,
    partner: Encoder | None = None,
    aug: AugmentConfig | None = None,
    out_dir=None,
    net: NetConfig = NetConfig(),
    *,
    reuse: dict | None = None,
) -> StageResult:
    """Stage two: train ``cfg.variant``'s main stage, the evaluated network:
    for PAL the main encoder and classifier under ``L = L_CE + L_feat +
    w(epoch) * L_align`` against the frozen ``partner``; for ``SupCT_only``
    the SupCon encoder alone. ``Mutual``'s trains its two peers jointly: the
    result is the CE one, and its ``peer`` the SupCon one, saved as ``peer``.
    ``reuse`` works as in :func:`train_partner`."""
    return _run("main", base, cfg, partner, aug, out_dir, net, reuse)


# perfbench/tracer.py patches this name; Mutual's stage trains through train_main.
_train_mutual = train_main


def train_variant(
    base: Split,
    cfg: TrainConfig,
    aug: AugmentConfig | None = None,
    out_dir=None,
    net: NetConfig = NetConfig(),
    *,
    reuse: dict | None = None,
) -> VariantResult:
    """Train ``cfg.variant``'s ``_STAGES``: the partner stage, if it has one,
    through :func:`train_partner`, then the main stage, the evaluated one,
    through :func:`train_main`; return it and all that was trained.

    ``reuse`` reaches the stages in ``_PARTNERS`` only, every partner stage
    and ``SupCT_only``'s main one: one dict shared by the rows of a grid or
    the settings of a sweep trains each distinct partner, CE partners
    included, once, and every row gets its own copy of it. Other main stages
    are not stored: no table repeats one."""
    stages = _STAGES[cfg.variant]
    for stage in stages:  # every stage is checked before the first one writes anything
        _require_rows(stage, base)
    partner, metrics = None, {}
    if stages[0].role == "partner":
        stage1 = train_partner(base, cfg, aug, out_dir, net, reuse=reuse)
        metrics["partner"], partner = stage1.metrics, stage1.encoder.freeze()
    main = train_main(base, cfg, partner, aug, out_dir, net,
                      reuse=reuse if stages[-1] in _PARTNERS else None)
    metrics["main"] = main.metrics
    return VariantResult(cfg.variant, main.encoder, main.classifier, partner or main.peer,
                         metrics, main.encoder_checkpoint)
