"""Run configuration: file format, defaults, and override resolution.

A run config is a flat INI-style text file with sections ``[data]``,
``[encoder]``, ``[augment]``, ``[train]`` holding ``key = value`` lines.
Unknown sections or keys are errors, so typos fail fast. Files may omit any
key; omitted keys take the desk-scale defaults below. CLI flags override
file values, and the ``PAL_SEED`` environment variable overrides the seed
from either source.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .batching import AugmentConfig
from .exceptions import ParameterError
from .training import TrainConfig

SEED_ENV_VAR = "PAL_SEED"

# Desk-scale training defaults: a third of the full-scale 90/60/30 schedule,
# with momentum on and a contrastive temperature calibrated to the synthetic
# benchmark (sharper than the full-scale values, in line with small-input
# contrastive practice). The dataclass defaults on TrainConfig remain the
# full-scale values.
DESK_TRAIN = dict(
    epochs=30,
    lr=0.03,
    lr_decay_factor=10.0,
    lr_decay_epoch=20,
    batch_size=64,
    tau=0.05,
    warmup_epochs=10,
    seed=0,
    variant="PAL",
    weight_decay=0.0,
    momentum=0.9,
)
DESK_AUGMENT = dict(noise_sigma=0.75, mask_prob=0.1)  # noise = default margin / 4
DESK_ENCODER = dict(input_dim=0, hidden_dims=(64, 64), embed_dim=32, scale=10.0)


@dataclass
class RunConfig:
    base_path: str = ""
    novel_path: str = ""
    encoder_hidden_dims: tuple[int, ...] = (64, 64)
    encoder_embed_dim: int = 32
    encoder_input_dim: int = 0  # 0 = infer from the data file
    classifier_scale: float = 10.0
    augment: AugmentConfig = field(default_factory=lambda: AugmentConfig(**DESK_AUGMENT))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(**DESK_TRAIN))


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ParameterError(f"hidden_dims must be integers, got {text!r}") from None
    if not dims:
        raise ParameterError("hidden_dims must name at least one layer")
    return dims


def _parse_optional_int(text: str):
    if text.strip().lower() in ("all", "none", ""):
        return None
    return int(text)


def _parse_optional_float(text: str):
    if text.strip().lower() in ("none", ""):
        return None
    return float(text)


_SCHEMA = {
    "data": {"base": str, "novel": str},
    "encoder": {
        "input_dim": int,
        "hidden_dims": _parse_hidden_dims,
        "embed_dim": int,
        "scale": float,
    },
    "augment": {"noise_sigma": float, "mask_prob": float},
    "train": {
        "epochs": int,
        "lr": float,
        "lr_decay_factor": float,
        "lr_decay_epoch": int,
        "batch_size": int,
        "tau": float,
        "kl_tau": _parse_optional_float,
        "logit_tau": _parse_optional_float,
        "warmup_epochs": int,
        "seed": int,
        "variant": str,
        "weight_decay": float,
        "momentum": float,
        "n_pos": _parse_optional_int,
        "n_neg": _parse_optional_int,
    },
}


def parse_config_file(path) -> dict[str, dict]:
    """Read and type-check a config file; unknown sections/keys are errors."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep keys case-sensitive
    read = parser.read(path)
    if not read:
        raise ParameterError(f"config file {path} not found")
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ParameterError(
                f"{path}: unknown section [{section}]; expected {sorted(_SCHEMA)}"
            )
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ParameterError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected {sorted(_SCHEMA[section])}"
                )
            caster = _SCHEMA[section][key]
            try:
                values[section][key] = caster(raw)
            except ParameterError:
                raise
            except ValueError:
                raise ParameterError(
                    f"{path}: bad value {raw!r} for {key} in [{section}]"
                ) from None
    return values


def parse_overrides(pairs: list[str]) -> dict[str, dict]:
    """Parse repeated ``--set section.key=value`` CLI flags."""
    values: dict[str, dict] = {}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ParameterError(f"override {pair!r} must look like section.key=value")
        target, raw = pair.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ParameterError(f"override {pair!r} names no known config key")
        caster = _SCHEMA[section][key]
        try:
            values.setdefault(section, {})[key] = caster(raw)
        except ParameterError:
            raise
        except ValueError:
            raise ParameterError(f"override {pair!r}: bad value {raw!r}") from None
    return values


def build_run_config(
    config_path=None,
    overrides: list[str] | None = None,
    seed: int | None = None,
    variant: str | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Resolve file values, ``--set`` overrides, dedicated flags, and
    ``PAL_SEED`` (which wins over everything) into a RunConfig."""
    merged = {s: dict() for s in _SCHEMA}
    if config_path is not None:
        for section, kv in parse_config_file(config_path).items():
            merged[section].update(kv)
    for section, kv in parse_overrides(overrides or []).items():
        merged[section].update(kv)
    if seed is not None:
        merged["train"]["seed"] = int(seed)
    if variant is not None:
        merged["train"]["variant"] = variant
    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        try:
            merged["train"]["seed"] = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ParameterError(
                f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}"
            ) from None

    train_kwargs = {**DESK_TRAIN, **merged["train"]}
    train = TrainConfig(**train_kwargs)
    augment = AugmentConfig(**{**DESK_AUGMENT, **merged["augment"]})
    enc = {**DESK_ENCODER, **merged["encoder"]}
    return RunConfig(
        base_path=merged["data"].get("base", ""),
        novel_path=merged["data"].get("novel", ""),
        encoder_hidden_dims=tuple(enc["hidden_dims"]),
        encoder_embed_dim=int(enc["embed_dim"]),
        encoder_input_dim=int(enc["input_dim"]),
        classifier_scale=float(enc["scale"]),
        augment=augment,
        train=train,
    )


def write_config_template(path, run: RunConfig | None = None) -> None:
    """Write a complete config file with every supported key spelled out."""
    run = run or RunConfig()
    t = run.train
    lines = [
        "[data]",
        f"base = {run.base_path or 'data/base.pald'}",
        f"novel = {run.novel_path or 'data/novel.pald'}",
        "",
        "[encoder]",
        f"input_dim = {run.encoder_input_dim}",
        f"hidden_dims = {','.join(str(h) for h in run.encoder_hidden_dims)}",
        f"embed_dim = {run.encoder_embed_dim}",
        f"scale = {run.classifier_scale}",
        "",
        "[augment]",
        f"noise_sigma = {run.augment.noise_sigma}",
        f"mask_prob = {run.augment.mask_prob}",
        "",
        "[train]",
        f"epochs = {t.epochs}",
        f"lr = {t.lr}",
        f"lr_decay_factor = {t.lr_decay_factor}",
        f"lr_decay_epoch = {t.lr_decay_epoch}",
        f"batch_size = {t.batch_size}",
        f"tau = {t.tau}",
        f"kl_tau = {'none' if t.kl_tau is None else t.kl_tau}",
        f"logit_tau = {'none' if t.logit_tau is None else t.logit_tau}",
        f"warmup_epochs = {t.warmup_epochs}",
        f"seed = {t.seed}",
        f"variant = {t.variant.value}",
        f"weight_decay = {t.weight_decay}",
        f"momentum = {t.momentum}",
        f"n_pos = {'all' if t.n_pos is None else t.n_pos}",
        f"n_neg = {'all' if t.n_neg is None else t.n_neg}",
        "",
    ]
    Path(path).write_text("\n".join(lines))
