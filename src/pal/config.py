"""Run configuration: file format, defaults, and override resolution.

A run config is a flat INI-style text file with sections ``[data]``,
``[encoder]``, ``[augment]``, ``[train]`` holding ``key = value`` lines. A
value is its literal text, with no ``%`` interpolation. Unknown sections or
keys, ``[DEFAULT]`` included, are errors, so typos fail fast; a file that does
not parse is a one-line error naming it. Files may omit any key; omitted keys
take the desk-scale defaults below. CLI flags override file values, and the
``PAL_SEED`` environment variable overrides the seed from either source.

``_KEYS`` is the one schema. Its ``[encoder]``, ``[augment]`` and ``[train]``
keys are the fields of ``NetConfig``, ``AugmentConfig`` and ``TrainConfig``,
each value parsed and written by the entry of ``_FORMATS`` for its field's
annotation, so a new field is a new key.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .batching import AugmentConfig
from .data import atomic_write
from .exceptions import ParameterError
from .training import NetConfig, TrainConfig, Variant

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


@dataclass
class RunConfig:
    base_path: str = ""
    novel_path: str = ""
    net: NetConfig = field(default_factory=NetConfig)
    augment: AugmentConfig = field(default_factory=lambda: AugmentConfig(**DESK_AUGMENT))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(**DESK_TRAIN))


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ParameterError(f"hidden_dims must be integers, got {text!r}") from None
    return dims


def _parse_optional_int(text: str):
    if text.strip().lower() in ("all", "none", ""):
        return None
    return int(text)


def _parse_optional_float(text: str):
    if text.strip().lower() in ("none", ""):
        return None
    return float(text)


# (parse, write) for a config value, by the annotation of its field.
_FORMATS = {
    int: (int, str),
    float: (float, str),
    Variant: (Variant.parse, lambda v: v.value),
    tuple[int, ...]: (_parse_hidden_dims, lambda dims: ",".join(map(str, dims))),
    int | None: (_parse_optional_int, lambda v: "all" if v is None else str(v)),
    float | None: (_parse_optional_float, lambda v: "none" if v is None else str(v)),
}
# Config-file section -> the RunConfig field holding it.
_SECTIONS = {"encoder": "net", "augment": "augment", "train": "train"}


def _keys(cls) -> dict:
    """``key -> (parse, write)`` for every field of a config dataclass."""
    hints = get_type_hints(cls)
    return {f.name: _FORMATS[hints[f.name]] for f in fields(cls)}


_KEYS = {
    "data": {"base": (str, str), "novel": (str, str)},
    **{s: _keys(get_type_hints(RunConfig)[attr]) for s, attr in _SECTIONS.items()},
}


def _parse_value(section: str, key: str, raw: str, where: str):
    try:
        return _KEYS[section][key][0](raw)
    except ParameterError:
        raise
    except ValueError:
        raise ParameterError(f"{where}: bad value {raw!r} for {key} in [{section}]") from None


def parse_config_file(path) -> dict[str, dict]:
    """Read and type-check a config file; unknown sections/keys are errors."""
    # No file can name the section "", so [DEFAULT] is an ordinary section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keep keys case-sensitive
    try:
        with open(path) as fh:  # parser.read() would skip a directory or an unreadable file
            parser.read_file(fh)
    except FileNotFoundError:
        raise ParameterError(f"config file {path} not found") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a text file ({exc})") from None
    except configparser.Error as exc:  # names file and line, but over several lines
        raise ParameterError(" ".join(str(exc).split())) from None
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ParameterError(
                f"{path}: unknown section [{section}]; expected {sorted(_KEYS)}"
            )
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ParameterError(
                    f"{path}: unknown key {key!r} in [{section}]; "
                    f"expected {sorted(_KEYS[section])}"
                )
            values[section][key] = _parse_value(section, key, raw, str(path))
    return values


def parse_overrides(pairs: list[str]) -> dict[str, dict]:
    """Parse repeated ``--set section.key=value`` CLI flags, stripped as file lines are."""
    values: dict[str, dict] = {}
    for pair in pairs:
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ParameterError(f"override {pair!r} must look like section.key=value")
        target, raw = (part.strip() for part in pair.split("=", 1))
        section, key = target.split(".", 1)
        if section not in _KEYS or key not in _KEYS[section]:
            raise ParameterError(f"override {pair!r} names no known config key")
        values.setdefault(section, {})[key] = _parse_value(section, key, raw, f"override {pair!r}")
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
    merged = {s: dict() for s in _KEYS}
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

    run = RunConfig(base_path=merged["data"].get("base", ""),
                    novel_path=merged["data"].get("novel", ""))
    return replace(run, **{attr: replace(getattr(run, attr), **merged[section])
                           for section, attr in _SECTIONS.items()})


def write_config_template(path, run: RunConfig | None = None) -> None:
    """Write a complete config file with every supported key spelled out."""
    run = run or RunConfig()
    data = {"base": run.base_path or "data/base.pald",
            "novel": run.novel_path or "data/novel.pald"}
    lines = ["[data]"]
    lines += [f"{key} = {write(data[key])}" for key, (_, write) in _KEYS["data"].items()]
    for section, attr in _SECTIONS.items():
        values = getattr(run, attr)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {write(getattr(values, key))}"
                  for key, (_, write) in _KEYS[section].items()]
    with atomic_write(path, text=True) as fh:
        fh.write("\n".join(lines) + "\n")
