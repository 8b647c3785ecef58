"""Config file parsing, overrides, environment seed."""
from __future__ import annotations

import configparser
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from pal.batching import AugmentConfig
from pal.cli import main
from pal.config import (
    SEED_ENV_VAR,
    RunConfig,
    build_run_config,
    parse_config_file,
    parse_overrides,
    write_config_template,
)
from pal.data import Split, save_dataset
from pal.exceptions import ParameterError
from pal.training import NetConfig, TrainConfig, Variant


CONFIG_TEXT = """\
[data]
base = data/base.pald
novel = data/novel.pald

[encoder]
hidden_dims = 32,32
embed_dim = 16

[augment]
noise_sigma = 0.5
mask_prob = 0.05

[train]
epochs = 12
lr = 0.01
lr_decay_epoch = 8
warmup_epochs = 4
seed = 42
variant = PAL_feat_only
n_pos = all
n_neg = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def test_parse_and_build(config_file):
    run = build_run_config(config_path=config_file, env={})
    assert run.base_path == "data/base.pald"
    assert run.net.hidden_dims == (32, 32)
    assert run.net.embed_dim == 16
    assert run.augment.noise_sigma == 0.5
    t = run.train
    assert (t.epochs, t.lr, t.seed) == (12, 0.01, 42)
    assert t.variant is Variant.PAL_FEAT_ONLY
    assert t.n_pos is None
    assert t.n_neg == 7


def test_unknown_key_fails_fast(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochz = 3\n")
    with pytest.raises(ParameterError, match="unknown key 'epochz'"):
        parse_config_file(path)


def test_unknown_section_fails_fast(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[optimizer]\nlr = 3\n")
    with pytest.raises(ParameterError, match=r"unknown section \[optimizer\]"):
        parse_config_file(path)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 5\n",
    "[train]\nseed = 1\n\n[DEFAULT]\nepochs = 5\n",
    "[DEFAULT]\nepochs = 5\n\n[data]\nbase = b.pald\n",
], ids=["alone", "with-train", "with-data"])
def test_default_section_is_unknown(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ParameterError, match=r"unknown section \[DEFAULT\]"):
        build_run_config(config_path=path, env={})


def test_percent_is_literal_text(tmp_path):
    path = tmp_path / "run.cfg"
    base = "runs/100%/base.pald"
    through_set = build_run_config(overrides=[f"data.base={base}", "data.novel=n.pald"], env={})
    for run in (RunConfig(base_path=base, novel_path="n.pald"), through_set):
        assert run.base_path == base
        write_config_template(path, run)
        assert build_run_config(config_path=path, env={}) == run


# A config file configparser cannot read, and the line it blames (None: none).
MALFORMED = {
    "repeated-key": ("[train]\nseed = 1\nseed = 2\n", 3),
    "repeated-section": ("[train]\nseed = 1\n\n[train]\nlr = 0.1\n", 4),
    "no-section-header": ("epochs = 5\n", 1),
    "indented-stray-line": ("[train]\n  stray\n", 2),
    "dataset": (None, None),
}


def _write_malformed(path, shape):
    text, _ = MALFORMED[shape]
    if text is None:  # a dataset file passed as the config
        save_dataset(Split(np.full((2, 3), 1.5), np.zeros(2, dtype=np.int32), 1), path)
    else:
        path.write_text(text)


@pytest.mark.parametrize("shape", MALFORMED)
def test_malformed_file_is_one_line_parameter_error(tmp_path, shape):
    path = tmp_path / "bad.cfg"
    _write_malformed(path, shape)
    with pytest.raises(ParameterError) as info:
        parse_config_file(path)
    message, line = str(info.value), MALFORMED[shape][1]
    assert str(path) in message and "\n" not in message
    assert line is None or re.search(rf"\bline:? {line}\b", message), message


@pytest.mark.parametrize("shape", MALFORMED)
def test_malformed_file_is_one_cli_error_line(tmp_path, capsys, shape):
    path, out = tmp_path / "bad.cfg", tmp_path / "out.cfg"
    _write_malformed(path, shape)
    assert main(["init-config", "--config", str(path), str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pal: error: ")
    assert not out.exists()


def test_config_that_is_a_directory_is_one_cli_error_line(tmp_path, capsys):
    adir, out = tmp_path / "adir", tmp_path / "out.cfg"
    adir.mkdir()
    assert main(["init-config", "--config", str(adir), str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pal: error: ") and str(adir) in lines[0]
    assert "not found" not in lines[0]
    assert not out.exists()


def test_set_values_are_stripped_like_file_values(tmp_path):
    """``--set`` keys and values lose their surrounding spaces, as a file
    line's do, so both give the same config, which survives the template."""
    path = tmp_path / "spaced.cfg"
    path.write_text("[data]\nbase =  runs/x.pald \nnovel = n.pald  \n"
                    "[encoder]\nhidden_dims =  8, 4 \n"
                    "[train]\nvariant =  Reverse\nn_pos  = 3\nkl_tau =  0.25 \n")
    overrides = ["data.base= runs/x.pald ", "data.novel=n.pald  ", "encoder.hidden_dims= 8, 4 ",
                 "train.variant= Reverse", "train.n_pos = 3", " train.kl_tau= 0.25 "]
    from_file = build_run_config(config_path=path, env={})
    from_set = build_run_config(overrides=overrides, env={})
    assert from_set == from_file
    assert (from_set.base_path, from_set.novel_path) == ("runs/x.pald", "n.pald")
    assert from_set.train.variant is Variant.REVERSE and from_set.net.hidden_dims == (8, 4)
    write_config_template(path, from_set)
    assert build_run_config(config_path=path, env={}) == from_set


def test_bad_value_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = many\n")
    with pytest.raises(ParameterError, match="bad value 'many' for epochs"):
        parse_config_file(path)


@pytest.mark.parametrize("keys, raw", [
    *((("n_pos", "n_neg"), raw) for raw in ("all", "All", "none", "NONE", "")),
    *((("kl_tau", "logit_tau"), raw) for raw in ("none", "None", "")),
])
def test_optional_values_read_as_none(tmp_path, keys, raw):
    path = tmp_path / "optional.cfg"
    path.write_text("[train]\n" + "".join(f"{key} = {raw}\n" for key in keys))
    assert parse_config_file(path) == {"train": dict.fromkeys(keys)}
    assert parse_overrides([f"train.{key}={raw}" for key in keys]) == {
        "train": dict.fromkeys(keys)}


@pytest.mark.parametrize("key", ["kl_tau", "logit_tau"])
def test_temperatures_refuse_all(tmp_path, key):
    path = tmp_path / "taus.cfg"
    path.write_text(f"[train]\n{key} = all\n")
    with pytest.raises(ParameterError) as err:
        parse_config_file(path)
    assert str(err.value) == f"{path}: bad value 'all' for {key} in [train]"
    with pytest.raises(ParameterError) as err:
        parse_overrides([f"train.{key}=all"])
    assert str(err.value) == f"override 'train.{key}=all': bad value 'all' for {key} in [train]"


def test_missing_file():
    with pytest.raises(ParameterError, match="not found"):
        parse_config_file("no/such/file.cfg")


def test_overrides_win_over_file(config_file):
    run = build_run_config(
        config_path=config_file,
        overrides=["train.lr=0.2", "augment.mask_prob=0.3"],
        env={},
    )
    assert run.train.lr == 0.2
    assert run.augment.mask_prob == 0.3
    assert run.train.epochs == 12  # untouched


def test_override_validation():
    with pytest.raises(ParameterError, match="section.key=value"):
        parse_overrides(["lr=0.2"])
    with pytest.raises(ParameterError, match="no known config key"):
        parse_overrides(["train.gamma=1"])


def test_seed_flag_and_env(config_file):
    run = build_run_config(config_path=config_file, seed=7, env={})
    assert run.train.seed == 7
    run = build_run_config(config_path=config_file, seed=7, env={SEED_ENV_VAR: "99"})
    assert run.train.seed == 99
    with pytest.raises(ParameterError, match="PAL_SEED"):
        build_run_config(config_path=config_file, env={SEED_ENV_VAR: "not-a-seed"})


def test_desk_defaults_without_file():
    run = build_run_config(env={})
    assert run.train.epochs == 30
    assert run.train.lr_decay_epoch == 20
    assert run.train.warmup_epochs == 10
    assert run.train.variant is Variant.PAL


# Every field of every config dataclass away from its default.
NON_DEFAULT = RunConfig(
    base_path="b.pald",
    novel_path="n.pald",
    net=NetConfig(input_dim=12, hidden_dims=(16, 8), embed_dim=6, scale=4.0),
    augment=AugmentConfig(noise_sigma=0.2, mask_prob=0.3),
    train=TrainConfig(
        epochs=7, lr=0.2, lr_decay_factor=5.0, lr_decay_epoch=3, batch_size=9, tau=0.3,
        kl_tau=0.2, logit_tau=0.7, warmup_epochs=2, seed=5, variant="Mutual",
        weight_decay=0.01, momentum=0.5, n_pos=3, n_neg=4,
    ),
)
SECTIONS = {"encoder": "net", "augment": "augment", "train": "train"}


def test_template_round_trips(tmp_path):
    path = tmp_path / "template.cfg"
    write_config_template(path)
    run = build_run_config(config_path=path, env={})
    assert run.train.epochs == 30
    assert run.train.n_pos is None
    written = path.read_text().splitlines()
    for line in ("n_pos = all", "n_neg = all", "kl_tau = none", "logit_tau = none"):
        assert line in written
    # Both optional temperatures survive a write and a read, set and unset.
    for kl_tau, logit_tau in ((0.2, 0.7), (None, None)):
        written = build_run_config(env={})
        written = replace(written, train=replace(written.train, kl_tau=kl_tau, logit_tau=logit_tau))
        write_config_template(path, written)
        back = build_run_config(config_path=path, env={})
        assert (back.train.kl_tau, back.train.logit_tau) == (kl_tau, logit_tau)
        assert back.train == written.train
    # So does every field of NetConfig, AugmentConfig and TrainConfig, through
    # the file and through one ``--set section.field=value`` per field.
    default = RunConfig()
    for attr in SECTIONS.values():
        for f in fields(getattr(default, attr)):
            ours, theirs = getattr(NON_DEFAULT, attr), getattr(default, attr)
            assert getattr(ours, f.name) != getattr(theirs, f.name), f"{attr}.{f.name}"
    write_config_template(path, NON_DEFAULT)
    assert build_run_config(config_path=path, env={}) == NON_DEFAULT
    text = configparser.ConfigParser()
    text.read(path)
    overrides = [f"data.{key}={text['data'][key]}" for key in ("base", "novel")]
    for section, attr in SECTIONS.items():
        overrides += [f"{section}.{f.name}={text[section][f.name]}"
                      for f in fields(getattr(NON_DEFAULT, attr))]
    assert len(overrides) == sum(len(keys) for keys in text.values()) == 23
    assert build_run_config(overrides=overrides, env={}) == NON_DEFAULT
