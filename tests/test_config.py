"""Config file parsing, overrides, environment seed."""
from __future__ import annotations

from dataclasses import replace

import pytest

from pal.config import (
    SEED_ENV_VAR,
    build_run_config,
    parse_config_file,
    parse_overrides,
    write_config_template,
)
from pal.exceptions import ParameterError
from pal.training import Variant


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
    assert run.encoder_hidden_dims == (32, 32)
    assert run.encoder_embed_dim == 16
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


def test_bad_value_reports_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[train]\nepochs = many\n")
    with pytest.raises(ParameterError, match="bad value 'many' for epochs"):
        parse_config_file(path)


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


def test_template_round_trips(tmp_path):
    path = tmp_path / "template.cfg"
    write_config_template(path)
    run = build_run_config(config_path=path, env={})
    assert run.train.epochs == 30
    assert run.train.n_pos is None
    # Both optional temperatures survive a write and a read, set and unset.
    for kl_tau, logit_tau in ((0.2, 0.7), (None, None)):
        written = build_run_config(env={})
        written = replace(written, train=replace(written.train, kl_tau=kl_tau, logit_tau=logit_tau))
        write_config_template(path, written)
        back = build_run_config(config_path=path, env={})
        assert (back.train.kl_tau, back.train.logit_tau) == (kl_tau, logit_tau)
        assert back.train == written.train
