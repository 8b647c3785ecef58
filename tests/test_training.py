"""Optimizer, schedules, and the training pipelines."""
from __future__ import annotations

import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from pal.ablation import TABLE_VARIANTS
from pal.batching import AugmentConfig
from pal.core import Tensor
from pal.data import SyntheticSpec, generate_synthetic
from pal.encoders import Encoder, EncoderConfig, load_encoder, save_encoder
from pal.exceptions import ContractError, DivergenceError, ParameterError
from oracles import epoch_means, sgd_vanilla_loop
import pal.training
from pal.training import (
    SGD,
    MetricsLogger,
    NetConfig,
    TrainConfig,
    Variant,
    WarmupSchedule,
    _STAGES,
    _seed_int,
    _seed_streams,
    _stage_key,
    _stage_of,
    _trained,
    lr_at,
    sgd_step,
    train_main,
    train_partner,
    train_variant,
)

TINY_SPEC = SyntheticSpec(
    n_base_classes=4, n_novel_classes=3, items_per_class=16, raw_dim=16, margin=2.5, seed=5
)
TINY_CFG = TrainConfig(
    epochs=2,
    lr=0.05,
    lr_decay_epoch=2,
    batch_size=8,
    tau=0.5,
    warmup_epochs=1,
    seed=0,
    momentum=0.9,
)
AUG = AugmentConfig(noise_sigma=0.3, mask_prob=0.1)


@pytest.fixture(scope="module")
def tiny_base():
    return generate_synthetic(TINY_SPEC).base


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=10, warmup_epochs=11)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=10, lr_decay_epoch=11)
    with pytest.raises(ParameterError):
        TrainConfig(variant="NotAVariant")
    for bad in (dict(kl_tau=0.0), dict(logit_tau=-1.0), dict(n_pos=0), dict(n_neg=0),
                dict(momentum=1.5), dict(momentum=1.0), dict(momentum=-0.1),
                dict(weight_decay=-5.0)):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            TrainConfig(**bad)
    assert TrainConfig(variant="PAL_feat_only").variant is Variant.PAL_FEAT_ONLY
    assert TrainConfig(kl_tau=0.1, logit_tau=2.0, n_pos=1, n_neg=1).n_neg == 1


def test_lr_schedule_full_scale_defaults():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == pytest.approx(0.03)
    assert lr_at(59, cfg) == pytest.approx(0.03)
    assert lr_at(60, cfg) == pytest.approx(0.003)
    assert lr_at(89, cfg) == pytest.approx(0.003)


def test_lr_schedule_decay_at_end_is_constant():
    cfg = TrainConfig(epochs=10, lr_decay_epoch=10, warmup_epochs=5)
    assert all(lr_at(e, cfg) == pytest.approx(cfg.lr) for e in range(10))


def test_warmup_schedule_contract():
    w = WarmupSchedule(30)
    assert w(0) == 0.0
    assert w(30) == 1.0
    assert w(45) == 1.0
    values = [w(e) for e in range(46)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert max(values) <= 1.0
    assert WarmupSchedule(0)(0) == 1.0


def test_sgd_step_zero_lr_is_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    sgd_step([p], lr=0.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_sgd_step_arithmetic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    sgd_step([p], lr=0.1, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.8], atol=1e-12)


def test_sgd_quadratic_bowl_contraction():
    # f = ||p||^2, grad 2p, lr 0.1: each step multiplies p by 0.8.
    p = Tensor(np.array([1.0, -0.5, 2.0]), requires_grad=True)
    start = np.linalg.norm(p.data)
    for _ in range(50):
        p.grad = 2.0 * p.data
        sgd_step([p], lr=0.1)
    assert np.linalg.norm(p.data) / start == pytest.approx(0.8**50, abs=1e-6)


def test_sgd_missing_grad_contract():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        sgd_step([p], lr=0.1)
    opt = SGD([p], momentum=0.9)
    with pytest.raises(ContractError):
        opt.step(lr=0.1)


def test_metrics_logger_csv_schema(tmp_path):
    log = MetricsLogger()
    log.log(epoch=0, step=1, lr=0.1, loss_total=2.5, loss_ce=2.5)
    path = tmp_path / "m.csv"
    log.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "epoch,step,lr,loss_total,loss_ce,loss_feat,loss_logit,w_logit,"
        "skipped_positive_instances,loss_aux"
    )
    with pytest.raises(ContractError, match="loss_cee"):
        log.log(epoch=0, step=2, loss_cee=1.0)
    assert len(log.rows) == 1


def test_train_partner_loss_decreases_and_roundtrips(tmp_path, tiny_base):
    cfg = TrainConfig(
        epochs=4, lr=0.05, lr_decay_epoch=4, batch_size=8, tau=0.5,
        warmup_epochs=0, seed=1, momentum=0.9,
    )
    result = train_partner(tiny_base, cfg, aug=AUG, out_dir=tmp_path)
    means = epoch_means(result.metrics, "loss_total")
    assert all(np.isfinite(means))
    assert means[-1] < means[0]
    assert result.encoder_checkpoint is not None
    reloaded = load_encoder(result.encoder_checkpoint)
    x = tiny_base.x[:10].astype(np.float64)
    np.testing.assert_array_equal(reloaded.encode(x), result.encoder.encode(x))


def test_train_partner_ct_objective_dispatch(tiny_base):
    cfg_ct = TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0,
        seed=2, variant=Variant.PARTNER_CT,
    )
    result = train_partner(tiny_base, cfg_ct, aug=AUG)
    assert np.isfinite(result.metrics.rows[-1]["loss_total"])
    cfg_sup = TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0, seed=2
    )
    sup = train_partner(tiny_base, cfg_sup, aug=AUG)
    assert sup.metrics.rows[0]["loss_total"] != pytest.approx(
        result.metrics.rows[0]["loss_total"]
    )


def test_train_partner_single_class_warns(caplog, tiny_base):
    import logging

    single = type(tiny_base)(
        x=tiny_base.x[tiny_base.y == 0], y=tiny_base.y[tiny_base.y == 0],
        label_width=tiny_base.label_width,
    )
    cfg = TrainConfig(epochs=1, lr=0.01, lr_decay_epoch=1, batch_size=4, warmup_epochs=0)
    # Once per SupCon-only stage: PAL's partner, and SupCT_only's main stage.
    for train, variant, role in ((train_partner, Variant.PAL, "partner"),
                                 (train_main, Variant.SUPCT_ONLY, "main")):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="pal.training"):
            train(single, replace(cfg, variant=variant), aug=AUG)
        warnings = [rec.message for rec in caplog.records if "single-class" in rec.message]
        assert len(warnings) == 1 and warnings[0].startswith(f"{variant.value} {role} stage: ")


def test_train_partner_single_class_ct_does_not_warn(caplog, tiny_base):
    # A CT partner's positive is the row's other view, whatever the classes.
    import logging

    single = type(tiny_base)(
        x=tiny_base.x[tiny_base.y == 0], y=tiny_base.y[tiny_base.y == 0],
        label_width=tiny_base.label_width,
    )
    cfg = TrainConfig(epochs=1, lr=0.01, lr_decay_epoch=1, batch_size=4, warmup_epochs=0,
                      variant=Variant.PARTNER_CT)
    with caplog.at_level(logging.WARNING, logger="pal.training"):
        result = train_partner(single, cfg, aug=AUG)
    assert not any("single-class" in rec.message for rec in caplog.records)
    assert sum(row["skipped_positive_instances"] for row in result.metrics.rows) == 0


def test_train_main_requires_frozen_partner(tiny_base):
    cfg = TrainConfig(epochs=1, lr=0.01, lr_decay_epoch=1, batch_size=8, warmup_epochs=0)
    partner = train_partner(tiny_base, cfg, aug=AUG).encoder  # not frozen
    with pytest.raises(ContractError, match="frozen"):
        train_main(tiny_base, cfg, partner=partner, aug=AUG)
    with pytest.raises(ContractError, match="partner"):
        train_main(tiny_base, cfg, partner=None, aug=AUG)


def test_train_main_partner_untouched_and_bookkeeping(tmp_path, tiny_base):
    cfg = TrainConfig(
        epochs=2, lr=0.05, lr_decay_epoch=2, batch_size=8, tau=0.5,
        warmup_epochs=1, seed=3, variant=Variant.PAL_FEAT_ONLY,
    )
    partner = train_partner(tiny_base, cfg, aug=AUG).encoder.freeze()
    partner_path = tmp_path / "partner.palw"
    save_encoder(partner, partner_path)
    before = partner_path.read_bytes()
    result = train_main(tiny_base, cfg, partner=partner, aug=AUG, out_dir=tmp_path)
    save_encoder(partner, partner_path)
    assert partner_path.read_bytes() == before

    schedule = WarmupSchedule(cfg.warmup_epochs)
    for row in result.metrics.rows:
        assert row["w_logit"] == schedule(row["epoch"])
        recombined = (
            row["loss_ce"]
            + row["loss_feat"]
            + row["w_logit"] * row["loss_logit"]
            + row["loss_aux"]
        )
        assert row["loss_total"] == pytest.approx(recombined, abs=1e-9)
        assert row["loss_feat"] >= 0.0
        assert row["loss_ce"] >= 0.0


def test_train_main_variant_components(tiny_base):
    partner = train_partner(tiny_base, TINY_CFG, aug=AUG).encoder.freeze()
    by_variant = {}
    for variant in (Variant.PAL, Variant.PAL_LOGIT_ONLY, Variant.PAL_KL_LOGIT):
        cfg = TrainConfig(
            epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, tau=0.5,
            warmup_epochs=0, seed=4, variant=variant,
        )
        res = train_main(tiny_base, cfg, partner=partner, aug=AUG)
        by_variant[variant] = res.metrics.rows[0]
    assert by_variant[Variant.PAL]["loss_feat"] > 0
    assert by_variant[Variant.PAL]["loss_logit"] > 0
    assert by_variant[Variant.PAL_LOGIT_ONLY]["loss_feat"] == 0.0
    assert by_variant[Variant.PAL_LOGIT_ONLY]["loss_logit"] > 0
    # The KL row pairs teacher and student on the same view; the logit row
    # pairs across views, so the components differ.
    assert by_variant[Variant.PAL_KL_LOGIT]["loss_logit"] != pytest.approx(
        by_variant[Variant.PAL_LOGIT_ONLY]["loss_logit"]
    )


def test_train_variant_stage_sequence(tiny_base, monkeypatch):
    """Which stage trainers each variant runs, under which variant and seed;
    every partner, a CE one included, trains through train_partner, every
    main stage, Mutual's and SupCT_only's included, through train_main, and a
    CE partner is the CE_only main stage under the seed drawn from the
    partner_init stream."""
    calls = []
    for name in ("train_partner", "train_main"):
        real = getattr(pal.training, name)

        def record(base, cfg, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, cfg.variant, cfg.seed))
            return _real(base, cfg, *args, **kwargs)

        monkeypatch.setattr(pal.training, name, record)
    cfg = replace(TINY_CFG, epochs=1, lr_decay_epoch=1, warmup_epochs=0, seed=9)
    s, s1 = cfg.seed, _seed_int(_seed_streams(cfg)["partner_init"])
    partner, main = "train_partner", "train_main"

    def pal_like(v):
        return [(partner, v, s), (main, v, s)]

    expected = {
        Variant.PAL: pal_like(Variant.PAL),
        Variant.CE_ONLY: [(main, Variant.CE_ONLY, s)],
        Variant.SUPCT_ONLY: [(main, Variant.SUPCT_ONLY, s)],
        Variant.MULTITASK: [(main, Variant.MULTITASK, s)],
        Variant.MUTUAL: [(main, Variant.MUTUAL, s)],
        Variant.REVERSE: pal_like(Variant.REVERSE),
        Variant.PARTNER_CT: pal_like(Variant.PARTNER_CT),
        Variant.PARTNER_CE: pal_like(Variant.PARTNER_CE),
        Variant.PAL_LOGIT_ONLY: pal_like(Variant.PAL_LOGIT_ONLY),
        Variant.PAL_FEAT_ONLY: pal_like(Variant.PAL_FEAT_ONLY),
        Variant.PAL_KL_LOGIT: pal_like(Variant.PAL_KL_LOGIT),
        Variant.PAL_FEAT_KL: pal_like(Variant.PAL_FEAT_KL),
    }
    assert set(expected) == set(Variant) and s1 != s
    for variant, sequence in expected.items():
        calls.clear()
        train_variant(tiny_base, replace(cfg, variant=variant), aug=AUG)
        assert calls == sequence, variant
    ce_partner = train_partner(tiny_base, replace(cfg, variant=Variant.REVERSE), aug=AUG)
    ce_main = train_main(tiny_base, replace(cfg, variant=Variant.CE_ONLY, seed=s1), aug=AUG)
    for p, q in zip(ce_partner.encoder.parameters(), ce_main.encoder.parameters()):
        assert p.data.tobytes() == q.data.tobytes()


def test_stage_without_objective_is_refused(tiny_base):
    """Every variant ends in its main stage, the evaluated one; a one-stage
    variant has no partner stage to train."""
    cfg = replace(TINY_CFG, epochs=1, lr_decay_epoch=1, warmup_epochs=0)
    one_stage = (Variant.CE_ONLY, Variant.SUPCT_ONLY, Variant.MULTITASK, Variant.MUTUAL)
    for variant in one_stage:
        with pytest.raises(ParameterError, match="has no partner stage of its own"):
            train_partner(tiny_base, replace(cfg, variant=variant), aug=AUG)
    assert {v for v, stages in _STAGES.items() if len(stages) == 1} == set(one_stage)
    assert all(stages[-1].role == "main" for stages in _STAGES.values())


def test_train_variant_ce_only_and_multitask(tiny_base):
    ce = train_variant(tiny_base, TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0,
        seed=5, variant=Variant.CE_ONLY,
    ), aug=AUG)
    assert ce.partner is None
    assert ce.classifier is not None
    assert all(r["loss_feat"] == 0.0 and r["loss_logit"] == 0.0 for r in ce.metrics["main"].rows)

    mt = train_variant(tiny_base, TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0,
        seed=5, variant=Variant.MULTITASK,
    ), aug=AUG)
    rows = mt.metrics["main"].rows
    assert all(r["loss_ce"] > 0 and r["loss_aux"] > 0 for r in rows)


def test_train_variant_mutual_both_networks_move(tiny_base):
    cfg = TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0,
        seed=6, variant=Variant.MUTUAL,
    )
    result = train_variant(tiny_base, cfg, aug=AUG)
    # Fresh encoders with the same derived seeds reproduce the inits.
    streams = _seed_streams(cfg)
    init_a = NetConfig().encoder(tiny_base.dim, _seed_int(streams["partner_init"]))
    init_b = NetConfig().encoder(tiny_base.dim, _seed_int(streams["main_init"]))
    assert not np.allclose(result.partner.weights[0].data, init_a.weights[0].data)
    assert not np.allclose(result.encoder.weights[0].data, init_b.weights[0].data)
    assert result.classifier is not None
    # Mutual's one main stage trains through train_main; its peer is the variant's partner.
    stage = train_main(tiny_base, cfg, aug=AUG)
    for trained, alone in ((result.partner, stage.peer), (result.encoder, stage.encoder),
                           (result.classifier, stage.classifier)):
        assert all(p.data.tobytes() == q.data.tobytes()
                   for p, q in zip(trained.parameters(), alone.parameters()))


def test_train_variant_reverse_evaluates_second_network(tiny_base):
    cfg = TrainConfig(
        epochs=1, lr=0.05, lr_decay_epoch=1, batch_size=8, warmup_epochs=0,
        seed=7, variant=Variant.REVERSE,
    )
    result = train_variant(tiny_base, cfg, aug=AUG)
    assert result.partner is not None and result.partner.frozen
    assert result.classifier is None  # contrastive second stage
    rows = result.metrics["main"].rows
    assert all(r["loss_ce"] == 0.0 for r in rows)
    assert all(r["loss_feat"] > 0 for r in rows)
    assert all(r["loss_aux"] > 0 for r in rows)


def test_training_deterministic_same_seed(tiny_base):
    cfg = TrainConfig(
        epochs=2, lr=0.05, lr_decay_epoch=2, batch_size=8, tau=0.5,
        warmup_epochs=1, seed=8, variant=Variant.PAL,
    )
    r1 = train_variant(tiny_base, cfg, aug=AUG)
    r2 = train_variant(tiny_base, cfg, aug=AUG)
    t1 = [row["loss_total"] for row in r1.metrics["main"].rows]
    t2 = [row["loss_total"] for row in r2.metrics["main"].rows]
    assert t1 == t2
    for a, b in zip(r1.encoder.parameters(), r2.encoder.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


class CountingEncoder(Encoder):
    """An encoder that counts its graph-free forward passes."""

    calls = 0

    def encode(self, x):
        self.calls += 1
        return super().encode(x)


@pytest.mark.parametrize("variant", [Variant.PAL, Variant.PAL_FEAT_ONLY, Variant.PAL_FEAT_KL,
                                     Variant.REVERSE, Variant.PAL_LOGIT_ONLY])
def test_frozen_partner_encodes_each_main_batch_once(tiny_base, variant):
    cfg = TrainConfig(epochs=2, lr=0.05, lr_decay_epoch=2, batch_size=8, warmup_epochs=1,
                      variant=variant)
    partner = CountingEncoder(EncoderConfig(tiny_base.dim, seed=1)).freeze()
    result = train_main(tiny_base, cfg, partner=partner, aug=AUG)
    assert partner.calls == len(result.metrics.rows) == 2 * len(tiny_base.y) // 8


@pytest.mark.parametrize("variant, stage, column", [
    (Variant.CE_ONLY, "main", "loss_ce"),
    (Variant.PAL, "partner", "loss_aux"),
    (Variant.MUTUAL, "main", "loss_ce"),
    (Variant.REVERSE, "partner", "loss_ce"),
    (Variant.SUPCT_ONLY, "main", "loss_aux"),
])
def test_non_finite_loss_raises_and_writes_nothing(tmp_path, tiny_base, variant, stage, column):
    cfg = TrainConfig(epochs=2, lr=1e200, lr_decay_epoch=2, batch_size=8, warmup_epochs=1,
                      variant=variant)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train_variant(tiny_base, cfg, aug=AUG, out_dir=tmp_path)
    assert str(err.value) == (
        f"{variant.value} {stage} stage diverged: {column} = nan at epoch 0, step 1"
    )
    assert not list(tmp_path.glob(f"*{stage}*"))
    assert not list(tmp_path.glob("peer_*"))


@pytest.mark.parametrize("path", ["SGD.step", "sgd_step"])
def test_sgd_momentum_zero_matches_the_vanilla_loop_bitwise(path):
    rng = np.random.default_rng(9)
    shapes = [(4, 3), (3,)]
    start = [rng.normal(size=s) for s in shapes]
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(6)]
    params = [Tensor(a.copy(), requires_grad=True) for a in start]
    opt = SGD(params, momentum=0.0)
    for step in grads:
        for p, g in zip(params, step):
            p.grad = g
        if path == "SGD.step":
            opt.step(lr=0.05, weight_decay=5e-4)
        else:
            sgd_step(params, lr=0.05, weight_decay=5e-4)
    expected = [Tensor(a.copy()) for a in start]
    sgd_vanilla_loop(expected, grads, lr=0.05, weight_decay=5e-4)
    for p, e in zip(params, expected):
        assert np.array_equal(p.data, e.data)


def _key(base, cfg=TINY_CFG, aug=AUG, net=NetConfig()):
    return _stage_key(_STAGES[cfg.variant][0], base, cfg, None, aug, net)


# A config under which every schedule field moves every stage's bytes (the lr
# decays from epoch 0, the logit weight is 1), a valid other value for each
# TrainConfig field but the variant, and the same for the other two configs.
EXACT_CFG = replace(TINY_CFG, epochs=1, lr_decay_epoch=0, warmup_epochs=0)
OTHER_TRAIN = dict(epochs=2, lr=0.04, lr_decay_factor=5.0, lr_decay_epoch=1, batch_size=9,
                   tau=0.4, kl_tau=0.3, logit_tau=0.3, warmup_epochs=1, seed=1,
                   weight_decay=1e-3, momentum=0.5, n_pos=2, n_neg=2)
EXACT_NET = NetConfig(hidden_dims=(8,), embed_dim=8)
OTHER_AUG = dict(noise_sigma=0.2, mask_prob=0.2)
OTHER_NET = dict(input_dim=16, hidden_dims=(6,), embed_dim=4, scale=5.0)


def _stage_bytes(result):
    models = (result.encoder, result.classifier, result.peer)
    return ([p.data.tobytes() for m in models if m is not None for p in m.parameters()],
            [repr(row) for row in result.metrics.rows])


def test_stage_key_moves_exactly_when_the_stage_bytes_move(tiny_base):
    """For every distinct stage record and every TrainConfig, AugmentConfig
    and NetConfig field (and the partner of an aligned stage): perturbing it
    changes the stage's key if and only if it changes the bytes it trains
    (weights and float64 metrics rows). A value that cannot take effect
    leaves the key as it is: an anchor cap no batch reaches (a batch of 8
    gives a row at most 15 positives and 14 negatives), or a decay factor
    when the lr never decays."""
    def partner(embed_dim, seed=1):
        return Encoder(EncoderConfig(tiny_base.dim, (8,), embed_dim, seed)).freeze()

    plain = dict(cfg=EXACT_CFG, aug=AUG, net=EXACT_NET, partner=partner(8))
    perturbed = {f"train.{name}": (plain, dict(plain, cfg=replace(EXACT_CFG, **{name: value})))
                 for name, value in OTHER_TRAIN.items()}
    perturbed.update({f"augment.{name}": (plain, dict(plain, aug=replace(AUG, **{name: value})))
                      for name, value in OTHER_AUG.items()})
    for name, value in OTHER_NET.items():
        net = replace(EXACT_NET, **{name: value})
        perturbed[f"net.{name}"] = (plain, dict(plain, net=net, partner=partner(net.embed_dim)))
    perturbed["partner"] = (plain, dict(plain, partner=partner(8, seed=2)))
    assert {f.name for f in fields(TrainConfig)} - {"variant"} == set(OTHER_TRAIN)
    assert {f.name for f in fields(AugmentConfig)} == set(OTHER_AUG)
    assert {f.name for f in fields(NetConfig)} == set(OTHER_NET)
    assert EXACT_CFG.batch_size == 8

    def with_cfg(**changes):
        return dict(plain, cfg=replace(EXACT_CFG, **changes))

    perturbed.update({
        "train.n_pos, n_neg beyond the batch": (plain, with_cfg(n_pos=1000, n_neg=1000)),
        "train.n_pos = 2 * batch_size - 1": (plain, with_cfg(n_pos=15)),
        "train.n_pos = 15 beside n_neg = 2": (with_cfg(n_neg=2), with_cfg(n_pos=15, n_neg=2)),
        "train.n_neg = 2 * batch_size - 2": (plain, with_cfg(n_neg=14)),
        "train.n_neg = 13": (plain, with_cfg(n_neg=13)),
        "train.lr_decay_factor, no decay": (
            with_cfg(lr_decay_epoch=1), with_cfg(lr_decay_epoch=1, lr_decay_factor=3.0)),
    })

    def run(stage, cfg, aug, net, partner):
        key = _stage_key(stage, tiny_base, cfg, partner, aug, net)
        return key, _stage_bytes(_trained(stage, tiny_base, cfg, partner, aug, net, None))

    stages = {stage for stages in _STAGES.values() for stage in stages}
    assert len(stages) == 12
    for stage in stages:
        plain_run = run(stage, **plain)
        assert _stage_key(stage, tiny_base, EXACT_CFG, plain["partner"], None, EXACT_NET) == \
            _stage_key(stage, tiny_base, EXACT_CFG, plain["partner"], AugmentConfig(), EXACT_NET)
        for name, (reference, inputs) in perturbed.items():
            key, trained = plain_run if reference is plain else run(stage, **reference)
            other_key, other = run(stage, **inputs)
            assert (other_key != key) == (other != trained), (stage.name, name)


def test_partner_key_changes_with_every_data_byte_and_label(tiny_base):
    plain = _key(tiny_base)
    x = tiny_base.x.copy()
    x.view(np.uint8)[-1] ^= 1
    assert _key(replace(tiny_base, x=x)) != plain
    y = tiny_base.y.copy()
    y[0] = y[-1]
    assert _key(replace(tiny_base, y=y)) != plain
    assert _key(replace(tiny_base, label_width=tiny_base.label_width + 1)) != plain
    assert _key(replace(tiny_base, x=tiny_base.x.copy(), y=tiny_base.y.copy())) == plain


def test_partner_key_reads_the_partner_objective(tiny_base):
    def key_of(variant):
        return _key(tiny_base, cfg=replace(TINY_CFG, variant=variant))

    supcon = [Variant.PAL, Variant.SUPCT_ONLY, Variant.PAL_KL_LOGIT, Variant.PAL_FEAT_ONLY]
    assert len({key_of(v) for v in supcon}) == 1
    assert key_of(Variant.PARTNER_CT) != key_of(Variant.PAL)


def test_reuse_trains_a_shared_partner_once(tmp_path, tiny_base, fit_calls):
    reuse = {}
    first = train_variant(tiny_base, TINY_CFG, aug=AUG, reuse=reuse)
    second = train_variant(tiny_base, replace(TINY_CFG, variant=Variant.PAL_FEAT_ONLY), aug=AUG,
                           reuse=reuse)
    alone = train_variant(tiny_base, replace(TINY_CFG, variant=Variant.SUPCT_ONLY), aug=AUG,
                          reuse=reuse)
    assert fit_calls == ["PAL partner", "PAL main", "PAL_feat_only main"] and len(reuse) == 1
    # Every caller gets its own copy: freezing one row's partner reaches no other row.
    assert first.partner is not second.partner
    assert first.partner.frozen and second.partner.frozen and not alone.encoder.frozen
    for enc in (second.partner, alone.encoder):
        assert all(np.array_equal(p.data, q.data)
                   for p, q in zip(enc.parameters(), first.partner.parameters()))
    # A stored stage is still written where its caller asks.
    stored = train_partner(tiny_base, TINY_CFG, aug=AUG, out_dir=tmp_path / "hit", reuse=reuse)
    plain = train_partner(tiny_base, TINY_CFG, aug=AUG, out_dir=tmp_path / "plain")
    assert len(fit_calls) == 4
    for name in ("partner_encoder.palw", "metrics_partner.csv"):
        assert (tmp_path / "hit" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert stored.encoder_checkpoint == tmp_path / "hit" / "partner_encoder.palw"
    assert plain.encoder_checkpoint == tmp_path / "plain" / "partner_encoder.palw"


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_reuse_trains_a_shared_ce_partner_once(tmp_path, tiny_base, fit_calls):
    """Reverse and Partner_CE share their CE partner through one dict; each
    row still writes the bytes of a run without it."""
    reuse, rows = {}, (Variant.REVERSE, Variant.PARTNER_CE)
    for variant in rows:
        train_variant(tiny_base, replace(TINY_CFG, variant=variant), aug=AUG,
                      out_dir=tmp_path / "shared" / variant.value, reuse=reuse)
    assert fit_calls == ["Reverse partner", "Reverse main", "Partner_CE main"]
    assert len(reuse) == 1
    for variant in rows:
        train_variant(tiny_base, replace(TINY_CFG, variant=variant), aug=AUG,
                      out_dir=tmp_path / "alone" / variant.value)
    assert _files(tmp_path / "shared") == _files(tmp_path / "alone")
    names = {p.name for p in _files(tmp_path / "alone")}
    assert "partner_encoder.palw" in names and "partner_classifier.palw" not in names


def test_a_sweep_trains_each_stage_a_setting_moves_once(tmp_path, tiny_base, fit_calls):
    """PAL rows over (logit_tau, n_pos) share one dict: the SupCon partner
    reads neither value and trains once, and every row writes the bytes of a
    run without the dict. A main stage whose settings resolve to another's
    temperature shares that stage through train_main's dict."""
    settings = [dict(logit_tau=1.0), dict(logit_tau=2.0), dict(logit_tau=1.0, n_pos=2)]
    reuse = {}
    for i, setting in enumerate(settings):
        train_variant(tiny_base, replace(TINY_CFG, **setting), aug=AUG,
                      out_dir=tmp_path / "shared" / str(i), reuse=reuse)
    assert fit_calls == ["PAL partner"] + ["PAL main"] * 3 and len(reuse) == 1
    for i, setting in enumerate(settings):
        train_variant(tiny_base, replace(TINY_CFG, **setting), aug=AUG,
                      out_dir=tmp_path / "alone" / str(i))
    assert _files(tmp_path / "shared") == _files(tmp_path / "alone")

    fit_calls.clear()
    partner = train_partner(tiny_base, TINY_CFG, aug=AUG, reuse=reuse).encoder.freeze()
    for logit_tau in (TINY_CFG.tau, None):
        train_main(tiny_base, replace(TINY_CFG, logit_tau=logit_tau), partner, AUG,
                   tmp_path / "main" / str(logit_tau), reuse=reuse)
    assert fit_calls == ["PAL main"] and len(reuse) == 2
    assert _files(tmp_path / "main" / str(TINY_CFG.tau)) == _files(tmp_path / "main" / "None")


def test_table3_reuse_holds_exactly_its_two_partner_stages(tiny_base, fit_calls):
    """Table 3's rows through one dict store its SupCon partner (PAL's,
    which is SupCT_only's main stage) and its CE partner (Reverse's), and
    no main stage."""
    reuse = {}
    for variant in TABLE_VARIANTS[3]:
        train_variant(tiny_base, replace(TINY_CFG, variant=variant), aug=AUG, reuse=reuse)
    assert fit_calls == ["CE_only main", "SupCT_only main", "MultiTask main", "Mutual main",
                         "Reverse partner", "Reverse main", "PAL main"]
    assert len(reuse) == 2
    assert {key[0] for key in reuse} == {_stage_of(Variant.PAL, "partner"),
                                         _stage_of(Variant.REVERSE, "partner")}


def test_ce_partner_on_one_class_names_its_own_stage(tiny_base):
    one = replace(tiny_base, y=np.full_like(tiny_base.y, tiny_base.y[0]))
    for reuse in (None, {}):
        with pytest.raises(ParameterError, match="^Reverse partner stage: cross-entropy"):
            train_partner(one, replace(TINY_CFG, variant=Variant.REVERSE), aug=AUG, reuse=reuse)


def test_single_run_computes_no_partner_key(tiny_base, monkeypatch):
    def refuse(*args):
        raise AssertionError("a run without a reuse dict computed a stage key")

    for name in ("_stage_key", "_digest"):
        monkeypatch.setattr(pal.training, name, refuse)
    for variant in (Variant.PAL, Variant.SUPCT_ONLY, Variant.PARTNER_CE, Variant.MUTUAL):
        train_variant(tiny_base, replace(TINY_CFG, variant=variant), aug=AUG)


_TERM_NAMES = {"supct": "SupCon", "ct": "CT", "logit": "logit", "kl": "KL", "peer": "peer KL"}


def _objective_text(objective):
    terms = ["CE"] * objective.ce + ["feat"] * objective.feat
    return " + ".join(terms + [_TERM_NAMES[t] for t in (objective.contrastive, objective.align)
                               if t != "none"])


def test_readme_stage_table_is_the_stage_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\S+) (partner|main)` \| ([^|]+) \| (.+) \|$", readme, re.M)
    expected = [
        (stage.variant.value, stage.role,
         "; ".join(_objective_text(n.objective) for n in stage.networks),
         f"`{stage.data}`" + (f" of the `{stage.seed}` seed" if stage.seed else ""))
        for stages in _STAGES.values() for stage in stages
    ]
    assert len(expected) == 20 and rows == expected
