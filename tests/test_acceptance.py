"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 6, 7, and 10 exercise the default benchmark and the CLI pipeline
end to end; criterion 7 is the expensive one (ten trainings plus ten
600-episode evaluations) and is budgeted under 15 minutes.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from pal.batching import AnchorSets
from pal.cli import main
from pal.core import Tensor, softmax, softmax_temperature
from pal.core.gradcheck import max_relative_error
from pal.data import SyntheticSpec, generate_synthetic
from pal.encoders import CosineClassifier, Encoder, EncoderConfig
from pal.episodes import classify_query, evaluate
from pal.losses import (
    ContrastiveBatchView,
    ce_loss,
    ct_loss,
    feat_align_loss,
    kl_loss,
    logit_align_loss,
    soft_cross_entropy,
    supct_loss,
)
from pal.training import TrainConfig, Variant, eval_seed, train_variant

from oracles import (
    feat_align_brute,
    random_simplex,
    random_unit_rows,
    supct_brute,
    supct_brute_labels,
)


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {criterion}{suffix}")


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic(SyntheticSpec())


def _random_anchor_sets(rng, n, a, d):
    feats = random_unit_rows(rng, a, d)
    labels = rng.integers(0, 3, size=a)
    inst = rng.integers(0, 3, size=n)
    pos = [np.flatnonzero(labels == y) for y in inst]
    neg = [np.flatnonzero(labels != y) for y in inst]
    return (
        AnchorSets.from_indices(
            features=feats,
            anchor_labels=labels,
            instance_labels=inst,
            pos_indices=tuple(np.asarray(p, dtype=np.intp) for p in pos),
            neg_indices=tuple(np.asarray(m, dtype=np.intp) for m in neg),
        ),
        pos,
        neg,
        feats,
    )


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        b, d, c = 4, int(rng.integers(4, 17)), 6
        labels = np.concatenate([rng.integers(0, 3, size=b)] * 2)
        z0 = random_unit_rows(rng, 2 * b, d)
        logits0 = rng.normal(scale=2.0, size=c)
        p_target = random_simplex(rng, c)
        p_t = random_simplex(rng, c)
        clf = CosineClassifier(n_classes=c, embed_dim=d, seed=seed)
        z_partner = random_unit_rows(rng, 1, d)[0]
        anchors, *_ = _random_anchor_sets(rng, 2 * b, 6, d)

        checks = [
            (lambda t: supct_loss(ContrastiveBatchView.supervised(t, labels, 0.7)).loss, z0),
            (lambda t: ct_loss(ContrastiveBatchView.unsupervised(t, labels, 0.7)).loss, z0),
            (lambda t: ce_loss(t, 2), logits0),
            (lambda t: soft_cross_entropy(p_target, t), logits0),
            (lambda t: kl_loss(p_t, softmax(t)), logits0),
            (lambda t: logit_align_loss(clf, z_partner, t, 0.5), logits0),
            (lambda t: feat_align_loss(t, anchors, 0.5).loss, z0),
        ]
        for fn, x0 in checks:
            worst = max(worst, max_relative_error(fn, x0, h=1e-5))
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 30.0
    _report("1 gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 9))  # batch of 2b <= 16
        d = int(rng.integers(2, 9))
        tau = float(rng.uniform(0.1, 1.5))
        z = random_unit_rows(rng, 2 * b, d)
        labels = np.concatenate([rng.integers(0, 3, size=b)] * 2)
        got = supct_loss(ContrastiveBatchView.supervised(Tensor(z), labels, tau))
        want, _ = supct_brute_labels(z, labels, tau)
        worst = max(worst, abs(float(got.loss) - want))

        got_ct = ct_loss(ContrastiveBatchView.unsupervised(Tensor(z), labels, tau))
        pos_rule = [[(i + b) % (2 * b)] for i in range(2 * b)]
        want_ct, _ = supct_brute(z, pos_rule, tau)
        worst = max(worst, abs(float(got_ct.loss) - want_ct))

        n_inst = int(rng.integers(1, 9))
        anchors, pos, neg, feats = _random_anchor_sets(rng, n_inst, int(rng.integers(2, 17)), d)
        z_main = random_unit_rows(rng, n_inst, d)
        got_feat = feat_align_loss(Tensor(z_main), anchors, tau)
        want_feat, _ = feat_align_brute(z_main, feats, pos, neg, tau)
        worst = max(worst, abs(float(got_feat.loss) - want_feat))
    elapsed = time.time() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    _report("2 oracle equivalence", f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_kl_decomposition_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        p_t, p_s = random_simplex(rng, n), random_simplex(rng, n)
        kl = float(kl_loss(p_t, p_s))
        neg_entropy = float(np.sum(p_t * np.log(p_t)))
        cross = -float(np.sum(p_t * np.log(p_s)))
        worst = max(worst, abs(kl - (neg_entropy + cross)))
    assert worst <= 1e-9
    _report("3 KL decomposition identity", f"max abs err {worst:.2e}")


def test_criterion_4_temperature_contract():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(scale=4.0, size=int(rng.integers(2, 10)))
        for tau in (0.1, 0.5, 1.0, 5.0):
            p = softmax_temperature(Tensor(v), tau=tau).data
            assert abs(p.sum() - 1.0) <= 1e-9
            assert int(np.argmax(p)) == int(np.argmax(v))
    _report("4 temperature contract", "argmax preserved, sums within 1e-9")


def test_criterion_5_prototype_classifier_correctness():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(1000):
        n, d = int(rng.integers(1, 7)), int(rng.integers(2, 8))
        protos = random_unit_rows(rng, n, d)
        if trial % 5 == 0 and n >= 2:
            protos[1] = protos[0]  # forced tie between classes 0 and 1
        z = random_unit_rows(rng, 1, d)[0]
        if trial % 5 == 0 and n >= 2:
            z = protos[0]
        got = classify_query(protos, z)
        sims = [float(np.dot(p, z)) for p in protos]
        best = max(range(n), key=lambda i: (sims[i], -i))
        assert got == best
        checked += 1
    assert checked == 1000
    _report("5 prototype classifier correctness", "1000 instances incl. ties")


def test_criterion_6_chance_level_sanity(default_dataset):
    enc = Encoder(EncoderConfig(input_dim=default_dataset.novel.dim, seed=0))
    report = evaluate(enc, default_dataset.novel, n=5, k=1, q=15, episodes=600, rng=20260808)
    assert abs(report.mean_accuracy - 0.20) <= 0.03, report.summary()
    _report("6 chance-level sanity", report.summary())


def test_criterion_7_directional_table3_ordering(default_dataset):
    from pal.config import DESK_AUGMENT, DESK_TRAIN
    from pal.batching import AugmentConfig

    start = time.time()
    wins = 0
    rows = []
    for seed in range(5):
        accs = {}
        for variant in (Variant.CE_ONLY, Variant.PAL):
            cfg = TrainConfig(**{**DESK_TRAIN, "seed": seed, "variant": variant.value})
            result = train_variant(
                default_dataset.base, cfg, aug=AugmentConfig(**DESK_AUGMENT)
            )
            report = evaluate(
                result.encoder, default_dataset.novel, n=5, k=1, q=15,
                episodes=600, rng=eval_seed(cfg),
            )
            accs[variant] = report.mean_accuracy
        win = accs[Variant.PAL] >= accs[Variant.CE_ONLY]
        wins += int(win)
        rows.append(
            f"seed {seed}: PAL {accs[Variant.PAL]:.4f} vs CE {accs[Variant.CE_ONLY]:.4f}"
        )
    elapsed = time.time() - start
    detail = "; ".join(rows) + f"; {elapsed:.0f}s"
    assert wins >= 4, detail
    assert elapsed < 900.0, detail
    _report("7 directional ordering PAL >= CE", f"{wins}/5 seeds; {detail}")


def test_criterion_8_table5_structure(tmp_path):
    import csv

    data_dir = tmp_path / "data"
    out_dir = tmp_path / "grid"
    assert main(["gen-data", "--spec", "default", "--out", str(data_dir), "--items", "24"]) == 0
    assert (
        main(
            [
                "ablate", "--table", "5",
                "--base", str(data_dir / "base.pald"),
                "--data", str(data_dir / "novel.pald"),
                "--out", str(out_dir),
                "--episodes", "30",
                "--set", "train.epochs=3",
                "--set", "train.lr_decay_epoch=2",
                "--set", "train.warmup_epochs=1",
                "--set", "train.batch_size=16",
            ]
        )
        == 0
    )
    with open(out_dir / "table5.csv") as fh:
        rows = list(csv.DictReader(fh))
    expected = ["CE_only", "PAL_logit_only", "PAL_KL_logit", "PAL_feat_only", "PAL", "PAL_feat_KL"]
    assert [r["variant"] for r in rows] == expected
    for row in rows:
        assert math.isfinite(float(row["acc_1shot"]))
        assert math.isfinite(float(row["acc_5shot"]))
        metrics = out_dir / row["variant"] / "metrics_main.csv"
        assert metrics.exists()
        with open(metrics) as fh:
            logged = list(csv.DictReader(fh))
        assert logged
        for col in ("loss_total", "loss_ce", "loss_feat", "loss_logit", "w_logit"):
            assert col in logged[0]
    _report("8 table-5 structure", "6 rows, finite accuracies, component logs present")


def test_criterion_9_frozen_partner_invariance(tmp_path):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    assert main(["gen-data", "--spec", "default", "--out", str(data_dir), "--items", "24"]) == 0
    tiny = [
        "--set", "train.epochs=2",
        "--set", "train.lr_decay_epoch=2",
        "--set", "train.warmup_epochs=1",
        "--set", "train.batch_size=16",
    ]
    assert main(["train-partner", "--base", str(data_dir / "base.pald"),
                 "--out", str(run_dir), *tiny]) == 0
    partner_path = run_dir / "partner_encoder.palw"
    before = partner_path.read_bytes()
    assert main(["train-main", "--base", str(data_dir / "base.pald"),
                 "--partner", str(partner_path), "--out", str(run_dir), *tiny]) == 0
    after = partner_path.read_bytes()
    assert before == after
    _report("9 frozen-partner invariance", f"{len(before)} checkpoint bytes identical")


def test_criterion_10_pipeline_determinism(tmp_path):
    def run_pipeline(root):
        data_dir = root / "data"
        run_dir = root / "run"
        tiny = [
            "--set", "train.epochs=3",
            "--set", "train.lr_decay_epoch=2",
            "--set", "train.warmup_epochs=1",
            "--set", "train.batch_size=16",
            "--seed", "11",
        ]
        assert main(["gen-data", "--spec", "default", "--out", str(data_dir), "--items", "24"]) == 0
        assert main(["train-variant", "--variant", "PAL",
                     "--base", str(data_dir / "base.pald"), "--out", str(run_dir), *tiny]) == 0
        assert main(["eval-episodes", "--checkpoint", str(run_dir / "main_encoder.palw"),
                     "--data", str(data_dir / "novel.pald"),
                     "--episodes", "50", "--seed", "11",
                     "--csv", str(run_dir / "eval.csv")]) == 0
        return {
            name: (run_dir / name).read_bytes()
            for name in ("metrics_partner.csv", "metrics_main.csv", "eval.csv")
        }

    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    _report("10 pipeline determinism", "metrics and eval CSVs byte-identical")
