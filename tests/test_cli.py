"""CLI surface: exit codes, artifacts, end-to-end pipeline."""
from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pal
import pal.cli
from pal.cli import build_parser, main
from pal.data import Split, load_dataset, save_dataset
from pal.encoders import Encoder, EncoderConfig, save_encoder

TRAIN_TINY = [
    "--set", "train.epochs=2",
    "--set", "train.lr_decay_epoch=2",
    "--set", "train.warmup_epochs=1",
    "--set", "train.batch_size=16",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["gen-data", "--spec", "default", "--out", str(out), "--items", "24"])
    assert code == 0
    return out


def test_gen_data_writes_files(data_dir, capsys):
    base = load_dataset(data_dir / "base.pald")
    novel = load_dataset(data_dir / "novel.pald")
    assert len(base.y) == 20 * 24
    assert len(novel.y) == 8 * 24
    assert set(base.classes).isdisjoint(novel.classes)


def test_gen_data_unknown_spec_is_runtime_error(tmp_path, capsys):
    code = main(["gen-data", "--spec", "mystery", "--out", str(tmp_path)])
    assert code == 1
    assert "unknown spec" in capsys.readouterr().err


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train-variant"])  # missing required --variant
    assert exc.value.code == 2


def test_missing_file_is_diagnostic_not_traceback(capsys):
    code = main(["eval-episodes", "--checkpoint", "missing.palw", "--data", "missing.pald"])
    assert code == 1
    assert "pal: error:" in capsys.readouterr().err


def test_full_pipeline_and_eval(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["train-partner", "--base", str(data_dir / "base.pald"),
                 "--out", str(run), *TRAIN_TINY]) == 0
    assert (run / "partner_encoder.palw").exists()
    assert (run / "metrics_partner.csv").exists()

    assert main(["train-main", "--base", str(data_dir / "base.pald"),
                 "--partner", str(run / "partner_encoder.palw"),
                 "--out", str(run), *TRAIN_TINY]) == 0
    assert (run / "main_encoder.palw").exists()
    assert (run / "main_classifier.palw").exists()

    csv_path = tmp_path / "eval.csv"
    assert main(["eval-episodes", "--checkpoint", str(run / "main_encoder.palw"),
                 "--data", str(data_dir / "novel.pald"),
                 "--n", "5", "--k", "1", "--episodes", "20",
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    summary = [line for line in out.splitlines() if "±" in line]
    assert summary, out
    mean = float(summary[0].split("±")[0])
    assert 0.0 <= mean <= 1.0
    assert csv_path.exists()


@pytest.mark.parametrize("variant, files", [
    ("CE_only", {"main_classifier.palw"}),
    ("SupCT_only", set()),
    ("MultiTask", {"main_classifier.palw"}),
    ("Mutual", {"main_classifier.palw", "peer_encoder.palw"}),
], ids=["CE_only", "SupCT_only", "MultiTask", "Mutual"])
def test_one_stage_variant_runs_as_train_main_alone(data_dir, tmp_path, capsys, variant, files):
    """A variant with only a main stage (Mutual's trains its two peers) runs
    as train-main alone, byte for byte; train-partner refuses it and writes
    nothing."""
    base, tiny = str(data_dir / "base.pald"), [*TRAIN_TINY, "--set", f"train.variant={variant}"]
    refused = tmp_path / "partner"
    assert main(["train-partner", "--base", base, "--out", str(refused), *tiny]) == 1
    assert f"variant {variant} has no partner stage of its own" in _one_error_line(capsys)
    assert not refused.exists()
    assert main(["train-main", "--base", base, "--out", str(tmp_path / "main"), *tiny]) == 0
    assert main(["train-variant", "--variant", variant, "--base", base,
                 "--out", str(tmp_path / "whole"), *TRAIN_TINY]) == 0
    whole = _tree(tmp_path / "whole")
    assert _tree(tmp_path / "main") == whole
    assert {str(p) for p in whole} == {"main_encoder.palw", "metrics_main.csv", *files}


@pytest.mark.parametrize("variant", ["PAL", "Reverse", "Partner_CT", "Partner_CE",
                                     "PAL_logit_only", "PAL_feat_only", "PAL_KL_logit",
                                     "PAL_feat_KL"])
def test_two_step_cli_writes_what_train_variant_writes(data_dir, tmp_path, capsys, variant):
    """Every variant with a partner and a main stage, a CE partner included,
    runs as train-partner then train-main --partner, byte for byte."""
    base, steps, whole = str(data_dir / "base.pald"), tmp_path / "steps", tmp_path / "whole"
    tiny = [*TRAIN_TINY, "--set", f"train.variant={variant}"]
    assert main(["train-partner", "--base", base, "--out", str(steps), *tiny]) == 0
    assert main(["train-main", "--base", base, "--partner",
                 str(steps / "partner_encoder.palw"), "--out", str(steps), *tiny]) == 0
    assert main(["train-variant", "--variant", variant, "--base", base, "--out", str(whole),
                 *TRAIN_TINY]) == 0
    names = sorted(f.name for f in whole.iterdir())
    assert names == sorted(f.name for f in steps.iterdir())
    assert {"partner_encoder.palw", "metrics_partner.csv", "main_encoder.palw"} <= set(names)
    for name in names:
        assert (steps / name).read_bytes() == (whole / name).read_bytes(), name


def test_metrics_csv_schema(data_dir, tmp_path):
    run = tmp_path / "run"
    main(["train-variant", "--variant", "CE_only",
          "--base", str(data_dir / "base.pald"), "--out", str(run), *TRAIN_TINY])
    with open(run / "metrics_main.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    first = rows[0]
    for col in ("epoch", "step", "lr", "loss_total", "loss_ce", "loss_feat",
                "loss_logit", "w_logit", "skipped_positive_instances"):
        assert col in first


def test_dump_embeddings_unit_rows(data_dir, tmp_path):
    run = tmp_path / "run"
    main(["train-variant", "--variant", "CE_only",
          "--base", str(data_dir / "base.pald"), "--out", str(run), *TRAIN_TINY])
    out_csv = tmp_path / "emb.csv"
    assert main(["dump-embeddings", "--checkpoint", str(run / "main_encoder.palw"),
                 "--data", str(data_dir / "novel.pald"), "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[:2] == ["index", "label"]
    mat = np.array([[float(v) for v in row[2:]] for row in body])
    np.testing.assert_allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-6)


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pal: error:")
    return lines[0]


@pytest.mark.parametrize("variant", ["PAL", "PAL_logit_only"])
def test_partner_of_another_width_is_one_error_line(data_dir, tmp_path, capsys, variant):
    stage1 = tmp_path / "stage1"
    assert main(["train-partner", "--base", str(data_dir / "base.pald"), "--out", str(stage1),
                 "--set", "encoder.embed_dim=16", *TRAIN_TINY]) == 0
    capsys.readouterr()
    out = tmp_path / "main"
    code = main(["train-main", "--base", str(data_dir / "base.pald"),
                 "--partner", str(stage1 / "partner_encoder.palw"), "--out", str(out),
                 "--set", f"train.variant={variant}", *TRAIN_TINY])
    assert code == 1
    line = _one_error_line(capsys)
    assert "16" in line and "32" in line and variant in line
    assert not out.exists()


@pytest.fixture
def narrow_encoder(tmp_path):
    """A checkpoint of an encoder that takes 16 features; the generated
    splits have 32."""
    path = tmp_path / "narrow.palw"
    save_encoder(Encoder(EncoderConfig(input_dim=16, seed=1)), path)
    return path


@pytest.mark.parametrize("variant", ["PAL", "PAL_KL_logit"])
def test_partner_of_another_input_width_is_one_error_line(data_dir, tmp_path, capsys,
                                                          narrow_encoder, variant):
    out = tmp_path / "main"
    code = main(["train-main", "--base", str(data_dir / "base.pald"),
                 "--partner", str(narrow_encoder), "--out", str(out),
                 "--set", f"train.variant={variant}", *TRAIN_TINY])
    assert code == 1
    line = _one_error_line(capsys)
    assert f"variant {variant}: the partner takes 16 input features" in line
    assert "base split has 32" in line
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["eval-episodes", "--episodes", "5", "--csv"],
    ["dump-embeddings", "--out"],
], ids=["eval-episodes", "dump-embeddings"])
def test_checkpoint_of_another_width_names_encode(data_dir, tmp_path, capsys, narrow_encoder,
                                                  command):
    out_csv = tmp_path / "out.csv"
    code = main([command[0], "--checkpoint", str(narrow_encoder),
                 "--data", str(data_dir / "novel.pald"), *command[1:], str(out_csv)])
    assert code == 1
    line = _one_error_line(capsys)
    assert line.startswith("pal: error: encode: expected inputs with 16 features, got shape (")
    assert line.endswith(", 32)")
    assert not out_csv.exists()


def test_checkpoint_whose_layers_do_not_chain_is_one_error_line(data_dir, tmp_path, capsys):
    enc = Encoder(EncoderConfig(input_dim=32, hidden_dims=(16,), embed_dim=8, seed=0))
    enc.weights[1].data = np.zeros((20, 8))
    bad = tmp_path / "bad.palw"
    save_encoder(enc, bad)
    code = main(["eval-episodes", "--checkpoint", str(bad), "--data",
                 str(data_dir / "novel.pald"), "--episodes", "5"])
    assert code == 1
    assert _one_error_line(capsys) == (
        f"pal: error: {bad}: layer 1 takes 20 inputs but layer 0 gives 16")


@pytest.mark.parametrize("command,stage", [
    (["train-partner"], "PAL partner stage"),
    (["train-variant", "--variant", "SupCT_only"], "SupCT_only main stage"),
    (["train-variant", "--variant", "CE_only"], "CE_only main stage"),
    (["train-variant", "--variant", "MultiTask"], "MultiTask main stage"),
    (["train-variant", "--variant", "Reverse"], "Reverse partner stage"),
    (["train-variant", "--variant", "Partner_CE"], "Partner_CE partner stage"),
    (["train-variant", "--variant", "Mutual"], "Mutual main stage"),
], ids=["train-partner", "train-variant", "CE_only", "MultiTask", "Reverse", "Partner_CE",
        "Mutual"])
def test_empty_base_split_is_one_error_line(tmp_path, capsys, command, stage):
    empty = tmp_path / "empty.pald"
    save_dataset(Split(np.zeros((0, 32), np.float32), np.zeros(0, np.int32), 28), empty)
    out = tmp_path / "run"
    assert main([*command, "--base", str(empty), "--out", str(out), *TRAIN_TINY]) == 1
    assert f"{stage}: the base split has no rows" in _one_error_line(capsys)
    assert not out.exists()


@pytest.fixture
def one_class(tmp_path):
    """A base split whose 16 rows all hold class 3."""
    path = tmp_path / "one_class.pald"
    x = np.random.default_rng(0).normal(size=(16, 32)).astype(np.float32)
    save_dataset(Split(x, np.full(16, 3, np.int32), 28), path)
    return path


@pytest.mark.parametrize("command,stage", [
    (["train-variant", "--variant", "PAL"], "PAL main stage"),
    (["train-variant", "--variant", "Reverse"], "Reverse partner stage"),
    (["train-variant", "--variant", "Mutual"], "Mutual main stage"),
    (["train-variant", "--variant", "CE_only"], "CE_only main stage"),
    (["train-main"], "PAL main stage"),
], ids=["PAL", "Reverse", "Mutual", "CE_only", "train-main"])
def test_single_class_base_split_is_one_error_line(one_class, tmp_path, capsys, command, stage):
    """A cross-entropy stage refuses one class before any stage writes: PAL's
    contrastive partner would otherwise train and be saved first."""
    out = tmp_path / "run"
    assert main([*command, "--base", str(one_class), "--out", str(out), *TRAIN_TINY]) == 1
    line = _one_error_line(capsys)
    assert f"{stage}: cross-entropy needs >= 2 base classes, got 1" in line
    assert not out.exists()


def test_single_class_grid_leaves_no_out_dir(one_class, data_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["ablate", "--table", "5", "--base", str(one_class),
                 "--data", str(data_dir / "novel.pald"), "--out", str(out),
                 "--episodes", "10", *TRAIN_TINY]) == 1
    assert "CE_only main stage: cross-entropy needs >= 2" in _one_error_line(capsys)
    assert not out.exists()


def test_ablate_table4_rows(data_dir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert main(["ablate", "--table", "4",
                 "--base", str(data_dir / "base.pald"),
                 "--data", str(data_dir / "novel.pald"),
                 "--out", str(out), "--episodes", "10", *TRAIN_TINY]) == 0
    with open(out / "table4.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["CE_only", "Partner_CT", "Partner_CE", "PAL"]
    for row in rows:
        assert np.isfinite(float(row["acc_1shot"]))
        assert np.isfinite(float(row["acc_5shot"]))


def test_encoder_config_reaches_training(data_dir, tmp_path):
    run = tmp_path / "run"
    assert main(["train-variant", "--variant", "CE_only",
                 "--base", str(data_dir / "base.pald"), "--out", str(run),
                 "--set", "encoder.embed_dim=16",
                 "--set", "encoder.hidden_dims=24,24", *TRAIN_TINY]) == 0
    out_csv = tmp_path / "emb.csv"
    assert main(["dump-embeddings", "--checkpoint", str(run / "main_encoder.palw"),
                 "--data", str(data_dir / "novel.pald"), "--out", str(out_csv)]) == 0
    header = out_csv.read_text().splitlines()[0].split(",")
    assert len(header) == 2 + 16
    code = main(["train-variant", "--variant", "CE_only",
                 "--base", str(data_dir / "base.pald"), "--out", str(run),
                 "--set", "encoder.input_dim=99", *TRAIN_TINY])
    assert code == 1  # declared input_dim contradicts the data


def test_bad_classifier_scale_fails_before_training(data_dir, tmp_path, capsys):
    run = tmp_path / "run"
    code = main(["train-variant", "--variant", "PAL",
                 "--base", str(data_dir / "base.pald"), "--out", str(run),
                 "--set", "encoder.scale=0", *TRAIN_TINY])
    assert code == 1
    assert "scale must be positive" in capsys.readouterr().err
    assert not run.exists() or not any(run.iterdir())


@pytest.mark.parametrize("args, field", [
    (["--set", "encoder.scale=0"], "scale"),
    (["--set", "encoder.embed_dim=1"], "embed_dim"),
    (["--set", "encoder.hidden_dims=0"], "hidden_dims"),
    (["--set", "encoder.input_dim=-3"], "input_dim"),
    (["--jobs", "0"], "jobs"),
    (["--jobs", "-2"], "jobs"),
    (["--episodes", "0"], "episodes"),
    (["--q", "0"], "q"),
], ids=["scale=0", "embed_dim=1", "hidden_dims=0", "input_dim=-3", "jobs=0", "jobs=-2",
        "episodes=0", "q=0"])
def test_ablate_bad_input_fails_before_output(data_dir, tmp_path, capsys, args, field):
    out = tmp_path / "grid"
    code = main(["ablate", "--table", "5",
                 "--base", str(data_dir / "base.pald"),
                 "--data", str(data_dir / "novel.pald"),
                 "--out", str(out), "--episodes", "5", *TRAIN_TINY, *args])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pal: error: {field} must be") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("q, need", [(30, 31), (20, 25)])
def test_ablate_split_too_small_fails_before_output(data_dir, tmp_path, capsys, q, need):
    # 24 rows per novel class: q = 20 fills a 1-shot episode but not a 5-shot one.
    out = tmp_path / "grid"
    code = main(["ablate", "--table", "5",
                 "--base", str(data_dir / "base.pald"),
                 "--data", str(data_dir / "novel.pald"),
                 "--out", str(out), "--episodes", "5", "--q", str(q), *TRAIN_TINY])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pal: error: episode needs 5 classes with >= {need} items")
    assert err.count("\n") == 1
    assert not out.exists()


def test_ablate_table3_scheme_list(data_dir, tmp_path):
    out = tmp_path / "grid3"
    assert main(["ablate", "--table", "3", "--seed", "7",
                 "--base", str(data_dir / "base.pald"),
                 "--data", str(data_dir / "novel.pald"),
                 "--out", str(out), "--episodes", "10", *TRAIN_TINY]) == 0
    with open(out / "table3.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == [
        "CE_only", "SupCT_only", "MultiTask", "Mutual", "Reverse", "PAL",
    ]


def test_ablate_parallel_jobs_match_sequential(data_dir, tmp_path):
    args = [
        "ablate", "--table", "4",
        "--base", str(data_dir / "base.pald"),
        "--data", str(data_dir / "novel.pald"),
        "--episodes", "10", *TRAIN_TINY,
    ]
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main([*args, "--out", str(seq), "--jobs", "1"]) == 0
    assert main([*args, "--out", str(par), "--jobs", "2"]) == 0
    assert (seq / "table4.csv").read_text() == (par / "table4.csv").read_text()


def test_pool_modules_import_only_for_parallel_jobs():
    code = ("import sys, pal.ablation, pal.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(Path(pal.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; only drawing needs it.
    code = "import sys, pal, pal.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(pal.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_module_docstring_names_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [name for name in sub.choices if f"``{name}``" not in pal.cli.__doc__]
    assert sub.choices and missing == []


@pytest.mark.parametrize("argv", [
    ["init-config", "run.cfg"],
    ["eval-episodes", "--checkpoint", "enc.palw", "--data", "novel.pald"],
], ids=["init-config", "eval-episodes"])
def test_commands_that_write_no_run_directory_reject_out(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_init_config_template(tmp_path):
    path = tmp_path / "run.cfg"
    assert main(["init-config", str(path)]) == 0
    text = path.read_text()
    assert "[train]" in text and "variant = PAL" in text


def _tiny_cfg():
    from pal.training import TrainConfig

    return TrainConfig(epochs=1, lr_decay_epoch=1, warmup_epochs=0, batch_size=16)


def _tiny_table(data_dir, out, novel="novel.pald"):
    from pal.ablation import run_table
    from pal.batching import AugmentConfig
    from pal.config import DESK_AUGMENT

    return run_table(4, data_dir / "base.pald", data_dir / novel, _tiny_cfg(),
                     AugmentConfig(**DESK_AUGMENT), out, episodes=5, jobs=1)


def test_ablate_reads_each_split_once(data_dir, tmp_path, monkeypatch):
    import pal.ablation

    loads = []
    real_load = pal.ablation.load_dataset
    monkeypatch.setattr(pal.ablation, "load_dataset",
                        lambda path: loads.append(path) or real_load(path))
    _tiny_table(data_dir, tmp_path / "grid")
    assert loads == [data_dir / "base.pald", data_dir / "novel.pald"]


def test_ablate_missing_split_writes_nothing(data_dir, tmp_path):
    out = tmp_path / "grid"
    with pytest.raises(OSError):
        _tiny_table(data_dir, out, novel="missing.pald")
    assert not out.exists()


def test_ablate_writes_5way_1_and_5shot_evals_per_row(data_dir, tmp_path):
    from pal.ablation import ROW_COLUMNS, TABLE_VARIANTS

    path = _tiny_table(data_dir, tmp_path / "grid")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert ROW_COLUMNS == (
        "variant", "episodes", "acc_1shot", "ci95_1shot", "acc_5shot", "ci95_5shot"
    )
    assert [r["variant"] for r in rows] == [v.value for v in TABLE_VARIANTS[4]]
    for row in rows:
        run_dir = tmp_path / "grid" / row["variant"]
        evals = sorted(p.name for p in run_dir.glob("eval_*"))
        assert evals == ["eval_5way_1shot.csv", "eval_5way_5shot.csv"]
        for k in (1, 5):
            with open(run_dir / f"eval_5way_{k}shot.csv", newline="") as fh:
                accs = [float(r[1]) for r in list(csv.reader(fh))[1:-1]]
            assert float(row[f"acc_{k}shot"]) == pytest.approx(np.mean(accs), rel=1e-9)


def test_ablate_draws_each_shot_once_and_scores_every_row_on_it(data_dir, tmp_path, monkeypatch):
    import pal.ablation
    import pal.episodes
    from pal.ablation import TABLE_VARIANTS
    from pal.encoders import load_encoder
    from pal.episodes import evaluate
    from pal.training import eval_seed

    draws, evals = [], []
    real_draw = pal.episodes.sample_episode
    monkeypatch.setattr(pal.episodes, "sample_episode",
                        lambda *a: draws.append(a) or real_draw(*a))
    monkeypatch.setattr(pal.ablation, "evaluate",
                        lambda *a, **kw: evals.append(a) or evaluate(*a, **kw))
    _tiny_table(data_dir, tmp_path / "grid")
    variants = [v.value for v in TABLE_VARIANTS[4]]
    assert (len(draws), len(evals)) == (2 * 5, 2 * len(variants))

    # Each row's evaluation files are what its checkpoint gives when it draws
    # its own episodes under the grid's evaluation seed.
    monkeypatch.undo()
    novel = load_dataset(data_dir / "novel.pald")
    for variant in variants:
        run_dir = tmp_path / "grid" / variant
        enc = load_encoder(run_dir / "main_encoder.palw")
        for k in (1, 5):
            fresh = tmp_path / f"{variant}_{k}.csv"
            report = evaluate(enc, novel, n=5, k=k, q=15, episodes=5, rng=eval_seed(_tiny_cfg()))
            report.to_csv(fresh)
            assert (run_dir / f"eval_5way_{k}shot.csv").read_bytes() == fresh.read_bytes()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _grid(data_dir, out, table, jobs=1):
    from pal.ablation import run_table
    from pal.batching import AugmentConfig
    from pal.config import DESK_AUGMENT

    run_table(table, data_dir / "base.pald", data_dir / "novel.pald", _tiny_cfg(),
              AugmentConfig(**DESK_AUGMENT), out, episodes=5, jobs=jobs)
    return _tree(out)


@pytest.mark.parametrize("table, alone", [(3, 8), (4, 7), (5, 11)])
def test_grid_trains_each_distinct_stage_once_with_the_same_bytes(data_dir, tmp_path, monkeypatch,
                                                                  fit_calls, table, alone):
    """Rows that share a stage train it once per ``run_table`` call; every
    file is what the rows write when each trains on its own."""
    import pal.ablation

    shared = _grid(data_dir, tmp_path / "shared", table)
    assert len(fit_calls) == 7
    fit_calls.clear()
    assert _grid(data_dir, tmp_path / "again", table) == shared
    assert len(fit_calls) == 7  # nothing carries over from the first call

    real_train = pal.ablation.train_variant
    monkeypatch.setattr(pal.ablation, "train_variant",
                        lambda *a, reuse=None, **kw: real_train(*a, **kw))
    fit_calls.clear()
    assert _grid(data_dir, tmp_path / "alone", table) == shared
    assert len(fit_calls) == alone


def test_parallel_grid_writes_the_sequential_bytes(data_dir, tmp_path):
    assert _grid(data_dir, tmp_path / "par", 5, jobs=2) == _grid(data_dir, tmp_path / "seq", 5)


@pytest.fixture
def small_checkpoint(tmp_path):
    path = tmp_path / "enc.palw"
    save_encoder(Encoder(EncoderConfig(input_dim=32, hidden_dims=(8,), embed_dim=4, seed=0)), path)
    return path


@pytest.mark.parametrize("argv, env_seed, line", [
    (["gen-data", "--seed", "-1", "--out", "{out}"], None, "seed must be >= 0, got -1"),
    (["train-variant", "--variant", "PAL", "--base", "{base}", "--seed", "-2", "--out", "{out}",
      *TRAIN_TINY], None, "seed must be >= 0, got -2"),
    (["train-variant", "--variant", "PAL", "--base", "{base}", "--out", "{out}", *TRAIN_TINY],
     "-3", "seed must be >= 0, got -3"),
    (["eval-episodes", "--checkpoint", "{checkpoint}", "--data", "{novel}",
      "--eval-seed", "-1", "--csv", "{out}/eval.csv"], None, "rng must be a seed >= 0, got -1"),
], ids=["gen-data", "train-variant", "PAL_SEED", "eval-episodes"])
def test_negative_seed_is_one_error_line(data_dir, small_checkpoint, tmp_path, capsys,
                                          monkeypatch, argv, env_seed, line):
    out = tmp_path / "out"
    if env_seed is not None:
        monkeypatch.setenv("PAL_SEED", env_seed)
    paths = dict(base=data_dir / "base.pald", novel=data_dir / "novel.pald",
                 checkpoint=small_checkpoint, out=out)
    assert main([a.format(**paths) for a in argv]) == 1
    assert _one_error_line(capsys) == f"pal: error: {line}"
    assert not out.exists()


@pytest.mark.parametrize("argv, line", [
    (["train-variant", "--variant", "PAL", "--out", "{out}", *TRAIN_TINY],
     "no base split given; pass --base or set [data] base"),
    (["eval-episodes", "--checkpoint", "{checkpoint}", "--csv", "{out}/eval.csv"],
     "no novel split given; pass --data or set [data] novel"),
], ids=["train-variant", "eval-episodes"])
def test_missing_split_is_one_error_line(small_checkpoint, tmp_path, capsys, argv, line):
    out = tmp_path / "out"
    paths = dict(checkpoint=small_checkpoint, out=out)
    assert main([a.format(**paths) for a in argv]) == 1
    assert _one_error_line(capsys) == f"pal: error: {line}"
    assert not out.exists()
