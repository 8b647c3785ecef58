"""Golden digests: the bytes every training entry point writes at a tiny
config, the float64 losses it logs, the episode accuracies of the trained
encoders, one ablation table and one embedding dump.

``golden/digests.json`` maps each checkpoint, metrics CSV, evaluation CSV,
``table4.csv`` and dump CSV (path relative to the output root) to its
SHA-256. It also maps
``{run}/rows_{role}.repr`` to the SHA-256 of the ``repr`` of every in-memory
metrics row of that stage, one row per line: the CSVs round losses to 10
digits and the checkpoints round weights to float32, so only these entries
see a last-bit change in the float64 training arithmetic. A refactor of the training code must
leave every digest unchanged; a change that sets out to alter numerics
regenerates only the affected entries and says why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write

The bytes depend on float arithmetic, so they are tied to the numpy and BLAS
build the digests were generated with.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from pal import cli
from pal.ablation import run_table
from pal.batching import AugmentConfig
from pal.data import SyntheticSpec, generate_synthetic, save_dataset
from pal.encoders import load_encoder
from pal.episodes import evaluate
from pal.training import (
    NetConfig, TrainConfig, Variant, eval_seed, train_main, train_partner, train_variant,
)

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
SPEC = SyntheticSpec(
    n_base_classes=4, n_novel_classes=2, items_per_class=12, raw_dim=12, margin=2.5, seed=11
)
CFG = TrainConfig(
    epochs=2,
    lr=0.05,
    lr_decay_epoch=1,
    batch_size=8,
    tau=0.5,
    warmup_epochs=1,
    seed=3,
    momentum=0.9,
    weight_decay=5e-4,
)
AUG = AugmentConfig(noise_sigma=0.3, mask_prob=0.1)
NET = NetConfig(hidden_dims=(16,), embed_dim=8, scale=8.0)
CAPS = {"uncapped": {}, "capped": dict(n_pos=1, n_neg=2)}
# The two-step CLI path: ``pal train-partner``, then ``pal train-main`` on the
# reloaded, frozen partner checkpoint (no partner for CE_only).
CLI_VARIANTS = (Variant.PAL, Variant.PARTNER_CT, Variant.CE_ONLY)
# 2-way evaluation of every uncapped variant's encoder on the novel split.
EVAL_SHOTS = (1, 5)
EVAL_QUERIES = 5
EVAL_EPISODES = 20
# ``run_table(4)`` needs 5 novel classes (every table is 5-way); with the same
# seed the base rows are the golden ones. Only its ``table4.csv`` is digested.
TABLE_SPEC = replace(SPEC, n_novel_classes=5)
TABLE_QUERIES = 2
TABLE_EPISODES = 10
# ``pal dump-embeddings`` of this golden encoder on the golden novel split.
DUMPED = "uncapped/PAL/main_encoder.palw"


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _rows_digests(run: str, metrics: dict) -> dict[str, str]:
    """``{run}/rows_{role}.repr`` -> digest of the repr of each logged row."""
    return {
        f"{run}/rows_{role}.repr": _sha256("\n".join(map(repr, log.rows)).encode())
        for role, log in metrics.items()
    }


def produce(out: Path) -> dict[str, str]:
    """Write every golden output under ``out`` and return their digests, plus
    the digests of every stage's float64 metrics rows."""
    dataset = generate_synthetic(SPEC)
    base = dataset.base
    rows = {}
    for cap, fields in CAPS.items():
        for variant in Variant:
            cfg = replace(CFG, variant=variant, **fields)
            run_dir = out / cap / variant.value
            result = train_variant(base, cfg, aug=AUG, out_dir=run_dir, net=NET)
            rows.update(_rows_digests(f"{cap}/{variant.value}", result.metrics))
            if cap != "uncapped":
                continue
            for k in EVAL_SHOTS:
                report = evaluate(result.encoder, dataset.novel, n=2, k=k, q=EVAL_QUERIES,
                                  episodes=EVAL_EPISODES, rng=eval_seed(cfg))
                report.to_csv(run_dir / f"eval_2way_{k}shot.csv")
    for variant in CLI_VARIANTS:
        cfg = replace(CFG, variant=variant)
        run_dir = out / "cli" / variant.value
        partner = None
        metrics = {}
        if variant is not Variant.CE_ONLY:
            part = train_partner(base, cfg, aug=AUG, out_dir=run_dir, net=NET)
            partner = load_encoder(part.encoder_checkpoint).freeze()
            metrics["partner"] = part.metrics
        main = train_main(base, cfg, partner=partner, aug=AUG, out_dir=run_dir, net=NET)
        metrics["main"] = main.metrics
        rows.update(_rows_digests(f"cli/{variant.value}", metrics))
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        generate_synthetic(TABLE_SPEC, out_dir=scratch)
        table = run_table(4, scratch / "base.pald", scratch / "novel.pald", CFG, AUG,
                          scratch / "table", net=NET, q=TABLE_QUERIES, episodes=TABLE_EPISODES)
        shutil.copy(table, out / table.name)
        save_dataset(dataset.novel, scratch / "golden_novel.pald")
        assert cli.main(["dump-embeddings", "--checkpoint", str(out / DUMPED),
                         "--data", str(scratch / "golden_novel.pald"),
                         "--out", str(out / "dump_PAL_novel.csv")]) == 0
    files = {
        path.relative_to(out).as_posix(): _sha256(path.read_bytes())
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return {**files, **rows}


def test_training_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = produce(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = produce(Path(tmp))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
