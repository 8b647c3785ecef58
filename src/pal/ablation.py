"""Ablation grids: the objective-integration schemes, partner-objective
comparison, and alignment-loss comparison, each emitted as one CSV whose
rows are named exactly by variant.

Grid entries are fully isolated runs (own seed streams, own output files),
so ``jobs > 1`` executes them in worker processes without shared state.
"""
from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .batching import AugmentConfig
from .data import atomic_write, load_dataset
from .episodes import evaluate
from .exceptions import ParameterError
from .training import NetConfig, TrainConfig, Variant, eval_seed, train_variant

TABLE_VARIANTS: dict[int, tuple[Variant, ...]] = {
    # Training schemes combining the two objective types.
    3: (
        Variant.CE_ONLY,
        Variant.SUPCT_ONLY,
        Variant.MULTITASK,
        Variant.MUTUAL,
        Variant.REVERSE,
        Variant.PAL,
    ),
    # Main-encoder performance under differently trained partners.
    4: (
        Variant.CE_ONLY,
        Variant.PARTNER_CT,
        Variant.PARTNER_CE,
        Variant.PAL,
    ),
    # Alignment-loss combinations: none / logit / KL / feat / feat+logit /
    # feat+KL.
    5: (
        Variant.CE_ONLY,
        Variant.PAL_LOGIT_ONLY,
        Variant.PAL_KL_LOGIT,
        Variant.PAL_FEAT_ONLY,
        Variant.PAL,
        Variant.PAL_FEAT_KL,
    ),
}

ROW_COLUMNS = (
    "variant",
    "episodes",
    "acc_1shot",
    "ci95_1shot",
    "acc_5shot",
    "ci95_5shot",
)


@dataclass
class AblationRow:
    variant: str
    episodes: int
    acc_1shot: float
    ci95_1shot: float
    acc_5shot: float
    ci95_5shot: float


def _run_one(cfg: TrainConfig, *, base, novel, aug, net, out_dir, n, k_values, q,
             episodes) -> AblationRow:
    run_dir = Path(out_dir) / cfg.variant.value
    result = train_variant(base, cfg, aug=aug, out_dir=run_dir, net=net)
    reports = {}
    for k in k_values:
        reports[k] = evaluate(
            result.encoder, novel, n=n, k=k, q=q, episodes=episodes, rng=eval_seed(cfg)
        )
        reports[k].to_csv(run_dir / f"eval_{n}way_{k}shot.csv")
    return AblationRow(
        variant=cfg.variant.value,
        episodes=episodes,
        acc_1shot=reports[k_values[0]].mean_accuracy,
        ci95_1shot=reports[k_values[0]].ci95,
        acc_5shot=reports[k_values[1]].mean_accuracy if len(k_values) > 1 else float("nan"),
        ci95_5shot=reports[k_values[1]].ci95 if len(k_values) > 1 else float("nan"),
    )


def run_table(
    table: int,
    base_path,
    novel_path,
    cfg: TrainConfig,
    aug: AugmentConfig,
    out_dir,
    net: NetConfig = NetConfig(),
    n: int = 5,
    k_values: tuple[int, ...] = (1, 5),
    q: int = 15,
    episodes: int = 600,
    jobs: int = 1,
) -> Path:
    """Train and evaluate every variant of ``table``; write ``tableN.csv``
    and return its path. All rows share the config seed, so they are
    directly comparable; isolation between rows is per-run state only. Each
    split is read once, before anything is written, and every row (in
    process or in a worker) trains and evaluates on those arrays."""
    if table not in TABLE_VARIANTS:
        raise ParameterError(f"table must be one of {sorted(TABLE_VARIANTS)}, got {table}")
    base = load_dataset(base_path)
    novel = load_dataset(novel_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_one = partial(_run_one, base=base, novel=novel, aug=aug, net=net,
                      out_dir=out, n=n, k_values=tuple(k_values), q=q, episodes=episodes)
    cfgs = [replace(cfg, variant=variant) for variant in TABLE_VARIANTS[table]]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, cfgs))
    else:
        rows = list(map(run_one, cfgs))

    path = out / f"table{table}.csv"
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.variant,
                    row.episodes,
                    f"{row.acc_1shot:.10g}",
                    f"{row.ci95_1shot:.10g}",
                    f"{row.acc_5shot:.10g}",
                    f"{row.ci95_5shot:.10g}",
                ]
            )
    return path
