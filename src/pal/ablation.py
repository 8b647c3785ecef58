"""Ablation grids: the objective-integration schemes, partner-objective
comparison, and alignment-loss comparison, each emitted as one CSV
(``ROW_COLUMNS``, by :func:`pal.data.write_csv`) whose rows are named by variant.

Grid entries are isolated runs (own seed streams, own output files) that
share only read-only inputs: the two splits, and one episode set per shot,
drawn once per grid. Every row evaluates under the same seed, so every row
is scored on the same episodes, and ``jobs > 1`` executes rows in worker
processes that get those inputs as arguments.

With ``jobs == 1`` the rows share one dict of trained partner stages per
:func:`run_table` call (``train_variant``'s ``reuse``), so a partner stage
several rows share trains once (table 5: 7 stages, not 11; table 3: 7, not
8) and each row still writes its own files, byte for byte. Worker rows do
not share stages.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .batching import AugmentConfig
from .data import load_dataset, write_csv
from .episodes import draw_episodes, evaluate
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

# Every table is 5-way, evaluated 1- and 5-shot, as its column names say.
WAYS, SHOTS = 5, (1, 5)


@dataclass
class AblationRow:
    variant: str
    episodes: int
    acc_1shot: float
    ci95_1shot: float
    acc_5shot: float
    ci95_5shot: float


ROW_COLUMNS = tuple(f.name for f in fields(AblationRow))


def _run_one(cfg: TrainConfig, *, base, novel, aug, net, out_dir, q, drawn,
             reuse=None) -> AblationRow:
    run_dir = Path(out_dir) / cfg.variant.value
    result = train_variant(base, cfg, aug=aug, out_dir=run_dir, net=net, reuse=reuse)
    stats = []
    for k in SHOTS:
        report = evaluate(result.encoder, novel, n=WAYS, k=k, q=q, episodes=drawn[k])
        report.to_csv(run_dir / f"eval_{WAYS}way_{k}shot.csv")
        stats += [report.mean_accuracy, report.ci95]
    return AblationRow(cfg.variant.value, report.episodes, *stats)


def run_table(
    table: int,
    base_path,
    novel_path,
    cfg: TrainConfig,
    aug: AugmentConfig,
    out_dir,
    net: NetConfig = NetConfig(),
    q: int = 15,
    episodes: int = 600,
    jobs: int = 1,
) -> Path:
    """Train every variant of ``table`` and evaluate it 5-way 1- and 5-shot
    (``{variant}/eval_5way_{k}shot.csv``); write ``tableN.csv`` and return
    its path. All rows share the config seed, so they are directly
    comparable; isolation between rows is per-run state only. Each split is
    read once and each shot's episodes are drawn once (under
    ``eval_seed(cfg)``), before anything is written, and every row (in
    process or in a worker) trains on those arrays and is scored on those
    episodes. Evaluation settings the novel split cannot serve thus fail
    before anything is trained or written."""
    if table not in TABLE_VARIANTS:
        raise ParameterError(f"table must be one of {sorted(TABLE_VARIANTS)}, got {table}")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    base = load_dataset(base_path)
    novel = load_dataset(novel_path)
    drawn = {k: draw_episodes(novel, WAYS, k, q, episodes, eval_seed(cfg)) for k in SHOTS}
    out = Path(out_dir)  # each row's stage writes create it
    run_one = partial(_run_one, base=base, novel=novel, aug=aug, net=net,
                      out_dir=out, q=q, drawn=drawn)
    cfgs = [replace(cfg, variant=variant) for variant in TABLE_VARIANTS[table]]
    if jobs > 1:
        # Imported here: the pool modules cost every importing process RSS.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, cfgs))
    else:
        rows = list(map(partial(run_one, reuse={}), cfgs))

    path = out / f"table{table}.csv"
    write_csv(path, ROW_COLUMNS, map(astuple, rows))
    return path
