"""Command-line interface.

Subcommands:

* ``gen-data``         write a seeded synthetic benchmark
* ``init-config``      write a config file template
* ``train-partner``    stage one: the variant's partner
* ``train-main``       stage two: aligned main-encoder training
* ``train-variant``    any full training scheme end to end
* ``eval-episodes``    episodic N-way K-shot evaluation of a checkpoint
* ``ablate``           run a whole comparison grid, one CSV per table
* ``dump-embeddings``  embed a split under a checkpoint for external tools

Exit codes: 0 on success, 1 on a runtime failure (one-line diagnostic on
stderr), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import TABLE_VARIANTS, run_table
from .config import RunConfig, build_run_config, write_config_template
from .data import SyntheticSpec, generate_synthetic, load_dataset, write_csv
from .encoders import load_encoder
from .episodes import evaluate
from .exceptions import PALError, ParameterError
from .training import (
    Variant,
    eval_seed,
    train_main,
    train_partner,
    train_variant,
)


def _add_config_args(parser: argparse.ArgumentParser, out: bool = False) -> None:
    parser.add_argument("--config", type=Path, default=None, help="run config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    if out:  # only the commands that write a run directory take one
        parser.add_argument("--out", type=Path, default=Path("runs/latest"),
                            help="output directory")


def _resolve(args, variant: str | None = None) -> RunConfig:
    return build_run_config(
        config_path=args.config,
        overrides=args.overrides,
        seed=args.seed,
        variant=variant,
    )


def _base_path(run: RunConfig, flag_value):
    path = flag_value or run.base_path
    if not path:
        raise ParameterError("no base split given; pass --base or set [data] base")
    return path


def _novel_path(run: RunConfig, flag_value):
    path = flag_value or run.novel_path
    if not path:
        raise ParameterError("no novel split given; pass --data or set [data] novel")
    return path


def cmd_gen_data(args) -> int:
    if args.spec != "default":
        raise ParameterError(f"unknown spec {args.spec!r}; available: default")
    spec = SyntheticSpec(
        seed=args.seed if args.seed is not None else SyntheticSpec.seed,
        margin=args.margin,
        world_depth=args.depth,
        items_per_class=args.items,
    )
    dataset = generate_synthetic(spec, out_dir=args.out)
    rep = dataset.report
    print(f"wrote {args.out}/base.pald ({len(dataset.base.y)} items)")
    print(f"wrote {args.out}/novel.pald ({len(dataset.novel.y)} items)")
    print(f"raw-space centroid holdout accuracy: {rep.centroid_holdout_accuracy:.4f}")
    print(f"min inter-class center distance: {rep.min_center_distance:.4f}")
    return 0


def cmd_init_config(args) -> int:
    write_config_template(args.out_file, _resolve(args))
    print(f"wrote {args.out_file}")
    return 0


def cmd_train_partner(args) -> int:
    run = _resolve(args)
    base = load_dataset(_base_path(run, args.base))
    result = train_partner(base, run.train, aug=run.augment, out_dir=args.out, net=run.net)
    print(f"wrote {result.encoder_checkpoint}")
    print(f"final partner loss: {result.metrics.rows[-1]['loss_total']:.6f}")
    return 0


def cmd_train_main(args) -> int:
    run = _resolve(args)
    base = load_dataset(_base_path(run, args.base))
    partner = load_encoder(args.partner).freeze() if args.partner else None
    result = train_main(
        base, run.train, partner=partner, aug=run.augment, out_dir=args.out, net=run.net
    )
    print(f"wrote {result.encoder_checkpoint}")
    if result.classifier_checkpoint:
        print(f"wrote {result.classifier_checkpoint}")
    print(f"final main loss: {result.metrics.rows[-1]['loss_total']:.6f}")
    return 0


def cmd_train_variant(args) -> int:
    run = _resolve(args, variant=args.variant)
    base = load_dataset(_base_path(run, args.base))
    result = train_variant(base, run.train, aug=run.augment, out_dir=args.out, net=run.net)
    print(f"variant {result.variant.value}: wrote {result.encoder_checkpoint}")
    return 0


def cmd_eval_episodes(args) -> int:
    run = _resolve(args)
    novel = load_dataset(_novel_path(run, args.data))
    encoder = load_encoder(args.checkpoint)
    seed = args.eval_seed if args.eval_seed is not None else eval_seed(run.train)
    report = evaluate(
        encoder, novel, n=args.n, k=args.k, q=args.q, episodes=args.episodes, rng=seed
    )
    print(report.summary())
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_ablate(args) -> int:
    run = _resolve(args)
    path = run_table(
        table=args.table,
        base_path=_base_path(run, args.base),
        novel_path=_novel_path(run, args.data),
        cfg=run.train,
        aug=run.augment,
        out_dir=args.out,
        net=run.net,
        episodes=args.episodes,
        q=args.q,
        jobs=args.jobs,
    )
    print(f"wrote {path}")
    for line in Path(path).read_text().splitlines():
        print(line)
    return 0


def cmd_dump_embeddings(args) -> int:
    encoder = load_encoder(args.checkpoint)
    split = load_dataset(args.data)
    z = encoder.encode(split.x.astype(np.float64))
    write_csv(args.out_file, ["index", "label", *(f"e{i}" for i in range(z.shape[1]))],
              ([i, int(label), *row] for i, (label, row) in enumerate(zip(split.y, z))))
    print(f"wrote {args.out_file} ({z.shape[0]} rows, dim {z.shape[1]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pal",
        description="Partner-assisted representation learning, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"pal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic benchmark")
    p.add_argument("--spec", default="default", help="named spec (default: default)")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--margin", type=float, default=SyntheticSpec.margin)
    p.add_argument("--depth", type=int, default=SyntheticSpec.world_depth)
    p.add_argument("--items", type=int, default=SyntheticSpec.items_per_class)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("init-config", help="write a config file template")
    _add_config_args(p)
    p.add_argument("out_file", type=Path)
    p.set_defaults(func=cmd_init_config)

    p = sub.add_parser("train-partner", help="stage one: the variant's partner")
    _add_config_args(p, out=True)
    p.add_argument("--base", type=Path, default=None, help="base split file")
    p.set_defaults(func=cmd_train_partner)

    p = sub.add_parser("train-main", help="stage two: train the main encoder")
    _add_config_args(p, out=True)
    p.add_argument("--base", type=Path, default=None, help="base split file")
    p.add_argument("--partner", type=Path, default=None, help="partner checkpoint")
    p.set_defaults(func=cmd_train_main)

    p = sub.add_parser("train-variant", help="run a full training scheme")
    _add_config_args(p, out=True)
    p.add_argument("--base", type=Path, default=None, help="base split file")
    p.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in Variant],
    )
    p.set_defaults(func=cmd_train_variant)

    p = sub.add_parser("eval-episodes", help="episodic evaluation of a checkpoint")
    _add_config_args(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, default=None, help="novel split file")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=15)
    p.add_argument("--episodes", type=int, default=600)
    p.add_argument("--eval-seed", type=int, default=None)
    p.add_argument("--csv", type=Path, default=None)
    p.set_defaults(func=cmd_eval_episodes)

    p = sub.add_parser("ablate", help="run a comparison table")
    _add_config_args(p, out=True)
    p.add_argument("--table", type=int, required=True, choices=sorted(TABLE_VARIANTS))
    p.add_argument("--base", type=Path, default=None)
    p.add_argument("--data", type=Path, default=None, help="novel split file")
    p.add_argument("--episodes", type=int, default=600)
    p.add_argument("--q", type=int, default=15)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("dump-embeddings", help="write a split's embeddings to CSV")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", dest="out_file", type=Path, required=True)
    p.set_defaults(func=cmd_dump_embeddings)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PALError, OSError) as exc:
        print(f"pal: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
