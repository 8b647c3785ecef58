"""The three benchmark workloads: set-up, timed body and correctness checks.

Every input comes from the workload seed: it is ``SyntheticSpec.seed``, the
``TrainConfig`` seed, and through ``eval_seed`` the evaluation seed. The
program sees only the generated PALD files.

The schedule is the desk schedule (``config.DESK_TRAIN``/``DESK_AUGMENT``)
cut to two epochs with one warm-up epoch and no learning-rate decay. With
``warmup_epochs < epochs`` the alignment weight reaches 1 in the second
epoch, so the six table-5 main encoders differ. At one epoch CE_only,
PAL_logit_only and PAL_KL_logit write byte-identical encoders, and so do
PAL_feat_only, PAL and PAL_feat_KL.
"""
from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pal import ablation, data, encoders, episodes, training
from pal.batching import AugmentConfig
from pal.config import DESK_AUGMENT, DESK_TRAIN

_now = time.perf_counter

# Accuracies must clear chance (1/n) by this much: a pipeline that stops
# learning scores at chance, while the weakest checked figure at the seed
# commit (CE_only, 5-way 1-shot) sits about 0.2 above it.
CHANCE_MARGIN = 0.03
QUERIES = 15
GRID_TABLE = 5
# Rows whose main stage trains on the floored KL objective. The floor zeroes
# the gradient of most entries (ROADMAP.md, "Log-space KL"); on some seeds they
# end near chance (PAL_KL_logit: 0.2256 at 5-way 1-shot, seed 2), so these
# rows are checked for finite accuracy only. The defect stays visible in their
# printed accuracies and in ``losses.kl_floored_entries``.
KL_ROWS = ("PAL_KL_logit", "PAL_feat_KL")


@dataclass(frozen=True)
class Sizes:
    """How much work one iteration does. ``BENCH`` is what ``run.py``
    measures; the coverage test uses ``TINY``."""

    items_per_class: int = 200  # default SyntheticSpec: 4000 base rows
    epochs: int = 2
    warmup_epochs: int = 1
    episodes: int = 600  # per evaluate call, pal_two_stage and eval_sweep
    grid_episodes: int = 300  # per evaluate call inside the table-5 grid
    brute_episodes: int = 20  # eval_sweep episodes recomputed by brute force
    warm_rows: int = 256  # base rows of the set-up warm-up run
    warm_episodes: int = 5


BENCH = Sizes()
TINY = Sizes(items_per_class=60, episodes=30, grid_episodes=10, brute_episodes=5,
             warm_rows=64, warm_episodes=2)


class Ledger:
    """Operations attempted and failed: a training stage, an ``evaluate``
    call or a correctness check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.attempted += 1
        else:
            self.fail(f"{name}: {detail}" if detail else name)


@dataclass
class Iteration:
    """One timed body: its metrics, digests and what the checks need."""

    wall_s: float
    metrics: dict[str, float]
    extras: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    state: dict = field(default_factory=dict)


def train_config(seed: int, variant: str, sizes: Sizes, epochs: int | None = None) -> training.TrainConfig:
    epochs = sizes.epochs if epochs is None else epochs
    return training.TrainConfig(**{
        **DESK_TRAIN,
        "epochs": epochs,
        "lr_decay_epoch": epochs,
        "warmup_epochs": min(sizes.warmup_epochs, epochs),
        "seed": seed,
        "variant": variant,
    })


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_accuracies(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def file_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every checkpoint and CSV under ``out``, by relative path."""
    return {
        str(p.relative_to(out)): sha256_file(p)
        for p in sorted(out.rglob("*"))
        if p.suffix in (".palw", ".csv")
    }


def above_chance(ledger: Ledger, name: str, acc: float, n: int) -> None:
    floor = 1.0 / n + CHANCE_MARGIN
    ledger.check(f"{name} above chance", math.isfinite(acc) and acc > floor,
                 f"accuracy {acc!r} not above {floor:.4f}")


def check_metrics_csv(ledger: Ledger, path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [
        (row["epoch"], row["step"], col)
        for row in rows
        for col in ("loss_total", "loss_ce", "loss_feat", "loss_logit", "loss_aux")
        if not math.isfinite(float(row[col]))
    ]
    ledger.check(f"{path.parent.name}/{path.name} losses finite", bool(rows) and not bad,
                 f"{len(rows)} rows, non-finite at (epoch, step, column) {bad[:3]}")


def check_reload(ledger: Ledger, name: str, path: Path, in_memory, x: np.ndarray) -> None:
    reloaded = encoders.load_encoder(path)
    ledger.check(f"{name} reloads identically",
                 np.array_equal(reloaded.encode(x), in_memory.encode(x)),
                 "encode outputs differ after load_encoder")


def _strided_subset(split: data.Split, rows: int) -> data.Split:
    """Every k-th row, so a small subset keeps every class."""
    step = max(1, len(split.y) // rows)
    return data.Split(split.x[::step].copy(), split.y[::step].copy(), split.label_width)


class Workload:
    """Shared set-up: the seeded PALD files, then a warm-up on a subset."""

    name = ""
    variants: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes = BENCH):
        self.seed = seed
        self.sizes = sizes
        self.aug = AugmentConfig(**DESK_AUGMENT)
        self.spec = data.SyntheticSpec(items_per_class=sizes.items_per_class, seed=seed)

    def setup(self, work: Path, ledger: Ledger) -> None:
        """Write the inputs into ``work``, prepare, and warm up."""
        work.mkdir(parents=True)
        self.work = work
        self.base_path = work / "base.pald"
        self.novel_path = work / "novel.pald"
        data.generate_synthetic(self.spec, out_dir=work)
        self.novel = data.load_dataset(self.novel_path)
        self.prepare(ledger)
        self.warm_up(work / "warm")

    def prepare(self, ledger: Ledger) -> None:
        pass

    def input_digests(self) -> dict[str, str]:
        """SHA-256 of the files set-up generated for the bodies."""
        return {p.name: sha256_file(p) for p in sorted(self.work.glob("*.pal[dw]"))}

    def warm_up(self, out: Path) -> None:
        base = _strided_subset(data.load_dataset(self.base_path), self.sizes.warm_rows)
        for variant in self.variants:
            cfg = train_config(self.seed, variant, self.sizes, epochs=1)
            result = training.train_variant(base, cfg, aug=self.aug, out_dir=out / variant)
            for k in (1, 5):
                episodes.evaluate(result.encoder, self.novel, n=5, k=k, q=QUERIES,
                                  episodes=self.sizes.warm_episodes, rng=training.eval_seed(cfg))

    def run(self, out: Path) -> Iteration:
        raise NotImplementedError

    def check(self, out: Path, it: Iteration, ledger: Ledger) -> None:
        raise NotImplementedError


class PalTwoStage(Workload):
    """``train_variant(PAL)`` into an out dir, as ``pal train-variant`` does,
    then 5-way 1-shot and 5-way 5-shot evaluation of the main encoder."""

    name = "pal_two_stage"
    variants = ("PAL",)

    def run(self, out: Path) -> Iteration:
        cfg = train_config(self.seed, "PAL", self.sizes)
        start = _now()
        base = data.load_dataset(self.base_path)
        novel = data.load_dataset(self.novel_path)
        t_train = _now()
        result = training.train_variant(base, cfg, aug=self.aug, out_dir=out)
        t_eval = _now()
        reports = {
            k: episodes.evaluate(result.encoder, novel, n=5, k=k, q=QUERIES,
                                 episodes=self.sizes.episodes, rng=training.eval_seed(cfg))
            for k in (1, 5)
        }
        end = _now()
        rows = 2 * len(base.y) * cfg.epochs * 2  # two stages over 2B-row batches
        digests = file_digests(out)
        for k, report in reports.items():
            digests[f"accuracies 5w{k}s"] = sha256_accuracies(report.per_episode)
        return Iteration(
            wall_s=end - start,
            metrics={
                "train_samples_per_s": rows / (t_eval - t_train),
                "eval_episodes_per_s": 2 * self.sizes.episodes / (end - t_eval),
                "acc_5w1s": reports[1].mean_accuracy,
                "acc_5w5s": reports[5].mean_accuracy,
            },
            digests=digests,
            state={"result": result, "novel": novel},
        )

    def check(self, out: Path, it: Iteration, ledger: Ledger) -> None:
        ledger.ops(2 + 2)  # two stages, two evaluate calls
        above_chance(ledger, "acc_5w1s", it.metrics["acc_5w1s"], 5)
        above_chance(ledger, "acc_5w5s", it.metrics["acc_5w5s"], 5)
        for path in sorted(out.glob("metrics_*.csv")):
            check_metrics_csv(ledger, path)
        result, x = it.state["result"], it.state["novel"].x
        check_reload(ledger, "main_encoder.palw", out / "main_encoder.palw", result.encoder, x)
        check_reload(ledger, "partner_encoder.palw", out / "partner_encoder.palw", result.partner, x)


class AblationTable5(Workload):
    """``ablation.run_table(5, ..., jobs=1)`` from the set-up PALD files."""

    name = "ablation_table5"
    variants = tuple(v.value for v in ablation.TABLE_VARIANTS[GRID_TABLE])
    # CE_only trains one stage; each other row trains a partner and a main stage.
    stages = sum(1 if v is training.Variant.CE_ONLY else 2
                 for v in ablation.TABLE_VARIANTS[GRID_TABLE])

    def warm_up(self, out: Path) -> None:
        base = _strided_subset(data.load_dataset(self.base_path), self.sizes.warm_rows)
        data.save_dataset(base, self.work / "warm_base.pald")
        ablation.run_table(GRID_TABLE, self.work / "warm_base.pald", self.novel_path,
                           train_config(self.seed, "PAL", self.sizes, epochs=1), self.aug,
                           out, episodes=self.sizes.warm_episodes, jobs=1)

    def run(self, out: Path) -> Iteration:
        cfg = train_config(self.seed, "PAL", self.sizes)
        start = _now()
        table = ablation.run_table(GRID_TABLE, self.base_path, self.novel_path, cfg, self.aug,
                                   out, episodes=self.sizes.grid_episodes, jobs=1)
        wall = _now() - start
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        acc = {r["variant"]: (float(r["acc_1shot"]), float(r["acc_5shot"])) for r in rows}
        base_rows = self.spec.n_base_classes * self.spec.items_per_class
        return Iteration(
            wall_s=wall,
            metrics={
                # The grid interleaves training with evaluation and file
                # writes; this is rows trained per second of the whole grid.
                "train_samples_per_s": 2 * base_rows * cfg.epochs * self.stages / wall,
                "acc_5w1s": float(np.mean([a[0] for a in acc.values()])),
                "acc_5w5s": float(np.mean([a[1] for a in acc.values()])),
            },
            extras={
                "pal_ce_margin_5w1s": acc.get("PAL", (math.nan,))[0]
                - acc.get("CE_only", (math.nan,))[0],
                **{f"{v}.acc_5w{k}s": a[i] for v, a in acc.items() for i, k in enumerate((1, 5))},
            },
            digests=file_digests(out),
            state={"rows": rows, "cfg": cfg},
        )

    def check(self, out: Path, it: Iteration, ledger: Ledger) -> None:
        rows, cfg = it.state["rows"], it.state["cfg"]
        ledger.ops(self.stages + 2 * len(self.variants))
        names = [r["variant"] for r in rows]
        ledger.check("table5.csv rows", names == list(self.variants),
                     f"rows {names}, expected {list(self.variants)}")
        above_chance(ledger, "mean acc_5w1s", it.metrics["acc_5w1s"], 5)
        above_chance(ledger, "mean acc_5w5s", it.metrics["acc_5w5s"], 5)
        for row in rows:
            for col in ("acc_1shot", "acc_5shot"):
                name, acc = f"{row['variant']} {col}", float(row[col])
                if row["variant"] in KL_ROWS:
                    ledger.check(f"{name} finite", math.isfinite(acc), f"accuracy {acc!r}")
                else:
                    above_chance(ledger, name, acc, 5)
        for path in sorted(out.glob("*/metrics_*.csv")):
            check_metrics_csv(ledger, path)
        # run_table returns no encoders, so the in-memory encoders are known
        # only through the evaluation CSVs the grid wrote from them: each
        # reloaded checkpoint must reproduce them episode for episode.
        eval_s = 0.0
        for variant in self.variants:
            enc = encoders.load_encoder(out / variant / "main_encoder.palw")
            for k in (1, 5):
                start = _now()
                report = episodes.evaluate(enc, self.novel, n=5, k=k, q=QUERIES,
                                           episodes=self.sizes.grid_episodes,
                                           rng=training.eval_seed(cfg))
                eval_s += _now() - start
                with open(out / variant / f"eval_5way_{k}shot.csv", newline="") as fh:
                    written = [r[1] for r in list(csv.reader(fh))[1:-1]]
                ledger.check(f"{variant} main_encoder.palw reproduces eval_5way_{k}shot.csv",
                             written == [f"{a:.10g}" for a in report.per_episode],
                             "per-episode accuracies differ")
            ledger.ops(2)
        it.metrics["eval_episodes_per_s"] = 2 * len(self.variants) * self.sizes.grid_episodes / eval_s
        mains = [it.digests[f"{v}/main_encoder.palw"] for v in self.variants]
        ledger.check("six main encoders pairwise distinct", len(set(mains)) == len(mains),
                     "two variants wrote identical main encoders")


# (n, k) cells of the sweep; 5-way cells also give the shared accuracy metrics.
SWEEP = ((5, 1), (5, 5), (8, 1), (8, 5))


class EvalSweep(Workload):
    """``evaluate`` of one fixed encoder, trained in set-up, over
    (n, k) in {5, 8} x {1, 5} with q = 15."""

    name = "eval_sweep"
    variants = ("CE_only",)

    def prepare(self, ledger: Ledger) -> None:
        self.base = data.load_dataset(self.base_path)
        self.cfg = train_config(self.seed, "CE_only", self.sizes)
        result = training.train_variant(self.base, self.cfg, aug=self.aug)
        path = self.work / "encoder.palw"
        encoders.save_encoder(result.encoder, path)
        self.encoder = encoders.load_encoder(path)
        ledger.ops(1)
        check_reload(ledger, "encoder.palw", path, result.encoder, self.novel.x)

    def warm_up(self, out: Path) -> None:
        for n, k in SWEEP:
            episodes.evaluate(self.encoder, self.novel, n=n, k=k, q=QUERIES,
                              episodes=self.sizes.warm_episodes, rng=0)

    def run(self, out: Path) -> Iteration:
        seed = training.eval_seed(self.cfg)
        reports = {}
        start = _now()
        for n, k in SWEEP:
            reports[n, k] = episodes.evaluate(self.encoder, self.novel, n=n, k=k, q=QUERIES,
                                              episodes=self.sizes.episodes, rng=seed)
        wall = _now() - start
        return Iteration(
            wall_s=wall,
            metrics={
                "eval_episodes_per_s": len(SWEEP) * self.sizes.episodes / wall,
                "acc_5w1s": reports[5, 1].mean_accuracy,
                "acc_5w5s": reports[5, 5].mean_accuracy,
            },
            extras={f"acc_{n}w{k}s": r.mean_accuracy for (n, k), r in reports.items()},
            digests={f"accuracies {n}w{k}s": sha256_accuracies(r.per_episode)
                     for (n, k), r in reports.items()},
            state={"reports": reports, "seed": seed},
        )

    def check(self, out: Path, it: Iteration, ledger: Ledger) -> None:
        ledger.ops(len(SWEEP) + 1)
        # The body trains nothing; retraining the set-up encoder after each
        # body both checks that training is reproducible and gives this
        # workload its training throughput.
        start = _now()
        retrained = training.train_variant(self.base, self.cfg, aug=self.aug).encoder
        train_s = _now() - start
        it.metrics["train_samples_per_s"] = 2 * len(self.base.y) * self.cfg.epochs / train_s
        ledger.check("retrained encoder equals encoder.palw",
                     all(np.array_equal(a.data, b.data)
                         for a, b in zip(retrained.parameters(), self.encoder.parameters())),
                     "weights differ")
        for (n, k), report in it.state["reports"].items():
            above_chance(ledger, f"acc_{n}w{k}s", report.mean_accuracy, n)
            count = min(self.sizes.brute_episodes, report.episodes)
            expected = brute_force_accuracies(self.encoder, self.novel, n, k, QUERIES,
                                              it.state["seed"], count)
            ledger.check(f"{n}w{k}s first {count} episodes match brute force",
                         expected == list(report.per_episode[:count]),
                         f"evaluate {report.per_episode[:count]} vs brute force {expected}")


def brute_force_accuracies(enc, novel: data.Split, n: int, k: int, q: int, seed: int,
                           count: int) -> list[float]:
    """Per-episode accuracies of the first ``count`` episodes, recomputed in
    plain numpy: the same episode draws as ``evaluate`` (one spawned
    generator per episode), the encoder's forward pass from its weights,
    the mean prototype, and a cosine argmax scanned in class order so a
    tie goes to the lowest index."""
    weights = [w.data for w in enc.weights]
    biases = [b.data for b in enc.biases]

    def embed(x):
        h = np.asarray(x, dtype=np.float64)
        for i, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w + b
            if i < len(weights) - 1:
                h = np.maximum(h, 0.0)
        return h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)

    classes = np.unique(novel.y)
    eligible = np.array([c for c in classes if np.count_nonzero(novel.y == c) >= k + q])
    out = []
    for rng in np.random.default_rng(seed).spawn(count):
        chosen = rng.choice(eligible, size=n, replace=False)
        protos, queries, truth = [], [], []
        for pos, c in enumerate(chosen):
            picked = rng.choice(np.flatnonzero(novel.y == c), size=k + q, replace=False)
            proto = embed(novel.x[picked[:k]]).mean(axis=0)
            protos.append(proto / max(np.linalg.norm(proto), 1e-12))
            queries.extend(embed(novel.x[picked[k:]]))
            truth.extend([pos] * q)
        correct = 0
        for z, label in zip(queries, truth):
            best, best_sim = 0, float(np.dot(protos[0], z))
            for j in range(1, n):
                sim = float(np.dot(protos[j], z))
                if sim > best_sim:
                    best, best_sim = j, sim
            correct += best == label
        out.append(correct / len(truth))
    return out


WORKLOADS = {w.name: w for w in (PalTwoStage, AblationTable5, EvalSweep)}
