"""Episode sampling, prototype classification, and accuracy aggregation.

The encoder is read-only during evaluation, so :func:`evaluate` does every
per-split step once per call: it groups the novel rows by class, checks that
enough classes can fill an episode, and encodes the whole split in a single
``encode``. An episode is then only its random draws, which pick row indices
into the split, plus gathers from the cached embeddings. Each episode draws
from its own generator stream split off the evaluation seed, so the report
does not depend on evaluation order and repeated runs with one seed are
identical.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import l2_normalize
from .data import Split, atomic_write
from .exceptions import CapacityError, ContractError, ParameterError


@dataclass(frozen=True)
class EpisodePool:
    """What every N-way K-shot episode of one split draws from: the classes
    with at least k + q rows (ascending ids) and each one's row indices
    (ascending). Built once per split by :func:`episode_pool`."""

    x: np.ndarray = field(repr=False)  # the split's rows, shared, not copied
    eligible: np.ndarray  # class ids
    rows: dict[int, np.ndarray]  # class id -> row indices into ``x``


def episode_pool(novel: Split, n: int, k: int, q: int) -> EpisodePool:
    """Group ``novel`` by class and check that ``n`` classes can each give
    ``k`` support and ``q`` query rows."""
    if n < 1 or k < 1 or q < 1:
        raise ParameterError(f"n, k, q must be >= 1, got {(n, k, q)}")
    order = np.argsort(novel.y, kind="stable")
    classes, starts, counts = np.unique(novel.y[order], return_index=True, return_counts=True)
    keep = counts >= k + q
    if np.count_nonzero(keep) < n:
        raise CapacityError(
            f"episode needs {n} classes with >= {k + q} items; only "
            f"{np.count_nonzero(keep)} of {len(classes)} novel classes qualify"
        )
    rows = np.split(order, starts[1:])
    return EpisodePool(
        x=novel.x,
        eligible=classes[keep],
        rows={int(c): r for c, r, ok in zip(classes, rows, keep) if ok},
    )


@dataclass
class Episode:
    classes: np.ndarray  # (n,) novel class ids
    support_rows: np.ndarray  # (n*k,) row indices into ``x``, k per class in class order
    support_y: np.ndarray  # (n*k,) positions into ``classes``
    query_rows: np.ndarray  # (n*q,) row indices into ``x``, q per class in class order
    query_y: np.ndarray  # (n*q,) positions into ``classes``
    x: np.ndarray = field(repr=False)  # the split's rows, shared, not copied

    @property
    def support_x(self) -> np.ndarray:
        return self.x[self.support_rows].astype(np.float64)

    @property
    def query_x(self) -> np.ndarray:
        return self.x[self.query_rows].astype(np.float64)


@dataclass
class EvalReport:
    episodes: int
    mean_accuracy: float
    ci95: float
    per_episode: list[float]

    def summary(self) -> str:
        return f"{self.mean_accuracy:.4f} ± {self.ci95:.4f}"

    def to_csv(self, path) -> None:
        with atomic_write(path, text=True) as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode_id", "accuracy"])
            for i, acc in enumerate(self.per_episode):
                writer.writerow([i, f"{acc:.10g}"])
            writer.writerow(["mean_ci95", self.summary()])


def sample_episode(
    novel: Split | EpisodePool, n: int, k: int, q: int, rng: np.random.Generator
) -> Episode:
    """Uniform N-way K-shot task: classes without replacement, then items
    without replacement within each class; support and query are disjoint.

    ``novel`` is a split, or the pool :func:`episode_pool` built from one for
    the same ``n``, ``k`` and ``q``."""
    pool = novel if isinstance(novel, EpisodePool) else episode_pool(novel, n, k, q)
    chosen = rng.choice(pool.eligible, size=n, replace=False)
    picked = np.stack(
        [rng.choice(pool.rows[c], size=k + q, replace=False) for c in chosen.tolist()]
    )
    return Episode(
        classes=chosen,
        support_rows=picked[:, :k].ravel(),
        support_y=np.repeat(np.arange(n), k),
        query_rows=picked[:, k:].ravel(),
        query_y=np.repeat(np.arange(n), q),
        x=pool.x,
    )


def prototypes(z_support: np.ndarray, support_y: np.ndarray, n: int) -> np.ndarray:
    """Per-class mean of the support embeddings, then L2-normalized. The rows
    come k per class in class order, as :func:`sample_episode` lays them out."""
    z = np.asarray(z_support, dtype=np.float64)
    k = len(z) // n
    if k == 0 or not np.array_equal(support_y, np.repeat(np.arange(n), k)):
        raise ContractError(
            f"prototypes need k >= 1 support rows for each of the {n} classes, "
            "grouped in class order"
        )
    return l2_normalize(z.reshape(n, k, -1).mean(axis=1), axis=-1)


def classify_query(protos: np.ndarray, z_q: np.ndarray) -> int:
    """Argmax over cosine similarity; ties go to the lowest class index."""
    if len(protos) == 0:
        raise ParameterError("need at least one prototype")
    return int(np.argmax(protos @ np.asarray(z_q, dtype=np.float64)))


def evaluate(
    enc,
    novel: Split,
    n: int = 5,
    k: int = 1,
    q: int = 15,
    episodes: int = 600,
    rng: np.random.Generator | int | None = None,
) -> EvalReport:
    """Mean episode accuracy with a 95% normal-approximation interval."""
    if episodes < 1:
        raise ParameterError(f"episodes must be >= 1, got {episodes}")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(0 if rng is None else int(rng))
    pool = episode_pool(novel, n, k, q)
    z = enc.encode(novel.x)
    streams = rng.spawn(episodes)
    accs: list[float] = []
    for stream in streams:
        episode = sample_episode(pool, n, k, q, stream)
        protos = prototypes(z[episode.support_rows], episode.support_y, n)
        pred = np.argmax(z[episode.query_rows] @ protos.T, axis=1)
        accs.append(float(np.mean(pred == episode.query_y)))
    per_episode = np.asarray(accs)
    mean = float(per_episode.mean())
    if episodes > 1:
        ci = float(1.96 * per_episode.std(ddof=1) / np.sqrt(episodes))
    else:
        ci = 0.0
    return EvalReport(episodes=episodes, mean_accuracy=mean, ci95=ci, per_episode=accs)
