"""Episode sampling, prototype classification, and accuracy aggregation.

The encoder is read-only during evaluation, so :func:`evaluate` does every
per-split step once per call: it groups the novel rows by class, checks that
enough classes can fill an episode, and encodes the whole split in a single
``encode``. An episode is then only its random draws, which pick row indices
into the split, plus gathers from the cached embeddings. Each episode draws
from its own generator stream split off the evaluation seed, so the report
does not depend on evaluation order and repeated runs with one seed are
identical.

Evaluation draws, then scores, blocks of :data:`BLOCK` episodes: it spawns
the block's streams, draws each episode's rows into one index array, and
scores the whole block with one gather, one :func:`prototypes` call, one
stacked cosine product and one argmax. Spawning block by block yields the
same streams as one spawn for every episode, and the working set is one
block, so memory stays flat in the episode count.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import l2_normalize
from .data import Split, atomic_write
from .exceptions import CapacityError, ContractError, ParameterError

# Episodes drawn, then scored, together by :func:`evaluate`.
BLOCK = 64


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
    for name, value in (("n", n), ("k", k), ("q", q)):
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
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
    rows: np.ndarray  # (n, k + q) row indices into ``x``: per class, k support then q query
    k: int
    x: np.ndarray = field(repr=False)  # the split's rows, shared, not copied

    @property
    def support_x(self) -> np.ndarray:
        """(n*k, dim) support rows, k per class in class order."""
        return self.x[self.rows[:, : self.k].ravel()].astype(np.float64)

    @property
    def query_x(self) -> np.ndarray:
        """(n*q, dim) query rows, q per class in class order."""
        return self.x[self.rows[:, self.k :].ravel()].astype(np.float64)

    @property
    def support_y(self) -> np.ndarray:
        """(n*k,) positions into ``classes``."""
        return np.repeat(np.arange(len(self.classes)), self.k)

    @property
    def query_y(self) -> np.ndarray:
        """(n*q,) positions into ``classes``."""
        return np.repeat(np.arange(len(self.classes)), self.rows.shape[1] - self.k)


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
    rows = np.empty((n, k + q), dtype=np.intp)
    for i, c in enumerate(chosen.tolist()):
        rows[i] = rng.choice(pool.rows[c], size=k + q, replace=False)
    return Episode(classes=chosen, rows=rows, k=k, x=pool.x)


def prototypes(z_support: np.ndarray, support_y: np.ndarray, n: int) -> np.ndarray:
    """Per-class mean of the support embeddings, then L2-normalized. The rows
    come k per class in class order, as :func:`sample_episode` lays them out.

    ``z_support`` is ``(n*k, d)``, or ``(..., n*k, d)`` for a stack of
    episodes that share ``support_y``; the result is ``(..., n, d)``."""
    z = np.asarray(z_support, dtype=np.float64)
    k = z.shape[-2] // n
    if k == 0 or not np.array_equal(support_y, np.repeat(np.arange(n), k)):
        raise ContractError(
            f"prototypes need k >= 1 support rows for each of the {n} classes, "
            "grouped in class order"
        )
    return l2_normalize(z.reshape(*z.shape[:-2], n, k, z.shape[-1]).mean(axis=-2), axis=-1)


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
    support_y = np.repeat(np.arange(n), k)
    query_y = np.repeat(np.arange(n), q)
    rows = np.empty((BLOCK, n, k + q), dtype=np.intp)
    accs: list[float] = []
    for start in range(0, episodes, BLOCK):
        streams = rng.spawn(min(BLOCK, episodes - start))
        for i, stream in enumerate(streams):
            rows[i] = sample_episode(pool, n, k, q, stream).rows
        b = len(streams)
        protos = prototypes(z[rows[:b, :, :k]].reshape(b, n * k, -1), support_y, n)
        sims = z[rows[:b, :, k:]].reshape(b, n * q, -1) @ protos.transpose(0, 2, 1)
        accs += (np.argmax(sims, axis=-1) == query_y).mean(axis=-1).tolist()
    per_episode = np.asarray(accs)
    mean = float(per_episode.mean())
    if episodes > 1:
        ci = float(1.96 * per_episode.std(ddof=1) / np.sqrt(episodes))
    else:
        ci = 0.0
    return EvalReport(episodes=episodes, mean_accuracy=mean, ci95=ci, per_episode=accs)
