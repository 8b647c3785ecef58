"""Episode sampling, prototype classification, and accuracy aggregation.

Evaluation draws, then scores. :func:`draw_episodes` draws a split's
episodes once into an :class:`EpisodeSet`: one ``(E, n, k + q)`` int32
array of row indices into the split (per episode and class, k support then
q query rows), with ``n``, ``k``, ``q``, the split's row count and each
episode's class ids. Each episode draws from its own generator stream split
off the evaluation seed, so the draws do not depend on evaluation order and
repeated runs with one seed are identical. The seed is an int, never a
generator, which would advance as it draws. Episode i's stream is still the
seed's i-th spawned child, ``np.random.default_rng(seed).spawn(...)[i]``, but
its state is derived rather than spawned: one vectorized hash per block of
:data:`BLOCK` episodes, pinned to ``Generator.spawn`` by a test. Only one
block's generators are alive at a time.

The encoder is read-only during evaluation, so :func:`evaluate` encodes the
whole split once per call and scores blocks of :data:`BLOCK` episodes with
one gather, one :func:`prototypes` call, one stacked cosine product and one
argmax. Given an episode count it draws each block just before scoring it,
so memory stays flat in the episode count. Given an :class:`EpisodeSet` it
draws nothing and scores slices of the set, so every encoder evaluated on
one set (all rows of an ablation grid) is scored on the same episodes. A
set only holds row indices, so :func:`evaluate` refuses, before it encodes
anything, a set whose ``n``, ``k`` or ``q`` differ from its arguments or
whose rows do not carry the set's class ids in the split it is given: such
a set would silently score the wrong rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import l2_normalize
from .data import Split, write_csv
from .exceptions import CapacityError, ContractError, ParameterError

# Episodes whose streams are derived and drawn together, and scored together
# by :func:`evaluate`.
BLOCK = 64

# numpy's ``SeedSequence`` hash on 32-bit words: each step xors a word with a
# running constant, advances the constant by one multiply, multiplies the word
# by it and xor-shifts it right by 16. Pool words mix as ``L*x - R*y``, shifted.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# The constants ``generate_state`` runs through for 8 words (4 uint64).
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, t, 2**32) & _M32 for t in range(9)], np.uint64)


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
    ``k`` support and ``q`` query rows. A 1-way episode always scores 1.0,
    so ``n`` must be at least 2."""
    for name, value, least in (("n", n, 2), ("k", k, 1), ("q", q, 1)):
        if value < least:
            raise ParameterError(f"{name} must be >= {least}, got {value}")
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
    def support_y(self) -> np.ndarray:
        """(n*k,) positions into ``classes``."""
        return np.repeat(np.arange(len(self.classes)), self.k)

    @property
    def query_y(self) -> np.ndarray:
        """(n*q,) positions into ``classes``."""
        return np.repeat(np.arange(len(self.classes)), self.rows.shape[1] - self.k)


@dataclass(frozen=True, eq=False)
class EpisodeSet:
    """Episodes drawn once by :func:`draw_episodes`, for scoring any number
    of encoders on one split; :func:`draw_episodes` makes its arrays
    read-only."""

    rows: np.ndarray = field(repr=False)  # (E, n, k + q) int32 row indices into the split
    classes: np.ndarray = field(repr=False)  # (E, n) each episode's class ids
    n: int
    k: int
    q: int
    split_rows: int  # row count of the split the rows index


@dataclass
class EvalReport:
    episodes: int
    mean_accuracy: float
    ci95: float
    per_episode: list[float]

    def summary(self) -> str:
        return f"{self.mean_accuracy:.4f} ± {self.ci95:.4f}"

    def to_csv(self, path) -> None:
        write_csv(path, ["episode_id", "accuracy"],
                  [*enumerate(self.per_episode), ["mean_ci95", self.summary()]])


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


def _seed(rng: int | None) -> int:
    if rng is not None and not isinstance(rng, (int, np.integer)):
        raise ParameterError(f"rng must be an int seed or None, got {type(rng).__name__}")
    if rng is not None and rng < 0:
        raise ParameterError(f"rng must be a seed >= 0, got {rng}")
    return 0 if rng is None else int(rng)


def _check_count(episodes: int) -> None:
    if episodes < 1:
        raise ParameterError(f"episodes must be >= 1, got {episodes}")
    # Episode i draws from spawn key (i,), which must fit one 32-bit word.
    if episodes >= 2**32:
        raise ParameterError(f"episodes must be < 2**32, got {episodes}")


@cache
def _state_words_type() -> type:
    """Built on the first draw: subclassing ``ISeedSequence`` loads
    ``numpy.random``, which ``import pal`` leaves unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        # One per episode: with an instance dict, a benchmark process's peak
        # RSS crept up by about 1 MB over repeated set-ups.
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _StateWords(words: np.ndarray):
    """The (4,) uint64 state a ``PCG64`` asks its seed sequence for, precomputed."""
    return _state_words_type()(words)


def _stream_states(seed: int, first: int, count: int) -> np.ndarray:
    """(count, 4) uint64: ``SeedSequence(seed, spawn_key=(i,)).generate_state(4,
    np.uint64)`` for ``i`` in ``first .. first + count - 1``, the states of the
    children ``np.random.default_rng(seed).spawn`` makes.

    numpy mixes the seed's entropy words, zero-padded to at least 4, into a
    4-word pool with 4 hash steps per word: that pool is
    ``SeedSequence(seed).pool``. The child's one key word ``i`` takes the
    next 4 steps, one per pool word, and ``generate_state`` hashes the pool
    into 8 words, low half first. Both run for every ``i`` at once."""
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    steps = 4 * max(4, -(-seed.bit_length() // 32))
    hash_a = np.array([_INIT_A * pow(_MULT_A, steps + t, 2**32) & _M32 for t in range(5)],
                      np.uint64)
    key = np.arange(first, first + count, dtype=np.uint64)[:, None]
    keyed = (key ^ hash_a[:-1]) * hash_a[1:] & _M32
    keyed ^= keyed >> 16
    mixed = (_MIX_L * pool - _MIX_R * keyed) & _M32
    mixed ^= mixed >> 16
    state = (mixed[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:] & _M32
    state ^= state >> 16
    # PCG64 reads its state through a raw pointer: rows must be contiguous.
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << 32)


def _draw_into(rows: np.ndarray, pool: EpisodePool, n: int, k: int, q: int,
               seed: int, first: int) -> np.ndarray:
    """Fill ``rows`` (b, n, k + q) with episodes ``first .. first + b - 1`` of
    ``seed`` and return it. Episode i draws from the seed's i-th spawned
    child, ``np.random.default_rng(seed).spawn(...)[i]``, whose state
    :func:`_stream_states` derives for the whole block at once; a test pins
    each derived stream to ``Generator.spawn``."""
    for i, words in enumerate(_stream_states(seed, first, len(rows))):
        stream = np.random.Generator(np.random.PCG64(_StateWords(words)))
        rows[i] = sample_episode(pool, n, k, q, stream).rows
    return rows


def draw_episodes(
    novel: Split,
    n: int,
    k: int,
    q: int,
    episodes: int,
    rng: int | None = None,
) -> EpisodeSet:
    """The ``episodes`` episodes that :func:`evaluate` with the same
    arguments would draw, drawn once, in the same order."""
    _check_count(episodes)
    pool = episode_pool(novel, n, k, q)
    seed = _seed(rng)
    rows = np.empty((episodes, n, k + q), dtype=np.int32)
    for start in range(0, episodes, BLOCK):
        _draw_into(rows[start : start + BLOCK], pool, n, k, q, seed, start)
    classes = novel.y[rows[:, :, 0]]
    rows.flags.writeable = classes.flags.writeable = False
    return EpisodeSet(rows=rows, classes=classes, n=n, k=k, q=q, split_rows=len(novel.y))


def _check_drawn_from(drawn: EpisodeSet, novel: Split, n: int, k: int, q: int) -> None:
    if (drawn.n, drawn.k, drawn.q) != (n, k, q):
        raise ContractError(
            f"episode set is {drawn.n}-way {drawn.k}-shot with {drawn.q} queries; "
            f"evaluate was asked for {n}-way {k}-shot with {q}"
        )
    if drawn.split_rows != len(novel.y) or not np.array_equal(
        novel.y[drawn.rows], np.broadcast_to(drawn.classes[:, :, None], drawn.rows.shape)
    ):
        raise ContractError("episode set was drawn from another split")


def evaluate(
    enc,
    novel: Split,
    n: int = 5,
    k: int = 1,
    q: int = 15,
    episodes: int | EpisodeSet = 600,
    rng: int | None = None,
) -> EvalReport:
    """Mean episode accuracy with a 95% normal-approximation interval.

    ``episodes`` is a count, whose episodes are drawn under the int seed
    ``rng`` (None is 0), or an :class:`EpisodeSet` drawn from ``novel`` for
    the same ``n``, ``k`` and ``q``, scored as it is (``rng`` unused)."""
    seed = _seed(rng)
    if isinstance(episodes, EpisodeSet):
        _check_drawn_from(episodes, novel, n, k, q)
        count = len(episodes.rows)
    else:
        count, pool = episodes, episode_pool(novel, n, k, q)
        buffer = np.empty((BLOCK, n, k + q), dtype=np.intp)
    _check_count(count)
    z = enc.encode(novel.x)
    support_y = np.repeat(np.arange(n), k)
    query_y = np.repeat(np.arange(n), q)
    accs: list[float] = []
    for start in range(0, count, BLOCK):
        b = min(BLOCK, count - start)
        if isinstance(episodes, EpisodeSet):
            rows = episodes.rows[start : start + b]
        else:
            rows = _draw_into(buffer[:b], pool, n, k, q, seed, start)
        protos = prototypes(z[rows[:, :, :k]].reshape(b, n * k, -1), support_y, n)
        sims = z[rows[:, :, k:]].reshape(b, n * q, -1) @ protos.transpose(0, 2, 1)
        accs += (np.argmax(sims, axis=-1) == query_y).mean(axis=-1).tolist()
    per_episode = np.asarray(accs)
    mean = float(per_episode.mean())
    if count > 1:
        ci = float(1.96 * per_episode.std(ddof=1) / np.sqrt(count))
    else:
        ci = 0.0
    return EvalReport(episodes=count, mean_accuracy=mean, ci95=ci, per_episode=accs)
