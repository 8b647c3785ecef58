"""Independent reference implementations used by the tests.

Most of this module is brute force: plain double loops over python floats
(with a max-shift for stability), deliberately sharing no code with the
tensor path it checks. The positive and anchor sets are built one row at a
time, the way the package built them before it used dense masks, and
episodic evaluation encodes each episode's own rows, the way it ran before it
encoded the split once per call. An episode's draws are replayed from its
stream's raw 32-bit words, the way numpy's ``Generator.choice`` reads them.

The ``*_composite`` functions are the other kind of reference: the chains of
primitives (``matmul``, ``add``, ``relu``, ``l2_normalize``,
``log_sum_exp``, ``reduce_sum``, ...; ``graph_ops.py``) that the package's
fused graph nodes replaced. A fused node must reproduce its chain's value and every gradient
bit for bit, so these are compared with ``np.array_equal``.

A further section keeps the second implementations the package folded onto
one (the graph-free encoder pass, the vanilla SGD step, the direct softmax):
the merged path must still give their bytes. The last one holds helpers that
only the tests call (index-set views of the masks, an anchor-set check,
per-epoch metric means, a classifier checkpoint reader, episode rows).
"""
from __future__ import annotations

import math

import numpy as np

from pal.batching import mask_rows, other_view_mask, same_class_mask
from pal.core import Tensor, as_tensor, reshape, scale
from pal.encoders import CosineClassifier, _read_palw
from pal.exceptions import ContractError, FormatError, ParameterError
from pal.losses import PROB_FLOOR

from graph_ops import (
    clamp_min,
    l2_normalize,
    log,
    log_sum_exp,
    matmul,
    mul,
    reduce_sum,
    relu,
    sub,
    transpose,
)


def lse_py(values) -> float:
    values = [float(v) for v in values]
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def supct_brute(z: np.ndarray, pos_sets, tau: float) -> tuple[float, int]:
    """Spec formula for the supervised contrastive loss, double loop."""
    n = len(z)
    total = 0.0
    skipped = 0
    for i in range(n):
        pos = list(pos_sets[i])
        if not pos:
            skipped += 1
            continue
        denom = lse_py([float(z[i] @ z[a]) / tau for a in range(n) if a != i])
        inner = 0.0
        for j in pos:
            inner += float(z[i] @ z[j]) / tau - denom
        total += -inner / len(pos)
    return total, skipped


def supct_brute_labels(z: np.ndarray, labels, tau: float) -> tuple[float, int]:
    labels = list(labels)
    pos_sets = [
        [j for j in range(len(labels)) if j != i and labels[j] == labels[i]]
        for i in range(len(labels))
    ]
    return supct_brute(z, pos_sets, tau)


def feat_align_brute(z_main: np.ndarray, anchors: np.ndarray, pos_sets, neg_sets, tau: float):
    """Spec formula for the feature alignment loss, double loop."""
    total = 0.0
    skipped = 0
    for i in range(len(z_main)):
        pos = list(pos_sets[i])
        neg = list(neg_sets[i])
        if not pos:
            skipped += 1
            continue
        candidates = pos + neg
        denom = lse_py([float(z_main[i] @ anchors[a]) / tau for a in candidates])
        inner = 0.0
        for j in pos:
            inner += float(z_main[i] @ anchors[j]) / tau - denom
        total += -inner / len(pos)
    return total, skipped


def positive_sets_loop(labels) -> list[np.ndarray]:
    """Supervised positive sets, one row at a time: same label, not i."""
    labels = np.asarray(labels)
    out = []
    for i in range(len(labels)):
        same = np.flatnonzero(labels == labels[i])
        out.append(same[same != i])
    return out


def other_view_sets_loop(n: int) -> list[np.ndarray]:
    """Unsupervised positive sets: i's other view, i+B for i < B, i-B after."""
    b = n // 2
    partner = np.concatenate([np.arange(b) + b, np.arange(b)])
    return [np.array([p]) for p in partner]


def anchor_sets_loop(labels, rng: np.random.Generator, n_pos=None, n_neg=None):
    """Per-row anchor draws: ``None`` keeps every candidate, an integer keeps
    that many drawn without replacement, positives before negatives."""
    labels = np.asarray(labels)
    pos_sets, neg_sets = [], []
    for i in range(len(labels)):
        same = np.flatnonzero(labels == labels[i])
        same = same[same != i]
        diff = np.flatnonzero(labels != labels[i])
        take_p = len(same) if n_pos is None else min(n_pos, len(same))
        take_n = len(diff) if n_neg is None else min(n_neg, len(diff))
        pos_sets.append(np.sort(rng.choice(same, size=take_p, replace=False)) if take_p else same[:0])
        neg_sets.append(np.sort(rng.choice(diff, size=take_n, replace=False)) if take_n else diff[:0])
    return pos_sets, neg_sets


def prototypes_loop(z_support: np.ndarray, support_y: np.ndarray, n: int) -> np.ndarray:
    """Each class's support embeddings averaged in a loop, then unit rows."""
    protos = np.zeros((n, z_support.shape[1]))
    for pos in range(n):
        protos[pos] = z_support[support_y == pos].mean(axis=0)
    return protos / np.maximum(np.linalg.norm(protos, axis=-1, keepdims=True), 1e-12)


def evaluate_loop(enc, novel, n: int, k: int, q: int, episodes: int, seed: int) -> list[float]:
    """Per-episode accuracies, one episode at a time: the same draws as
    ``evaluate`` (one spawned generator per episode, classes then rows),
    then encode that episode's support and query rows and average each
    class's support embeddings in a loop."""
    classes = np.unique(novel.y)
    eligible = np.array([c for c in classes if len(np.flatnonzero(novel.y == c)) >= k + q])
    accs = []
    for rng in np.random.default_rng(seed).spawn(episodes):
        chosen = rng.choice(eligible, size=n, replace=False)
        support_x, support_y, query_x, query_y = [], [], [], []
        for pos, c in enumerate(chosen):
            picked = rng.choice(np.flatnonzero(novel.y == c), size=k + q, replace=False)
            support_x.append(novel.x[picked[:k]])
            query_x.append(novel.x[picked[k:]])
            support_y.append(np.full(k, pos))
            query_y.append(np.full(q, pos))
        support_y, query_y = np.concatenate(support_y), np.concatenate(query_y)
        protos = prototypes_loop(enc.encode(np.concatenate(support_x).astype(np.float64)),
                                 support_y, n)
        z_q = enc.encode(np.concatenate(query_x).astype(np.float64))
        pred = np.argmax(z_q @ protos.T, axis=1)
        accs.append(float(np.mean(pred == query_y)))
    return accs


def uint32_words(bit_generator):
    """The 32-bit words a ``Generator`` reads from ``bit_generator``: each
    64-bit ``random_raw`` output, low half first. Start on a stream with no
    half-word buffered (a fresh or freshly spawned one)."""
    while True:
        word = int(bit_generator.random_raw())
        yield word & 0xFFFFFFFF
        yield word >> 32


def lemire_bounded(words, bound: int) -> int:
    """A uniform int in ``[0, bound]`` (bound < 2**32 - 1) as numpy draws
    it: ``(w * (bound + 1)) >> 32``, redrawn while the low half of the
    product is below ``2**32 mod (bound + 1)``. A bound of 0 reads no word."""
    if bound == 0:
        return 0
    span = bound + 1
    product = next(words) * span
    threshold = (0xFFFFFFFF - bound) % span
    while product & 0xFFFFFFFF < threshold:
        product = next(words) * span
    return product >> 32


def choice_replay(words, pop, size: int) -> np.ndarray:
    """``Generator.choice(pop, size, replace=False)`` replayed from 32-bit
    words: Floyd's selection of ``size`` indices (a draw already taken is
    replaced by ``j``), then a Fisher-Yates shuffle of them."""
    pop = np.asarray(pop)
    if len(pop) > 10000 and size > len(pop) // 50:
        raise NotImplementedError("numpy shuffles the tail of a population this large")
    picked = []
    for j in range(len(pop) - size, len(pop)):
        val = lemire_bounded(words, j)
        picked.append(j if val in picked else val)
    for i in range(size - 1, 0, -1):
        j = lemire_bounded(words, i)
        picked[i], picked[j] = picked[j], picked[i]
    return pop[np.array(picked, dtype=np.intp)]


def episode_rows_replay(novel, n: int, k: int, q: int, words) -> np.ndarray:
    """An episode's (n, k + q) rows drawn from ``words`` as ``sample_episode``
    draws them: n eligible classes, then k + q rows of each chosen class."""
    classes = np.unique(novel.y)
    eligible = np.array([c for c in classes if np.count_nonzero(novel.y == c) >= k + q])
    chosen = choice_replay(words, eligible, n)
    return np.stack([choice_replay(words, np.flatnonzero(novel.y == c), k + q) for c in chosen])


def softmax_py(values, tau: float = 1.0):
    values = [float(v) / tau for v in values]
    m = max(values)
    exps = [math.exp(v - m) for v in values]
    s = sum(exps)
    return [e / s for e in exps]


def cross_entropy_py(p, q) -> float:
    return -sum(float(pi) * math.log(float(qi)) for pi, qi in zip(p, q) if pi > 0)


def kl_py(p, q) -> float:
    return sum(
        float(pi) * (math.log(float(pi)) - math.log(float(qi)))
        for pi, qi in zip(p, q)
        if pi > 0
    )


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-6
    return p / p.sum()


# ---- composite chains of core primitives ------------------------------------

def embed_composite(enc, x) -> Tensor:
    """``Encoder.embed`` as a chain: matmul, bias add and ReLU per layer
    (no ReLU after the last), then ``l2_normalize``."""
    h_arr, single = enc._check_input(x, "embed")
    h = Tensor(h_arr)
    last = len(enc.weights) - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = matmul(h, w) + b
        if i != last:
            h = relu(h)
    out = l2_normalize(h, axis=-1)
    return reshape(out, (out.shape[1],)) if single else out


def logits_composite(clf, z: Tensor) -> Tensor:
    """``CosineClassifier.logits`` on a tensor as a chain."""
    return mul(matmul(z, transpose(clf.weights)), clf.scale)


def contrastive_sum_composite(sims: Tensor, candidate_mask: np.ndarray, pos_mask: np.ndarray):
    """The contrastive sum over an (n, m) similarity tensor already divided
    by tau: ``(loss, skipped)``."""
    counts = np.count_nonzero(pos_mask, axis=1)
    has_pos = counts > 0
    skipped = int(np.count_nonzero(~has_pos))
    if not has_pos.any():
        return Tensor(0.0), skipped
    pos_weights = pos_mask / np.maximum(counts, 1)[:, None]
    denom = log_sum_exp(sims + np.where(has_pos[:, None], candidate_mask, 0.0), axis=-1)
    if skipped:
        denom = mul(denom, has_pos)
    numer = reduce_sum(mul(sims, pos_weights))
    return sub(reduce_sum(denom), numer), skipped


def supct_composite(view):
    z = view.features
    n = z.shape[0]
    sims = scale(matmul(z, transpose(z)), 1.0 / view.tau)
    self_mask = np.zeros((n, n))
    np.fill_diagonal(self_mask, -np.inf)
    return contrastive_sum_composite(sims, self_mask, view.pos_mask)


def feat_align_composite(z_main, anchors, tau: float):
    z = as_tensor(z_main)
    if z.ndim == 1:
        z = reshape(z, (1, z.shape[0]))
    sims = scale(matmul(z, anchors.features.T), 1.0 / tau)
    mask = np.where(anchors.pos_mask | anchors.neg_mask, 0.0, -np.inf)
    return contrastive_sum_composite(sims, mask, anchors.pos_mask)


def soft_cross_entropy_batch_composite(p_targets, logits: Tensor) -> Tensor:
    p_targets = np.asarray(p_targets, dtype=np.float64)
    return sub(reduce_sum(log_sum_exp(logits, axis=-1)), reduce_sum(mul(logits, p_targets)))


def kl_composite(p_t, p_s: Tensor) -> Tensor:
    """``kl_loss_batch`` (without its floor report) as the chain it
    replaced: ``-sum(log(max(p_s, floor)) * p_t)`` plus the teacher's
    negative entropy."""
    p_t = np.asarray(p_t, dtype=np.float64)
    neg_entropy_t = float(np.sum(np.where(p_t > 0, p_t * np.log(np.where(p_t > 0, p_t, 1.0)), 0.0)))
    cross = scale(reduce_sum(mul(log(clamp_min(as_tensor(p_s), PROB_FLOOR)), p_t)), -1.0)
    return cross + neg_entropy_t


# ---- folded-away second implementations --------------------------------------

def encode_loop(enc, x) -> np.ndarray:
    """``Encoder.encode`` as it ran beside ``embed``: ``h @ w + b`` and
    ``np.maximum(h, 0)`` per layer (no ReLU after the last), then
    ``l2_normalize``."""
    h, single = enc._check_input(x, "encode")
    last = len(enc.weights) - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = h @ w.data + b.data
        if i != last:
            h = np.maximum(h, 0.0)
    out = l2_normalize(h, axis=-1)
    return out[0] if single else out


def sgd_vanilla_loop(params, grads, lr: float, weight_decay: float) -> None:
    """The momentum-free SGD step applied once per entry of ``grads`` (a
    list of per-parameter gradient lists): ``p <- p - lr * (grad +
    weight_decay * p)``."""
    for step in grads:
        for p, g in zip(params, step):
            p.data = p.data - lr * (g + weight_decay * p.data)


def softmax_shifted_exp(arr, axis: int = -1) -> np.ndarray:
    """Softmax as the direct shifted exponential over ``axis``."""
    arr = np.asarray(arr, dtype=np.float64)
    shifted = np.exp(arr - arr.max(axis=axis, keepdims=True))
    return shifted / shifted.sum(axis=axis, keepdims=True)


# ---- helpers only the tests call --------------------------------------------

def positive_index_sets(batch, mode: str) -> list[np.ndarray]:
    """Per-instance positive indices: same-class peers (supervised) or just
    the other view (unsupervised)."""
    if mode == "supervised":
        return list(mask_rows(same_class_mask(batch.labels)))
    if mode == "unsupervised":
        return list(mask_rows(other_view_mask(batch.size)))
    raise ParameterError(f"mode must be 'supervised' or 'unsupervised', got {mode!r}")


def validate_anchor_sets(anchors) -> None:
    """Refuse an ``AnchorSets`` with a positive of another class or a
    negative of the same class, naming the first such instance."""
    same = anchors.instance_labels[:, None] == anchors.anchor_labels[None, :]
    for bad, what in (
        (anchors.pos_mask & ~same, "positive anchor with a different class"),
        (anchors.neg_mask & same, "negative anchor with the same class"),
    ):
        rows = np.flatnonzero(bad.any(axis=1))
        if len(rows):
            raise ContractError(f"instance {rows[0]}: {what}")


def epoch_means(metrics, column: str) -> list[float]:
    """The mean of ``column`` over each epoch's rows of a ``MetricsLogger``."""
    by_epoch: dict[int, list[float]] = {}
    for row in metrics.rows:
        by_epoch.setdefault(row["epoch"], []).append(row[column])
    return [float(np.mean(by_epoch[e])) for e in sorted(by_epoch)]


def load_classifier(path, scale: float = 10.0) -> CosineClassifier:
    """Read a classifier checkpoint written by ``save_classifier``."""
    layers = _read_palw(path)
    if len(layers) != 1:
        raise FormatError(f"{path}: a classifier checkpoint holds exactly 1 layer")
    w, _ = layers[0]
    clf = CosineClassifier(n_classes=w.shape[1], embed_dim=w.shape[0], scale=scale)
    clf.weights.data = w.T.copy()
    return clf


def episode_support_x(ep) -> np.ndarray:
    """An ``Episode``'s (n*k, dim) support rows, k per class in class order."""
    return ep.x[ep.rows[:, : ep.k].ravel()].astype(np.float64)


def episode_query_x(ep) -> np.ndarray:
    """An ``Episode``'s (n*q, dim) query rows, q per class in class order."""
    return ep.x[ep.rows[:, ep.k :].ravel()].astype(np.float64)
