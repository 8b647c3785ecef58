"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain double loops over python floats (with a
max-shift for stability), deliberately sharing no code with the tensor path
it checks. The positive and anchor sets are built one row at a time, the
way the package built them before it used dense masks.
"""
from __future__ import annotations

import math

import numpy as np


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
