"""Seeded synthetic benchmark generation and dataset files.

The generator plants class identity in a low-dimensional "signal" subspace
and buries it under high-variance class-independent coordinates, then pushes
everything through a fixed seeded bi-Lipschitz mixing map. Class centroids
averaged over many items remain cleanly separable in raw space (the
generation report verifies this), while single items are dominated by the
nuisance coordinates, which is what makes 1-shot episodes hard for an
untrained encoder and leaves headroom above a plain cross-entropy baseline.

Base classes spread widely across the signal subspace; novel classes pack
into a tight region of the same subspace, where coarse base-discriminative
features resolve them poorly and preserved within-class structure pays off.

Dataset file format (little-endian)::

    magic "PALD" | u32 version | u32 item count | u32 dim | u32 label width
    then count*dim float32 rows, then count int32 labels

``label width`` declares the exclusive upper bound of the label ids in the
file; base and novel files of one benchmark share it, keeping the id ranges
globally disjoint.

Every file the package writes (datasets, checkpoints, CSVs, config
templates) goes through :func:`atomic_write`, so a file on disk is either
complete or absent (or still the old complete file). Every CSV is written
by :func:`write_csv`, the one place that decides the CSV format.
"""
from __future__ import annotations

import contextlib
import csv
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import FeasibilityError, FormatError, ParameterError

DATA_MAGIC = b"PALD"
DATA_VERSION = 1

# Latent geometry, all noise scales proportional to the separation margin.
SIGNAL_FRACTION = 3 / 8  # leading share of raw_dim carrying class identity
BASE_SCALE = 1.3  # base center scale over the signal block
NOVEL_PACK_SCALE = 0.22  # novel center scale: packed near the origin
CLUSTER_NOISE_RATIO = 1 / 8  # within-class signal noise / margin
NUISANCE_NOISE_RATIO = 1.8  # class-independent noise / margin
MIX_TANH_GAIN = 0.5  # mixing nonlinearity x + gain*tanh(x)
REJECTION_BUDGET = 10**6


@dataclass(frozen=True)
class SyntheticSpec:
    n_base_classes: int = 20
    n_novel_classes: int = 8
    items_per_class: int = 200
    raw_dim: int = 32
    margin: float = 3.0
    world_depth: int = 3
    seed: int = 7

    def __post_init__(self):
        if self.n_base_classes < 2 or self.n_novel_classes < 1:
            raise ParameterError("need >= 2 base classes and >= 1 novel class")
        if self.items_per_class < 2:
            raise ParameterError("need >= 2 items per class")
        if self.raw_dim < 8:
            raise ParameterError(f"raw_dim must be >= 8, got {self.raw_dim}")
        if self.margin < 0:
            raise ParameterError(f"margin must be >= 0, got {self.margin}")
        if self.world_depth < 0:
            raise ParameterError(f"world_depth must be >= 0, got {self.world_depth}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Split:
    """In-memory dataset split; arrays mirror the file payload exactly."""

    x: np.ndarray  # (n, dim) float32
    y: np.ndarray  # (n,) int32
    label_width: int  # exclusive upper bound on label ids

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.y)


@dataclass
class GenerationReport:
    centroid_holdout_accuracy: float
    min_center_distance: float
    rejection_attempts: int


@dataclass
class SyntheticDataset:
    base: Split
    novel: Split
    report: GenerationReport


class MixingMap:
    """Fixed stack of orthogonal rotations interleaved with a mild monotone
    nonlinearity; expansion per layer is bounded in [1, 1 + gain]. Each layer
    holds two ``x``-sized arrays: the rotated rows, and their ``tanh``, which
    is scaled and added in place."""

    def __init__(self, dim: int, depth: int, rng: np.random.Generator):
        self.rotations = []
        for _ in range(depth):
            q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
            self.rotations.append(q * np.sign(np.diag(r)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for q in self.rotations:
            out = out @ q.T
            bent = np.tanh(out)
            bent *= MIX_TANH_GAIN
            out += bent
        return out


def _rejection_sample(
    propose, count: int, existing: list[np.ndarray], margin: float, attempts_used: int
) -> tuple[list[np.ndarray], int]:
    """Draw ``count`` centers from ``propose()`` keeping pairwise (and
    against ``existing``) distances at or above ``margin``."""
    centers: list[np.ndarray] = []
    attempts = attempts_used
    while len(centers) < count:
        attempts += 1
        if attempts > REJECTION_BUDGET:
            raise FeasibilityError(
                f"center rejection sampling exceeded {REJECTION_BUDGET} attempts; "
                "lower the margin or raise raw_dim"
            )
        cand = propose()
        pool = existing + centers
        if all(np.linalg.norm(cand - c) >= margin for c in pool):
            centers.append(cand)
    return centers, attempts


def _centroid_holdout_accuracy(x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> float:
    """Brute-force nearest-class-center score on a held-out 20% of items.

    Rows are cast to float64 after they are gathered, and the squared
    distances are filled in one centroid at a time, so the check holds
    O(N·d + N·C) memory rather than an (n_test, C, d) difference array."""
    classes = np.unique(y)
    train_idx, test_idx = [], []
    for c in classes:
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        cut = max(1, int(0.8 * len(idx)))
        train_idx.append(idx[:cut])
        test_idx.append(idx[cut:])
    centroids = [x[idx].astype(np.float64).mean(axis=0) for idx in train_idx]
    test_idx = np.concatenate(test_idx)
    test = x[test_idx].astype(np.float64)
    dists = np.empty((len(test_idx), len(classes)))
    for k, centroid in enumerate(centroids):
        dists[:, k] = ((test - centroid) ** 2).sum(axis=1)
    pred = classes[np.argmin(dists, axis=1)]
    return float(np.mean(pred == y[test_idx]))


def generate_synthetic(spec: SyntheticSpec, out_dir=None) -> SyntheticDataset:
    """Build the benchmark; optionally write ``base.pald``/``novel.pald``.

    Generation is fully determined by ``spec.seed``: identical specs produce
    byte-identical files.
    """
    seeds = np.random.SeedSequence(spec.seed).spawn(4)
    rng_centers = np.random.default_rng(seeds[0])
    rng_items = np.random.default_rng(seeds[1])
    rng_world = np.random.default_rng(seeds[2])
    rng_check = np.random.default_rng(seeds[3])

    signal_dim = max(4, int(spec.raw_dim * SIGNAL_FRACTION))
    nuisance_dim = spec.raw_dim - signal_dim

    base_scale = BASE_SCALE * spec.margin

    base_centers, attempts = _rejection_sample(
        lambda: rng_centers.normal(size=signal_dim) * base_scale,
        spec.n_base_classes, [], spec.margin, 0,
    )

    novel_scale = NOVEL_PACK_SCALE * spec.margin
    novel_centers, attempts = _rejection_sample(
        lambda: rng_centers.normal(size=signal_dim) * novel_scale,
        spec.n_novel_classes, base_centers, spec.margin, attempts,
    )
    all_centers = base_centers + novel_centers
    pair_dists = [
        np.linalg.norm(a - b) for i, a in enumerate(all_centers) for b in all_centers[i + 1:]
    ]
    mix = MixingMap(spec.raw_dim, spec.world_depth, rng_world)

    sigma_cluster = CLUSTER_NOISE_RATIO * spec.margin
    sigma_nuisance = NUISANCE_NOISE_RATIO * spec.margin

    def materialize(centers, labels_offset):
        n = spec.items_per_class
        x = np.empty((len(centers) * n, spec.raw_dim))
        for k, center in enumerate(centers):
            rows = x[k * n : (k + 1) * n]
            rows[:, :signal_dim] = center + sigma_cluster * rng_items.standard_normal(
                (n, signal_dim)
            )
            rows[:, signal_dim:] = sigma_nuisance * rng_items.standard_normal((n, nuisance_dim))
        labels = np.arange(labels_offset, labels_offset + len(centers), dtype=np.int32)
        return mix(x).astype(np.float32), np.repeat(labels, n)

    label_width = spec.n_base_classes + spec.n_novel_classes
    base_x, base_y = materialize(base_centers, 0)
    novel_x, novel_y = materialize(novel_centers, spec.n_base_classes)
    base = Split(base_x, base_y, label_width)
    novel = Split(novel_x, novel_y, label_width)

    report = GenerationReport(
        centroid_holdout_accuracy=_centroid_holdout_accuracy(base_x, base_y, rng_check),
        min_center_distance=float(min(pair_dists)) if pair_dists else float("inf"),
        rejection_attempts=attempts,
    )
    dataset = SyntheticDataset(base=base, novel=novel, report=report)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_dataset(base, out / "base.pald")
        save_dataset(novel, out / "novel.pald")
    return dataset


@contextlib.contextmanager
def atomic_write(path, text: bool = False):
    """Binary (or, with ``text``, untranslated-newline text) file handle on a
    temporary file beside ``path``. On success it replaces ``path`` in one
    step; on failure it is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") if text else open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as one CSV file, through
    :func:`atomic_write`: every float as ``.10g``, every other value as it is."""
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def save_dataset(split: Split, path) -> None:
    x = np.ascontiguousarray(split.x, dtype="<f4")
    y = np.ascontiguousarray(split.y, dtype="<i4")
    with atomic_write(path) as fh:
        fh.write(DATA_MAGIC)
        fh.write(struct.pack("<III", DATA_VERSION, x.shape[0], x.shape[1]))
        fh.write(struct.pack("<I", split.label_width))
        fh.write(x.tobytes())
        fh.write(y.tobytes())


def load_dataset(path) -> Split:
    """Read a dataset file back; round-trips :func:`save_dataset` exactly."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != DATA_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at byte 0, expected PALD")
    if len(blob) < 20:
        raise FormatError(f"{path}: truncated header at byte {len(blob)}")
    version, count, dim, label_width = struct.unpack_from("<IIII", blob, 4)
    if version != DATA_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    x_bytes = count * dim * 4
    expected = 20 + x_bytes + count * 4
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload ends at byte {len(blob)}, expected {expected} "
            f"({count} items x {dim} dims)"
        )
    x = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=20).reshape(count, dim)
    y = np.frombuffer(blob, dtype="<i4", count=count, offset=20 + x_bytes)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: non-finite feature value at row {int(bad[0])}")
    bad = np.flatnonzero((y < 0) | (y >= label_width))
    if len(bad):
        row = int(bad[0])
        raise FormatError(
            f"{path}: label {int(y[row])} at row {row} outside declared range "
            f"[0, {label_width})"
        )
    return Split(x=x.copy(), y=y.astype(np.int32), label_width=int(label_width))
