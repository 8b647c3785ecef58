"""Synthetic generator determinism, file format, validation."""
from __future__ import annotations

import builtins
import csv
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

import pal.data
from pal.data import (
    Split,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from pal.encoders import Encoder, EncoderConfig, load_encoder, save_encoder
from pal.episodes import EvalReport
from pal.exceptions import FormatError, ParameterError
from pal.training import MetricsLogger
from test_golden import SPEC as GOLDEN_SPEC

SMALL = SyntheticSpec(
    n_base_classes=5, n_novel_classes=3, items_per_class=12, raw_dim=16, margin=2.0, seed=3
)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SyntheticSpec(n_base_classes=1)
    with pytest.raises(ParameterError):
        SyntheticSpec(margin=-1.0)
    with pytest.raises(ParameterError):
        SyntheticSpec(raw_dim=4)


def test_same_seed_byte_identical_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_synthetic(SMALL, a)
    generate_synthetic(SMALL, b)
    assert (a / "base.pald").read_bytes() == (b / "base.pald").read_bytes()
    assert (a / "novel.pald").read_bytes() == (b / "novel.pald").read_bytes()


# SHA-256 of base.pald and novel.pald and the report's repr: any change to
# the random streams, the float arithmetic or the file format moves them.
PINNED_GENERATIONS = [
    (SyntheticSpec(),
     "00a684ec4399ae4be9ad7fff4b582cb5412ecf020350d4f091cc64c757c4dfca",
     "3304047a475119fd529374defb50f6b69870b78bcea866b12a3411b9d2351166",
     "GenerationReport(centroid_holdout_accuracy=0.9975, "
     "min_center_distance=3.050149666746954, rejection_attempts=50)"),
    (SyntheticSpec(seed=0),
     "76c1646fc542a8733b83773524d4f73f0b43bebb8c6d00843a26ecbf493b766c",
     "1e57ba34dd613cf85d9b1fa7e1523f73acc43192aec6d10821348043d142add4",
     "GenerationReport(centroid_holdout_accuracy=0.99875, "
     "min_center_distance=3.0016597092987523, rejection_attempts=46)"),
    (GOLDEN_SPEC,
     "4bcb40f8638f18f58ae21236a34ece496199905b187faa1f306667a933ba4ca5",
     "c8bfbe5ddb57362c1869f83faea4645ba14e245f85fb62b6e5d78f2c7a4a0f4c",
     "GenerationReport(centroid_holdout_accuracy=0.8333333333333334, "
     "min_center_distance=3.1681886018145256, rejection_attempts=135)"),
]


@pytest.mark.parametrize("spec,base_sha,novel_sha,report", PINNED_GENERATIONS,
                         ids=["default", "seed0", "golden"])
def test_generated_bytes_pinned(tmp_path, spec, base_sha, novel_sha, report):
    ds = generate_synthetic(spec, tmp_path)
    assert hashlib.sha256((tmp_path / "base.pald").read_bytes()).hexdigest() == base_sha
    assert hashlib.sha256((tmp_path / "novel.pald").read_bytes()).hexdigest() == novel_sha
    assert repr(ds.report) == report


def test_generation_memory_is_linear_in_the_data():
    # Many classes: a holdout check holding (n_test, C, d) float64 arrays
    # peaks at about 11x the data here.
    spec = SyntheticSpec(n_base_classes=64, n_novel_classes=20, items_per_class=200)
    tracemalloc.start()
    try:
        ds = generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data_f64 = (ds.base.x.size + ds.novel.x.size) * 8
    assert peak <= 4 * data_f64, f"peak {peak} B is {peak / data_f64:.1f}x the data"


def test_different_seed_differs(tmp_path):
    ds1 = generate_synthetic(SMALL)
    ds2 = generate_synthetic(SyntheticSpec(**{**SMALL.__dict__, "seed": 4}))
    assert not np.array_equal(ds1.base.x, ds2.base.x)


def test_zero_margin_items_collapse_to_center_image():
    spec = SyntheticSpec(
        n_base_classes=3, n_novel_classes=2, items_per_class=5, raw_dim=16, margin=0.0, seed=1
    )
    ds = generate_synthetic(spec)
    for c in ds.base.classes:
        rows = ds.base.x[ds.base.y == c]
        assert np.allclose(rows, rows[0])


def test_label_ranges_disjoint_and_within_width():
    ds = generate_synthetic(SMALL)
    assert set(ds.base.classes) == set(range(5))
    assert set(ds.novel.classes) == set(range(5, 8))
    assert ds.base.label_width == ds.novel.label_width == 8


def test_min_center_distance_respects_margin():
    ds = generate_synthetic(SMALL)
    assert ds.report.min_center_distance >= SMALL.margin


def test_default_spec_centroid_holdout_accuracy():
    ds = generate_synthetic(SyntheticSpec())
    assert ds.report.centroid_holdout_accuracy > 0.95


def test_round_trip_exact(tmp_path):
    ds = generate_synthetic(SMALL)
    path = tmp_path / "base.pald"
    save_dataset(ds.base, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.x, ds.base.x)
    np.testing.assert_array_equal(loaded.y, ds.base.y)
    assert loaded.label_width == ds.base.label_width


def test_truncated_payload_rejected(tmp_path):
    ds = generate_synthetic(SMALL)
    path = tmp_path / "b.pald"
    save_dataset(ds.base, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="expected"):
        load_dataset(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.pald"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        load_dataset(path)


def test_out_of_range_label_names_row(tmp_path):
    x = np.zeros((3, 2), dtype=np.float32)
    y = np.array([0, 9, 1], dtype=np.int32)
    path = tmp_path / "bad.pald"
    save_dataset(Split(x, y, label_width=2), path)
    with pytest.raises(FormatError, match="label 9 at row 1"):
        load_dataset(path)


def test_non_finite_row_rejected(tmp_path):
    x = np.zeros((4, 3), dtype=np.float32)
    x[2, 1] = np.nan
    x[3, 0] = np.inf
    path = tmp_path / "nan.pald"
    save_dataset(Split(x, np.zeros(4, dtype=np.int32), label_width=1), path)
    with pytest.raises(FormatError, match=r"nan\.pald: non-finite feature value at row 2"):
        load_dataset(path)


class FullDisk:
    """A file that takes ``budget`` bytes, then writes what still fits and
    raises, as a write does when the disk fills up."""

    def __init__(self, fh, budget: int):
        self.fh = fh
        self.budget = budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if not isinstance(data, str):
            data = bytes(data)
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError(28, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)


def _encoder_writer(seed):
    enc = Encoder(EncoderConfig(input_dim=32, hidden_dims=(64, 64), embed_dim=32, seed=seed))
    return lambda path: save_encoder(enc, path)


def _dataset_writer(seed):
    split = generate_synthetic(SyntheticSpec(**{**SMALL.__dict__, "seed": seed})).base
    return lambda path: save_dataset(split, path)


def _metrics_writer(seed):
    metrics = MetricsLogger()
    for step in range(40):
        metrics.log(epoch=0, step=step, lr=0.1 * seed, loss_total=float(seed))
    return metrics.write_csv


def _eval_writer(seed):
    return EvalReport(episodes=40, mean_accuracy=0.1 * seed, ci95=0.0,
                      per_episode=[0.1 * seed] * 40).to_csv


def _csv_writer(seed):
    rows = [[i, 0.1 * seed, "row"] for i in range(40)]
    return lambda path: pal.data.write_csv(path, ["id", "value", "name"], rows)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len({len(row) for row in rows}) == 1  # no cut-off last row


@pytest.mark.parametrize("writer,reader", [(_encoder_writer, load_encoder),
                                           (_dataset_writer, load_dataset),
                                           (_metrics_writer, _read_csv),
                                           (_eval_writer, _read_csv),
                                           (_csv_writer, _read_csv)])
def test_interrupted_write_keeps_old_file(tmp_path, monkeypatch, writer, reader):
    path = tmp_path / "file.bin"
    writer(1)(path)
    old = path.read_bytes()
    budget = len(old) // 2
    monkeypatch.setattr(pal.data, "open",
                        lambda file, mode, **kw: FullDisk(builtins.open(file, mode, **kw), budget),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        writer(2)(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["file.bin"]
    monkeypatch.undo()
    reader(path)
    writer(2)(path)
    assert path.read_bytes() != old and len(path.read_bytes()) == len(old)
