"""Encoders, cosine classifier, checkpoint round-trips."""
from __future__ import annotations

import numpy as np
import pytest

from pal.core import Tensor, backward
from pal.encoders import (
    CosineClassifier,
    Encoder,
    EncoderConfig,
    load_encoder,
    save_classifier,
    save_encoder,
)
from pal.exceptions import FormatError, ParameterError, ShapeError

from graph_ops import mul, reduce_sum
from oracles import encode_loop, load_classifier


@pytest.fixture
def config():
    return EncoderConfig(input_dim=6, hidden_dims=(8, 8), embed_dim=4, seed=11)


def test_config_validation():
    with pytest.raises(ParameterError):
        EncoderConfig(input_dim=0, hidden_dims=(4,), embed_dim=4)
    with pytest.raises(ParameterError):
        EncoderConfig(input_dim=4, hidden_dims=(), embed_dim=4)
    with pytest.raises(ParameterError):
        EncoderConfig(input_dim=4, hidden_dims=(4,), embed_dim=1)


def test_embed_deterministic_and_unit_norm(config):
    enc = Encoder(config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 6))
    z1 = enc.encode(x)
    z2 = enc.encode(x)
    np.testing.assert_array_equal(z1, z2)
    np.testing.assert_allclose(np.linalg.norm(z1, axis=1), 1.0, atol=1e-6)
    # Same seed, fresh encoder: bit-identical init and outputs.
    np.testing.assert_array_equal(Encoder(config).encode(x), z1)


def test_embed_and_encode_agree(config):
    enc = Encoder(config)
    rng = np.random.default_rng(1)
    for x in (rng.normal(size=(3, 6)), rng.normal(size=6)):
        z = enc.encode(x)
        assert z.shape == (*x.shape[:-1], 4)
        assert np.array_equal(z, enc.embed(x).data)
        assert np.array_equal(z, encode_loop(enc, x))


def test_embed_dimension_mismatch(config):
    enc = Encoder(config)
    with pytest.raises(ShapeError, match="6 features"):
        enc.embed(np.zeros((2, 7)))


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("op", ["embed", "encode"])
def test_width_error_names_the_pass_called(config, op, frozen):
    enc = Encoder(config)
    if frozen:
        enc.freeze()
    with pytest.raises(ShapeError, match=rf"^{op}: expected inputs with 6 features, got shape \(2, 7\)$"):
        getattr(enc, op)(np.zeros((2, 7)))


def test_frozen_encoder_gets_no_gradients(config):
    enc = Encoder(config).freeze()
    z = enc.embed(np.random.default_rng(2).normal(size=(4, 6)))
    loss = reduce_sum(mul(z, np.ones_like(z.data)))
    assert not loss.requires_grad
    for p in enc.parameters():
        assert p.grad is None


def test_trainable_encoder_gets_gradients(config):
    enc = Encoder(config)
    z = enc.embed(np.random.default_rng(3).normal(size=(4, 6)))
    backward(reduce_sum(mul(z, np.random.default_rng(4).normal(size=z.shape))))
    for p in enc.parameters():
        assert p.grad is not None
        assert p.grad.shape == p.data.shape


def test_cosine_logits_self_similarity():
    clf = CosineClassifier(n_classes=3, embed_dim=4, scale=10.0, seed=0)
    for c in range(3):
        logits = clf.logits(clf.weights.data[c])
        assert logits[c] == pytest.approx(10.0, abs=1e-9)
        assert np.all(np.abs(logits) <= 10.0 + 1e-9)


def test_cosine_logits_orthogonal_and_half():
    clf = CosineClassifier(n_classes=2, embed_dim=4, scale=10.0, seed=0)
    clf.weights.data = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    z = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(clf.logits(z), [0.0, 0.0], atol=1e-12)
    z = np.array([0.5, np.sqrt(0.75), 0.0, 0.0])
    assert clf.logits(z)[0] == pytest.approx(5.0, abs=1e-9)


def test_classifier_rows_stay_unit_after_steps():
    clf = CosineClassifier(n_classes=5, embed_dim=8, seed=1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        clf.weights.data = clf.weights.data - 0.05 * rng.normal(size=clf.weights.shape)
        clf.renormalize()
    np.testing.assert_allclose(np.linalg.norm(clf.weights.data, axis=1), 1.0, atol=1e-6)


def test_shared_classifier_mutation_visible_to_both_paths():
    clf = CosineClassifier(n_classes=3, embed_dim=4, seed=2)
    z_partner = np.array([1.0, 0.0, 0.0, 0.0])
    z_main = Tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
    before_p = clf.logits(z_partner).copy()
    before_m = clf.logits(z_main).data.copy()
    clf.weights.data = np.roll(clf.weights.data, 1, axis=0)
    after_p = clf.logits(z_partner)
    after_m = clf.logits(z_main).data
    assert not np.allclose(before_p, after_p)
    np.testing.assert_allclose(after_p, after_m[0], atol=1e-12)
    np.testing.assert_allclose(before_p, np.roll(after_p, -1), atol=1e-12)


def test_encoder_checkpoint_round_trip(tmp_path, config):
    enc = Encoder(config)
    path = tmp_path / "enc.palw"
    save_encoder(enc, path)
    loaded = load_encoder(path)
    assert loaded.config.hidden_dims == config.hidden_dims
    for a, b in zip(enc.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data.astype(np.float32), b.data.astype(np.float32))
    # Saving the loaded encoder again is byte-identical.
    path2 = tmp_path / "enc2.palw"
    save_encoder(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.palw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic"):
        load_encoder(path)


def test_checkpoint_truncation(tmp_path, config):
    path = tmp_path / "enc.palw"
    save_encoder(Encoder(config), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError, match="truncated"):
        load_encoder(path)


def test_checkpoint_whose_layers_do_not_chain_is_refused(tmp_path):
    # A well-formed file whose layer 1 takes 20 inputs after a 16-wide layer 0
    # is refused on load, not on the first encode.
    enc = Encoder(EncoderConfig(input_dim=12, hidden_dims=(16,), embed_dim=8, seed=0))
    enc.weights[1].data = np.zeros((20, 8))
    path = tmp_path / "bad.palw"
    save_encoder(enc, path)
    with pytest.raises(FormatError,
                       match=r"bad\.palw: layer 1 takes 20 inputs but layer 0 gives 16"):
        load_encoder(path)


def test_classifier_checkpoint_round_trip(tmp_path):
    clf = CosineClassifier(n_classes=4, embed_dim=6, scale=8.0, seed=3)
    path = tmp_path / "clf.palw"
    save_classifier(clf, path)
    loaded = load_classifier(path, scale=8.0)
    np.testing.assert_array_equal(
        clf.weights.data.astype(np.float32), loaded.weights.data.astype(np.float32)
    )
    assert loaded.scale == 8.0


def test_encode_and_embed_agree_on_a_nan_weight(config):
    # A NaN weight reaches every row; the graph-free pass and the
    # differentiable one must report it alike instead of one masking it.
    enc = Encoder(config)
    enc.weights[1].data[0, 0] = np.nan
    x = np.random.default_rng(8).normal(size=(5, 6))
    z, z_graph = enc.encode(x), enc.embed(x).data
    assert not np.isfinite(z).any()
    assert not np.isfinite(z_graph).any()
    assert np.array_equal(z, z_graph, equal_nan=True)
    assert np.array_equal(z, encode_loop(enc, x), equal_nan=True)


@pytest.mark.parametrize(
    "kind, layer, bad",
    [("weight", 0, np.nan), ("bias", 2, np.inf)],
    ids=["nan-weight", "inf-bias"],
)
def test_checkpoint_with_a_non_finite_value_is_refused(tmp_path, config, kind, layer, bad):
    enc = Encoder(config)
    if kind == "weight":
        enc.weights[layer].data[1, 2] = bad
    else:
        enc.biases[layer].data[3] = bad
    path = tmp_path / "enc.palw"
    save_encoder(enc, path)
    with pytest.raises(FormatError, match=rf"enc\.palw: non-finite {kind} value in layer {layer}"):
        load_encoder(path)
