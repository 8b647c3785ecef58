"""Fused graph nodes: each must give its composite chain's value and every
gradient bit for bit, pass a finite-difference check, and keep a training
step's graph small."""
from __future__ import annotations

import numpy as np
import pytest

from pal.batching import AugmentConfig, build_batch, sample_anchor_sets
from pal.core import Tensor, backward, scale, softmax, softmax_temperature
from pal.core.gradcheck import check_gradient
from pal.data import SyntheticSpec, generate_synthetic
from pal.encoders import CosineClassifier, Encoder, EncoderConfig
from pal.losses import (
    PROB_FLOOR,
    ContrastiveBatchView,
    SoftLabel,
    ct_loss,
    feat_align_loss,
    kl_loss,
    kl_loss_batch,
    soft_cross_entropy_batch,
    supct_loss,
)
from pal.training import NetConfig, TrainConfig, Variant, train_partner, train_variant

from graph_ops import mul, reduce_sum
from oracles import (
    embed_composite,
    feat_align_composite,
    kl_composite,
    logits_composite,
    random_simplex,
    random_unit_rows,
    soft_cross_entropy_batch_composite,
    supct_composite,
)

N = 22  # rows: even (two augmented views) and not a power of two
TAUS = (0.05, 0.5)


def _run(build, leaves):
    """Value of ``build()`` and the gradient of every leaf after one
    backward pass from it."""
    for leaf in leaves:
        leaf.grad = None
    out = build()
    backward(out)
    return out.data.copy(), [leaf.grad.copy() for leaf in leaves]


def assert_same_bytes(fused, composite, leaves):
    value, grads = _run(fused, leaves)
    ref_value, ref_grads = _run(composite, leaves)
    assert np.array_equal(value, ref_value)
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _labels(rng, n, singletons=0):
    """Two views of n/2 items over a few classes, plus ``singletons`` rows
    whose class appears nowhere else (so they have no positives)."""
    half = rng.integers(0, 4, size=n // 2)
    labels = np.concatenate([half, half])
    labels[:singletons] = 100 + np.arange(singletons)
    return labels


def _unit_rows(rng, n, d, saturated):
    z = random_unit_rows(rng, n, d)
    if saturated:
        # Each row nearly repeats the one before it: at tau = 0.05 its
        # similarity to that row dominates the softmax by e^40.
        z[1::2] = z[0::2] + 1e-4 * rng.normal(size=z[1::2].shape)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


@pytest.fixture
def encoder():
    return Encoder(EncoderConfig(input_dim=6, hidden_dims=(8, 5), embed_dim=4, seed=3))


@pytest.mark.parametrize("rows", [1, 7, N])
def test_embed_matches_composite(encoder, rows):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 6))
    x[0] = 0.0  # zero biases at init: a zero input row takes the eps branch
    if rows == 1:
        x = x[0] + rng.normal(size=6)
    weight = rng.normal(size=(rows, 4) if rows > 1 else 4)
    params = encoder.parameters()
    assert_same_bytes(lambda: reduce_sum(mul(encoder.embed(x), weight)),
                      lambda: reduce_sum(mul(embed_composite(encoder, x), weight)), params)
    assert encoder.embed(x).op == ("reshape" if rows == 1 else "embed")


@pytest.mark.parametrize("shape", [(N, 4), (4,)])
def test_logits_match_composite(shape):
    rng = np.random.default_rng(1)
    clf = CosineClassifier(n_classes=5, embed_dim=4, scale=10.0, seed=2)
    z = Tensor(rng.normal(size=shape), requires_grad=True)
    weight = rng.normal(size=(*shape[:-1], 5))
    assert_same_bytes(lambda: reduce_sum(mul(clf.logits(z), weight)),
                      lambda: reduce_sum(mul(logits_composite(clf, z), weight)),
                      [z, clf.weights])


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("saturated", [False, True])
@pytest.mark.parametrize("singletons", [0, 3])
def test_supct_matches_composite(tau, saturated, singletons):
    rng = np.random.default_rng(7)
    z = Tensor(_unit_rows(rng, N, 6, saturated), requires_grad=True)
    view = ContrastiveBatchView.supervised(z, _labels(rng, N, singletons), tau)
    result = supct_loss(view)
    assert result.skipped == singletons
    assert_same_bytes(lambda: scale(supct_loss(view).loss, 1.0 / N),
                      lambda: scale(supct_composite(view)[0], 1.0 / N), [z])


@pytest.mark.parametrize("tau", TAUS)
def test_ct_matches_composite(tau):
    rng = np.random.default_rng(8)
    z = Tensor(_unit_rows(rng, N, 6, saturated=True), requires_grad=True)
    view = ContrastiveBatchView.unsupervised(z, _labels(rng, N), tau)
    assert_same_bytes(lambda: ct_loss(view).loss, lambda: supct_composite(view)[0], [z])


def _anchors(rng, caps, empty_rows=0):
    """Co-batch anchors of a frozen partner; the first ``empty_rows``
    instances lose their positives (a co-batch always has the other view)."""
    partner = Encoder(EncoderConfig(input_dim=6, hidden_dims=(8,), embed_dim=4, seed=4)).freeze()
    labels = _labels(rng, N)[: N // 2]
    batch = build_batch(rng.normal(size=(N // 2, 6)), labels, rng, AugmentConfig(0.3, 0.1))
    anchors = sample_anchor_sets(partner, batch, rng, **caps)
    anchors.pos_mask[:empty_rows] = False
    return anchors


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("saturated", [False, True])
@pytest.mark.parametrize("caps", [{}, dict(n_pos=1, n_neg=3)], ids=["uncapped", "capped"])
def test_feat_align_matches_composite(tau, saturated, caps):
    rng = np.random.default_rng(9)
    anchors = _anchors(rng, caps, empty_rows=2)
    z0 = anchors.features + (1e-4 if saturated else 0.5) * rng.normal(size=anchors.features.shape)
    z = Tensor(z0 / np.linalg.norm(z0, axis=1, keepdims=True), requires_grad=True)
    result = feat_align_loss(z, anchors, tau)
    assert result.skipped == 2
    assert_same_bytes(lambda: scale(feat_align_loss(z, anchors, tau).loss, 0.5),
                      lambda: scale(feat_align_composite(z, anchors, tau)[0], 0.5), [z])


@pytest.mark.parametrize("saturated", [False, True])
def test_soft_cross_entropy_matches_composite(saturated):
    rng = np.random.default_rng(10)
    logits = Tensor(rng.normal(size=(N, 5)) * (60.0 if saturated else 1.0), requires_grad=True)
    soft = np.stack([random_simplex(rng, 5) for _ in range(N)])
    one_hot = np.eye(5)[rng.integers(0, 5, size=N)]
    for targets in (soft, one_hot):
        assert_same_bytes(lambda: scale(soft_cross_entropy_batch(targets, logits), 0.25),
                          lambda: scale(soft_cross_entropy_batch_composite(targets, logits), 0.25),
                          [logits])


@pytest.mark.parametrize("tau, logit_scale", [(0.5, 1.0), (0.05, 10.0), (1.0, 1.0)],
                         ids=["batch", "saturated", "mutual"])
def test_kl_matches_composite(caplog, tau, logit_scale):
    """The ``kl`` node against the clamp/log/mul/sum/scale/add chain on an
    (n, C) batch whose teacher has exact zeros: at tau = 0.05 over cosine-
    scale logits most student entries are floored and get no gradient; tau
    = 1 is the ``Mutual`` case. The floor record keeps its text and count."""
    rng = np.random.default_rng(13)
    logits = Tensor(rng.normal(size=(N, 5)) * logit_scale, requires_grad=True)
    teacher = softmax_temperature(rng.normal(size=(N, 5)) * logit_scale, tau)
    teacher[:3] = np.eye(5)[:3]
    p_s = softmax_temperature(logits, tau).data
    floored = int(np.count_nonzero((p_s < PROB_FLOOR) & (teacher > 0)))
    assert (floored > 0) == (tau == 0.05)

    caplog.set_level("DEBUG", logger="pal.losses")
    kl_loss_batch(teacher, softmax_temperature(logits, tau))
    records = [r for r in caplog.records if r.msg.startswith("kl_loss: floored")]
    assert [(r.msg, r.args) for r in records] == (
        [("kl_loss: floored %d student probabilit(ies) at %g", (floored, PROB_FLOOR))]
        if floored else [])
    assert_same_bytes(lambda: scale(kl_loss_batch(teacher, softmax_temperature(logits, tau)), 0.25),
                      lambda: scale(kl_composite(teacher, softmax_temperature(logits, tau)), 0.25),
                      [logits])


def test_kl_row_with_soft_label_matches_composite():
    rng = np.random.default_rng(14)
    logits = Tensor(rng.normal(size=5), requires_grad=True)
    teacher = random_simplex(rng, 5)
    node = kl_loss(SoftLabel(teacher), softmax(logits))
    assert node.op == "kl" and node._parents[0].op == "softmax"
    assert_same_bytes(lambda: kl_loss(SoftLabel(teacher), softmax(logits)),
                      lambda: kl_composite(teacher, softmax(logits)), [logits])


def test_shared_step_accumulates_like_composite(encoder):
    """One encoder pass feeding the classifier (CE plus logit alignment), the
    anchors and an auxiliary SupCon term: every parameter gradient, summed
    over several contributions, matches the composite graph."""
    rng = np.random.default_rng(11)
    clf = CosineClassifier(n_classes=4, embed_dim=4, scale=10.0, seed=5)
    labels = _labels(rng, N)
    x = rng.normal(size=(N, 6))
    one_hot = np.eye(4)[labels]
    soft = np.stack([random_simplex(rng, 4) for _ in range(N)])
    anchors = _anchors(rng, {})

    def step(embed, logits_of, soft_ce, supct, feat):
        z = embed()
        logits = logits_of(z)
        view = ContrastiveBatchView.supervised(z, labels, 0.05)
        total = scale(soft_ce(one_hot, logits), 0.1) + scale(feat(z, anchors, 0.05), 0.1)
        total = total + scale(scale(soft_ce(soft, logits), 0.1), 0.5)
        return total + scale(supct(view), 0.1)

    def fused():
        return step(lambda: encoder.embed(x), clf.logits, soft_cross_entropy_batch,
                    lambda v: supct_loss(v).loss, lambda z, a, t: feat_align_loss(z, a, t).loss)

    def composite():
        return step(lambda: embed_composite(encoder, x), lambda z: logits_composite(clf, z),
                    soft_cross_entropy_batch_composite, lambda v: supct_composite(v)[0],
                    lambda z, a, t: feat_align_composite(z, a, t)[0])

    assert_same_bytes(fused, composite, [*encoder.parameters(), clf.weights])


def test_fused_nodes_match_finite_differences(encoder):
    rng = np.random.default_rng(12)
    tau = 0.5
    x = rng.normal(size=(5, 6))
    weight = rng.normal(size=(5, 4))
    for i, param in enumerate(encoder.parameters()):
        def embed_with(t, i=i):
            params = encoder.parameters()
            params[i] = t
            enc = Encoder(encoder.config)
            enc.weights, enc.biases = params[:3], params[3:]
            return reduce_sum(mul(enc.embed(x), weight))

        check_gradient(embed_with, param.data)

    clf = CosineClassifier(n_classes=3, embed_dim=4, scale=8.0, seed=1)
    check_gradient(lambda t: reduce_sum(mul(clf.logits(t), weight[:, :3])), rng.normal(size=(5, 4)))

    labels = _labels(rng, N, singletons=2)
    z0 = random_unit_rows(rng, N, 4)
    check_gradient(lambda t: supct_loss(ContrastiveBatchView.supervised(t, labels, tau)).loss, z0)
    check_gradient(lambda t: ct_loss(ContrastiveBatchView.unsupervised(t, labels, tau)).loss, z0)
    anchors = _anchors(rng, dict(n_pos=1, n_neg=3), empty_rows=2)
    check_gradient(lambda t: feat_align_loss(t, anchors, tau).loss, z0)

    soft = np.stack([random_simplex(rng, 5) for _ in range(N)])
    check_gradient(lambda t: soft_cross_entropy_batch(soft, t), rng.normal(size=(N, 5)))
    check_gradient(lambda t: kl_loss_batch(soft, softmax_temperature(t, tau)),
                   rng.normal(size=(N, 5)))


def _graph(root) -> list:
    """Every node reachable from ``root``, leaves included."""
    seen, stack, nodes = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


def _interior_nodes(root) -> int:
    return sum(node._vjp is not None for node in _graph(root))


def test_training_step_graph_sizes(monkeypatch):
    """A partner step is the encoder node, the SupCon node and the batch
    scaling; a PAL main step adds the logits, two soft cross-entropies and
    the feature alignment, plus their scalings and sums. The composite ops
    built 16 and 34 interior nodes for this one-hidden-layer net."""
    import pal.training

    sizes = []
    real_backward = pal.training.backward

    def counting_backward(root):
        sizes.append(_interior_nodes(root))
        real_backward(root)

    monkeypatch.setattr(pal.training, "backward", counting_backward)
    base = generate_synthetic(SyntheticSpec(n_base_classes=4, n_novel_classes=2,
                                            items_per_class=8, raw_dim=8, seed=1)).base
    cfg = TrainConfig(epochs=1, lr_decay_epoch=1, warmup_epochs=0, batch_size=8,
                      variant=Variant.PAL)
    net = NetConfig(hidden_dims=(8,), embed_dim=4)
    train_partner(base, cfg, net=net)
    partner_steps = len(sizes)
    assert max(sizes) <= 3
    train_variant(base, cfg, net=net)
    main_sizes = sizes[2 * partner_steps:]
    assert main_sizes and max(main_sizes) <= 11


TRAINING_NODES = {"leaf", "embed", "logits", "contrastive", "soft_cross_entropy", "kl",
                  "softmax", "scale", "add", "reshape"}


def test_every_variant_builds_only_training_nodes(monkeypatch):
    """One tiny epoch of each variant builds only the fused nodes and the
    scalings, sums and KL student softmax around them. A PAL_KL_logit main
    step is the PAL one without feature alignment and with its soft
    cross-entropy swapped for the KL term's scale, softmax and kl nodes; the
    composite KL chain added clamp_min, log, mul and sum nodes."""
    import pal.training

    graphs = []
    real_backward = pal.training.backward

    def recording_backward(root):
        graphs.append(_graph(root))
        real_backward(root)

    monkeypatch.setattr(pal.training, "backward", recording_backward)
    base = generate_synthetic(SyntheticSpec(n_base_classes=4, n_novel_classes=2,
                                            items_per_class=8, raw_dim=8, seed=1)).base
    net = NetConfig(hidden_dims=(8,), embed_dim=4)
    for variant in Variant:
        graphs.clear()
        train_variant(base, TrainConfig(epochs=1, lr_decay_epoch=1, warmup_epochs=0,
                                        batch_size=8, variant=variant), net=net)
        assert graphs
        built = {node.op for graph in graphs for node in graph}
        assert built <= TRAINING_NODES, (variant, built - TRAINING_NODES)
        if variant in (Variant.PAL_KL_LOGIT, Variant.PAL_FEAT_KL, Variant.MUTUAL):
            assert "kl" in built
        if variant == Variant.PAL_KL_LOGIT:
            kl_steps = [graph for graph in graphs if any(n.op == "kl" for n in graph)]
            assert kl_steps
            assert max(sum(n._vjp is not None for n in graph) for graph in kl_steps) <= 10
