"""Episode sampling, prototypes, classification, evaluation reports."""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import pal.episodes
from pal.data import Split, SyntheticSpec, generate_synthetic
from pal.encoders import Encoder, EncoderConfig
from pal.episodes import classify_query, draw_episodes, evaluate, prototypes, sample_episode
from pal.exceptions import CapacityError, ContractError, ParameterError

from oracles import (
    choice_replay,
    episode_query_x,
    episode_rows_replay,
    episode_support_x,
    evaluate_loop,
    prototypes_loop,
    uint32_words,
)


class IdentityEncoder:
    """Unit-normalizes raw rows; stands in for a trained encoder."""

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        norms = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-12)
        return x / norms


def one_hot_split(n_classes: int, per_class: int, dim: int) -> Split:
    x, y = [], []
    for c in range(n_classes):
        rows = np.zeros((per_class, dim), dtype=np.float32)
        rows[:, c] = 1.0
        x.append(rows)
        y.append(np.full(per_class, c, dtype=np.int32))
    return Split(np.concatenate(x), np.concatenate(y), label_width=n_classes)


class CountingEncoder:
    """Forwards to an encoder and counts its ``encode`` calls and rows."""

    def __init__(self, enc):
        self.enc = enc
        self.calls = 0
        self.rows = 0

    def encode(self, x):
        self.calls += 1
        self.rows += len(x)
        return self.enc.encode(x)


class NoSpawnGenerator(np.random.Generator):
    def spawn(self, n_children):
        raise AssertionError("episode streams are derived, not spawned")


class NoSpawnSeedSequence(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("episode streams are derived, not spawned")


def refuse_spawn(monkeypatch) -> None:
    """Make every generator and seed sequence built through ``np.random``
    refuse to spawn. numpy's own types are immutable, so the names are
    replaced by subclasses whose ``spawn`` raises."""
    monkeypatch.setattr(np.random, "Generator", NoSpawnGenerator)
    monkeypatch.setattr(np.random, "SeedSequence", NoSpawnSeedSequence)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: NoSpawnGenerator(np.random.PCG64(NoSpawnSeedSequence(seed))))


def uneven_split(sizes, dim: int = 10, seed: int = 0) -> Split:
    """Classes of the given sizes with sparse, out-of-order ids, their rows
    shuffled together so no class occupies a contiguous block."""
    rng = np.random.default_rng(seed)
    ids = 3 + 2 * np.arange(len(sizes))[::-1]
    y = np.repeat(ids, sizes).astype(np.int32)
    centers = rng.normal(size=(len(sizes), dim))
    x = np.repeat(centers, sizes, axis=0) + 2.0 * rng.normal(size=(len(y), dim))
    order = rng.permutation(len(y))
    return Split(x[order].astype(np.float32), y[order], label_width=int(ids.max()) + 1)


@pytest.fixture(scope="module")
def novel():
    spec = SyntheticSpec(
        n_base_classes=4, n_novel_classes=6, items_per_class=40, raw_dim=16, margin=2.0, seed=9
    )
    return generate_synthetic(spec).novel


def test_episode_sizes_five_way(novel):
    rng = np.random.default_rng(0)
    ep = sample_episode(novel, n=5, k=1, q=15, rng=rng)
    assert len(episode_support_x(ep)) == 5
    assert len(episode_query_x(ep)) == 75
    ep = sample_episode(novel, n=5, k=5, q=15, rng=np.random.default_rng(1))
    assert len(episode_support_x(ep)) == 25
    assert len(episode_query_x(ep)) == 75


def test_episode_support_query_disjoint_and_counts(novel):
    ep = sample_episode(novel, n=4, k=3, q=5, rng=np.random.default_rng(2))
    for pos in range(4):
        sup = episode_support_x(ep)[ep.support_y == pos]
        que = episode_query_x(ep)[ep.query_y == pos]
        assert len(sup) == 3 and len(que) == 5
        for row in sup:
            assert not any(np.array_equal(row, qrow) for qrow in que)


def test_episode_deterministic(novel):
    e1 = sample_episode(novel, 5, 1, 15, np.random.default_rng(42))
    e2 = sample_episode(novel, 5, 1, 15, np.random.default_rng(42))
    np.testing.assert_array_equal(e1.classes, e2.classes)
    np.testing.assert_array_equal(episode_support_x(e1), episode_support_x(e2))
    np.testing.assert_array_equal(episode_query_x(e1), episode_query_x(e2))


def test_episode_capacity_error_names_shortfall(novel):
    with pytest.raises(CapacityError, match="7 classes"):
        sample_episode(novel, n=7, k=1, q=15, rng=np.random.default_rng(3))
    with pytest.raises(CapacityError, match="0 of 6"):
        sample_episode(novel, n=2, k=30, q=30, rng=np.random.default_rng(4))


def test_prototype_k1_is_support_embedding():
    enc = IdentityEncoder()
    sup = np.array([[3.0, 4.0]])
    protos = prototypes(enc.encode(sup), np.array([0]), n=1)
    np.testing.assert_allclose(protos[0], [0.6, 0.8], atol=1e-12)


def test_prototype_antipodal_supports_degenerate_to_zero():
    enc = IdentityEncoder()
    sup = np.array([[1.0, 0.0], [-1.0, 0.0]])
    protos = prototypes(enc.encode(sup), np.array([0, 0]), n=1)
    np.testing.assert_array_equal(protos[0], [0.0, 0.0])


def test_prototype_two_orthogonal_supports():
    enc = IdentityEncoder()
    sup = np.array([[1.0, 0.0], [0.0, 1.0]])
    protos = prototypes(enc.encode(sup), np.array([0, 0]), n=1)
    np.testing.assert_allclose(protos[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_prototype_empty_class_contract():
    with pytest.raises(ContractError):
        prototypes(IdentityEncoder().encode(np.array([[1.0, 0.0]])), np.array([0]), n=2)


def test_prototypes_match_class_loop_exactly():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n, k, d = rng.integers(1, 9), rng.integers(1, 12), rng.integers(2, 40)
        z = rng.normal(size=(n * k, d))
        y = np.repeat(np.arange(n), k)
        np.testing.assert_array_equal(prototypes(z, y, n), prototypes_loop(z, y, n))
        # A stack of episodes gives each episode's prototypes bit for bit.
        stack = rng.normal(size=(rng.integers(1, 70), n * k, d))
        protos = prototypes(stack, y, n)
        assert protos.shape == (len(stack), n, d)
        for z_episode, p_episode in zip(stack, protos):
            np.testing.assert_array_equal(p_episode, prototypes(z_episode, y, n))


def test_classify_query_self_match():
    protos = np.eye(4)
    assert classify_query(protos, protos[2]) == 2


def test_classify_query_tie_breaks_to_lowest_index():
    protos = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert classify_query(protos, np.array([1.0, 0.0])) == 0
    assert classify_query(np.zeros((3, 2)), np.array([1.0, 0.0])) == 0


def test_classify_query_hand_case():
    protos = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert classify_query(protos, np.array([0.8, 0.6])) == 0


def test_classify_query_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        protos = rng.normal(size=(4, 6))
        z = rng.normal(size=6)
        base = classify_query(protos, z)
        assert classify_query(protos * 3.7, z * 0.2) == base


def test_classify_query_needs_prototypes():
    with pytest.raises(ParameterError):
        classify_query(np.zeros((0, 3)), np.zeros(3))


def test_evaluate_perfectly_separable_classes():
    split = one_hot_split(n_classes=6, per_class=20, dim=8)
    report = evaluate(IdentityEncoder(), split, n=5, k=1, q=5, episodes=20, rng=0)
    assert report.mean_accuracy == 1.0
    assert report.ci95 == 0.0


def test_report_zero_variance_ci():
    per = np.array([0.8, 0.8, 0.8])
    mean = float(per.mean())
    ci = float(1.96 * per.std(ddof=1) / np.sqrt(3))
    assert mean == pytest.approx(0.8, abs=1e-12)
    assert ci == pytest.approx(0.0, abs=1e-12)


def test_evaluate_mean_is_arithmetic_mean(novel):
    enc = Encoder(EncoderConfig(input_dim=novel.dim, hidden_dims=(16,), embed_dim=8, seed=0))
    report = evaluate(enc, novel, n=3, k=1, q=4, episodes=25, rng=7)
    assert report.mean_accuracy == pytest.approx(float(np.mean(report.per_episode)), abs=1e-12)
    assert report.ci95 == pytest.approx(
        1.96 * np.std(report.per_episode, ddof=1) / np.sqrt(25), abs=1e-12
    )
    assert all(0.0 <= a <= 1.0 for a in report.per_episode)


def test_evaluate_deterministic_same_seed(novel):
    enc = Encoder(EncoderConfig(input_dim=novel.dim, hidden_dims=(16,), embed_dim=8, seed=0))
    r1 = evaluate(enc, novel, n=3, k=2, q=4, episodes=15, rng=11)
    r2 = evaluate(enc, novel, n=3, k=2, q=4, episodes=15, rng=11)
    assert r1.per_episode == r2.per_episode
    assert r1.summary() == r2.summary()


def test_report_csv_roundtrip(tmp_path, novel):
    enc = Encoder(EncoderConfig(input_dim=novel.dim, hidden_dims=(16,), embed_dim=8, seed=0))
    report = evaluate(enc, novel, n=3, k=1, q=4, episodes=5, rng=13)
    path = tmp_path / "eval.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode_id,accuracy"
    assert len(lines) == 7  # header + 5 episodes + summary
    assert "±" in lines[-1]


def test_prototype_converges_toward_class_mean(novel):
    # Average distance between the episode prototype and the normalized
    # full-class mean embedding is nonincreasing in K.
    enc = Encoder(EncoderConfig(input_dim=novel.dim, hidden_dims=(16,), embed_dim=8, seed=1))
    full_means = {}
    for c in novel.classes:
        z = enc.encode(novel.x[novel.y == c].astype(np.float64))
        m = z.mean(axis=0)
        full_means[int(c)] = m / np.linalg.norm(m)
    rng = np.random.default_rng(17)
    avg_dist = []
    for k in (1, 5, 25):
        dists = []
        for _ in range(100):
            ep = sample_episode(novel, n=3, k=k, q=1, rng=rng)
            protos = prototypes(enc.encode(episode_support_x(ep)), ep.support_y, n=3)
            for pos, c in enumerate(ep.classes):
                dists.append(np.linalg.norm(protos[pos] - full_means[int(c)]))
        avg_dist.append(np.mean(dists))
    assert avg_dist[0] >= avg_dist[1] >= avg_dist[2]


@pytest.mark.parametrize(
    "n,k,q", [(2, 1, 3), (3, 5, 4), (4, 2, 6), (5, 1, 1), (2, 5, 10), (8, 5, 6)]
)
def test_evaluate_matches_per_episode_loop(monkeypatch, n, k, q):
    # Classes of 7 and 9 rows are too small for some (k, q); the rest vary.
    # Episode counts straddle the block size that evaluate draws and scores.
    # Each count is evaluated twice: drawn inside evaluate, and drawn first
    # by draw_episodes, then scored without a draw.
    split = uneven_split([30, 7, 25, 12, 40, 9, 18, 22, 14, 11])
    enc = Encoder(EncoderConfig(input_dim=split.dim, hidden_dims=(16,), embed_dim=8, seed=2))
    calls = []
    draw = pal.episodes.sample_episode
    monkeypatch.setattr(pal.episodes, "sample_episode", lambda *a: calls.append(a) or draw(*a))
    assert pal.episodes.BLOCK == 64
    # evaluate and draw_episodes run where nothing can spawn, and still draw
    # the spawned streams the loop draws.
    for seed in (0, 7, 20260808):
        for episodes in (1, 12, 63, 64, 65, 130):
            expected = evaluate_loop(enc, split, n, k, q, episodes, seed)
            with monkeypatch.context() as patch:
                refuse_spawn(patch)
                calls.clear()
                report = evaluate(enc, split, n=n, k=k, q=q, episodes=episodes, rng=seed)
                assert report.per_episode == expected
                assert len(calls) == episodes
                calls.clear()
                drawn = draw_episodes(split, n, k, q, episodes, seed)
                assert len(calls) == episodes
            calls.clear()
            report = evaluate(enc, split, n=n, k=k, q=q, episodes=drawn)
            assert report.per_episode == expected
            assert (report.episodes, calls) == (episodes, [])


@pytest.mark.parametrize(
    "n,k,q", [(3, 5, 4), (5, 1, 15), (10, 1, 3), (4, 5, 15), (2, 10, 20)]
)
def test_episode_draws_replay_their_stream_words(n, k, q):
    # The last three shapes take every eligible class (10, 4 and 2 of them),
    # and the last one every row of the 30-row class: Floyd's selection then
    # starts at a bound of 0, which reads no word. After each episode the
    # stream's next word must be the replay's next one, so both read the
    # same number of words.
    split = uneven_split([30, 7, 25, 12, 40, 9, 18, 22, 14, 11])
    for seed in (0, 7, 20260808):
        twins = np.random.default_rng(seed).spawn(130)
        replays = [uint32_words(twin.bit_generator) for twin in twins]
        expected = np.stack([episode_rows_replay(split, n, k, q, words) for words in replays])
        assert np.array_equal(draw_episodes(split, n, k, q, 130, seed).rows, expected)
        for stream, words, rows in zip(np.random.default_rng(seed).spawn(20), replays, expected):
            ep = sample_episode(split, n, k, q, stream)
            assert np.array_equal(ep.rows, rows)
            assert np.array_equal(ep.classes, split.y[rows[:, 0]])
            assert int(stream.integers(2**32, dtype=np.uint32)) == next(words)


@pytest.mark.parametrize("rng", [None, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 7])
def test_episode_streams_are_the_seeds_spawned_children(rng):
    # Episode i draws from the seed's i-th spawned child; _draw_into derives
    # those states a block at a time instead of spawning. A numpy whose
    # SeedSequence changes fails here. 2**200 + 7 has more entropy words
    # than the 4-word pool, and the last index is the widest one-word key.
    seed = pal.episodes._seed(rng)
    children = np.random.default_rng(seed).spawn(600)
    block = pal.episodes.BLOCK
    derived = {
        i: words
        for first in (0, block, 576, 2**32 - block)
        for i, words in enumerate(pal.episodes._stream_states(seed, first, block), first)
    }
    for i in (0, 63, 64, 599, 2**32 - 1):
        if i < len(children):
            want = children[i].bit_generator.state
        else:
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state
        assert np.random.PCG64(pal.episodes._StateWords(derived[i])).state == want


def test_choice_replay_redraws_a_rejected_word():
    # With a bound of 2, a word of 0 leaves a low product half of 0, below
    # 2**32 mod 3 = 1, so the draw is rejected and the next word decides.
    # Plant that word as the stream's buffered half.
    bit_generator = np.random.PCG64(5)
    bit_generator.state = {**bit_generator.state, "has_uint32": 1, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    words = itertools.chain([0], uint32_words(np.random.PCG64(5)))
    pop = np.array([4, 9, 6])
    assert np.array_equal(rng.choice(pop, 1, replace=False), choice_replay(words, pop, 1))
    assert int(rng.integers(2**32, dtype=np.uint32)) == next(words)


def test_evaluate_encodes_the_split_once():
    split = uneven_split([30, 7, 25, 12, 40])
    enc = CountingEncoder(
        Encoder(EncoderConfig(input_dim=split.dim, hidden_dims=(16,), embed_dim=8, seed=0))
    )
    evaluate(enc, split, n=3, k=2, q=5, episodes=40, rng=1)
    assert (enc.calls, enc.rows) == (1, len(split.y))


def test_evaluate_rejects_before_encoding():
    split = uneven_split([30, 7, 25, 12, 40])
    enc = CountingEncoder(IdentityEncoder())
    with pytest.raises(CapacityError, match="only 2 of 5"):
        evaluate(enc, split, n=3, k=5, q=21, episodes=10, rng=0)
    with pytest.raises(ParameterError):
        evaluate(enc, split, n=3, k=0, q=5, episodes=10, rng=0)
    # A 1-way episode always scores 1.0, so it measures nothing.
    with pytest.raises(ParameterError, match="n must be >= 2, got 1"):
        evaluate(enc, split, n=1, k=1, q=5, episodes=10, rng=0)
    assert enc.calls == 0


def test_evaluate_and_draw_refuse_counts_past_one_key_word():
    # Episode i draws from spawn key (i,); a count of 2**32 or more needs a
    # key wider than one 32-bit word, whose stream would not be spawn's.
    split = uneven_split([30, 7, 25, 12, 40])
    enc = CountingEncoder(IdentityEncoder())
    for episodes in (2**32, 2**40):
        with pytest.raises(ParameterError, match=r"episodes must be < 2\*\*32"):
            evaluate(enc, split, n=3, k=2, q=5, episodes=episodes, rng=0)
        with pytest.raises(ParameterError, match=r"episodes must be < 2\*\*32"):
            draw_episodes(split, 3, 2, 5, episodes, 0)
    assert enc.calls == 0


def test_evaluate_and_draw_refuse_a_generator_before_encoding():
    # Drawing advances a generator, so evaluate after draw_episodes with one
    # generator would score other episodes than the ones drawn.
    split = uneven_split([30, 7, 25, 12, 40])
    drawn = draw_episodes(split, n=3, k=2, q=5, episodes=10, rng=7)
    enc = CountingEncoder(IdentityEncoder())
    with pytest.raises(ParameterError, match="got Generator"):
        draw_episodes(split, 3, 2, 5, 10, np.random.default_rng(7))
    for episodes in (10, drawn):
        with pytest.raises(ParameterError, match="got Generator"):
            evaluate(enc, split, n=3, k=2, q=5, episodes=episodes, rng=np.random.default_rng(7))
    assert enc.calls == 0


def test_evaluate_refuses_a_set_that_does_not_match():
    split = uneven_split([30, 7, 25, 12, 40])
    drawn = draw_episodes(split, n=3, k=2, q=5, episodes=70, rng=4)
    enc = CountingEncoder(IdentityEncoder())
    for n, k, q in ((2, 2, 5), (3, 1, 5), (3, 2, 6)):
        with pytest.raises(ContractError, match="episode set is 3-way 2-shot with 5 queries"):
            evaluate(enc, split, n=n, k=k, q=q, episodes=drawn)
    # Another split: one more row, or the same rows in another order.
    bigger = uneven_split([30, 7, 25, 12, 41])
    order = np.random.default_rng(0).permutation(len(split.y))
    shuffled = Split(split.x[order], split.y[order], label_width=split.label_width)
    for other in (bigger, shuffled):
        with pytest.raises(ContractError, match="drawn from another split"):
            evaluate(enc, other, n=3, k=2, q=5, episodes=drawn)
    assert enc.calls == 0
    assert not drawn.rows.flags.writeable and not drawn.classes.flags.writeable


def test_evaluate_memory_flat_in_episode_count():
    # Spawning every episode's generator at once held about 1 kB per episode.
    split = uneven_split([30, 12, 25, 14, 40, 11, 18, 22])
    enc = Encoder(EncoderConfig(input_dim=split.dim, hidden_dims=(16,), embed_dim=8, seed=0))

    def peak(episodes):
        tracemalloc.start()
        try:
            evaluate(enc, split, n=5, k=1, q=5, episodes=episodes, rng=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) - peak(200) < 1_000_000
