from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agentmesh.cards import EMBED_DIM
from agentmesh.discovery import (
    L2RModel,
    RankFeatures,
    card_embedding,
    cosine,
    dedup,
    embed_text,
    features_for,
    load_pairs,
    rank,
    score_pairwise_loss,
    train,
)
from _helpers import random_card, unit_embedding


def _rand_features(rng: random.Random) -> RankFeatures:
    return RankFeatures(
        cos_sim=rng.uniform(-1, 1),
        trust=rng.uniform(0, 1),
        log_usage=rng.uniform(0, 6),
        recency=rng.uniform(0, 1),
    )


# -- embedding -----------------------------------------------------------------


def test_embed_deterministic_and_unit_norm():
    a = embed_text("some agent description")
    b = embed_text("some agent description")
    assert np.array_equal(a, b)
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-12
    assert cosine(a, a) == 1.0


def test_embed_empty_and_short_text():
    empty = embed_text("")
    assert empty[0] == 1.0 and float(np.sum(np.abs(empty))) == 1.0
    short = embed_text("ab")
    assert abs(float(np.linalg.norm(short)) - 1.0) < 1e-12


def test_embed_similarity_regression_pin():
    a = embed_text("weather forecast agent")
    b = embed_text("weather prediction agent")
    c = embed_text("invoice payment agent")
    sim_ab = cosine(a, b)
    sim_ac = cosine(a, c)
    assert sim_ab > sim_ac
    # values measured once with the shipped hasher and frozen
    assert sim_ab == pytest.approx(0.4522670168666455, abs=1e-12)
    assert sim_ac == pytest.approx(0.28284271247461906, abs=1e-12)


def test_card_embedding_prefers_stored_vector():
    rng = random.Random(0)
    card = random_card(rng)
    while card.embedding is None:
        card = random_card(rng)
    assert np.allclose(card_embedding(card), np.asarray(card.embedding))
    bare = card.bump(embedding=None)
    assert np.allclose(card_embedding(bare), embed_text(bare.description))


# -- pairwise loss and training --------------------------------------------------


def test_loss_at_zero_weights_is_ln2_per_pair():
    rng = random.Random(1)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(17)]
    loss, gradient = score_pairwise_loss(L2RModel.zeros(), pairs)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert gradient.shape == (5,)


def test_identical_features_pair_contributes_ln2_and_no_gradient():
    rng = random.Random(2)
    f = _rand_features(rng)
    loss, gradient = score_pairwise_loss(L2RModel(theta=np.array([0.3, -0.2, 0.1, 0.5]), bias=0.7), [(f, f)])
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert np.allclose(gradient, 0.0)


def test_gradient_matches_central_finite_differences():
    rng = random.Random(3)
    h = 1e-6
    for _ in range(100):
        pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(rng.randrange(1, 25))]
        model = L2RModel(theta=np.array([rng.uniform(-2, 2) for _ in range(4)]), bias=rng.uniform(-1, 1))
        _loss, grad = score_pairwise_loss(model, pairs)

        def loss_at(param: int, delta: float) -> float:
            theta = model.theta.copy()
            bias = model.bias
            if param < 4:
                theta[param] += delta
            else:
                bias += delta
            return score_pairwise_loss(L2RModel(theta=theta, bias=bias), pairs)[0]

        for param in range(5):
            fd = (loss_at(param, h) - loss_at(param, -h)) / (2 * h)
            analytic = float(grad[param])
            # relative 1e-6 with a 1e-9 floor for the quotient's own roundoff
            assert abs(fd - analytic) <= 1e-9 + 1e-6 * max(abs(fd), abs(analytic))


def test_train_zero_iterations_leaves_zeros():
    rng = random.Random(4)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(5)]
    model = train(pairs, learning_rate=0.1, iters=0)
    assert np.array_equal(model.theta, np.zeros(4)) and model.bias == 0.0


def test_train_validates_learning_rate():
    rng = random.Random(4)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(5)]
    for learning_rate in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            train(pairs, learning_rate=learning_rate)


def test_train_duplicated_pairs_same_model():
    rng = random.Random(5)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(20)]
    single = train(pairs, learning_rate=0.2, iters=50)
    doubled = train(pairs * 2, learning_rate=0.2, iters=50)
    assert np.allclose(single.theta, doubled.theta, atol=1e-12)


def test_train_loss_non_increasing_and_learns_similarity():
    rng = random.Random(6)
    pairs = []
    for _ in range(200):
        other = _rand_features(rng)
        preferred = RankFeatures(
            cos_sim=min(1.0, other.cos_sim + rng.uniform(0.05, 0.4)),
            trust=other.trust,
            log_usage=other.log_usage,
            recency=other.recency,
        )
        pairs.append((preferred, other))
    model = train(pairs, learning_rate=0.3, iters=150, keep_history=True)
    assert model.theta[0] > 0  # similarity weight learned positive
    history = model.loss_history
    assert all(after <= before + 1e-12 for before, after in zip(history, history[1:]))
    assert model.final_loss < math.log(2)


def test_model_json_round_trip():
    model = L2RModel(theta=np.array([1.0, 2.0, -0.5, 0.25]), bias=0.1, iterations=7, final_loss=0.5)
    restored = L2RModel.from_json_obj(model.to_json_obj())
    assert np.array_equal(restored.theta, model.theta)
    assert restored.bias == model.bias


def test_load_pairs_jsonl(tmp_path):
    import json

    path = tmp_path / "pairs.jsonl"
    rows = []
    rng = random.Random(7)
    for _ in range(5):
        a, b = _rand_features(rng), _rand_features(rng)
        rows.append({"preferred": a.to_json_obj(), "other": b.to_json_obj()})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    pairs = load_pairs(path)
    assert len(pairs) == 5
    assert pairs[0][0].cos_sim == rows[0]["preferred"]["cos_sim"]


# -- ranking -------------------------------------------------------------------


def test_rank_single_card():
    rng = random.Random(8)
    card = random_card(rng)
    model = L2RModel(theta=np.array([1.0, 0.5, 0.0, 0.0]))
    out = rank(embed_text("anything"), [card], {}, model, k=3, now=0)
    assert out == [(str(card.did), pytest.approx(out[0][1]))]


def test_rank_breaks_ties_by_trust_then_did():
    rng = random.Random(9)
    emb = unit_embedding(rng)
    a = random_card(rng).bump(embedding=emb, usage_count=5, last_active=0)
    b = random_card(rng).bump(embedding=emb, usage_count=5, last_active=0)
    # trust weight zero: scores tie exactly; trust tie-break must decide
    model = L2RModel(theta=np.array([1.0, 0.0, 0.2, 0.1]))
    trust_report = {str(a.did): 0.1, str(b.did): 0.9}
    out = rank(embed_text("query"), [a, b], trust_report, model, k=2, now=0, tau=1.0)
    assert out[0][0] == str(b.did)
    # full tie (same trust too): lexicographic DID
    trust_report = {str(a.did): 0.5, str(b.did): 0.5}
    out = rank(embed_text("query"), [a, b], trust_report, model, k=2, now=0, tau=1.0)
    assert out[0][0] == min(str(a.did), str(b.did))


def test_rank_with_positive_trust_weight_prefers_trusted():
    rng = random.Random(10)
    emb = unit_embedding(rng)
    a = random_card(rng).bump(embedding=emb, usage_count=0, last_active=0)
    b = random_card(rng).bump(embedding=emb, usage_count=0, last_active=0)
    model = L2RModel(theta=np.array([1.0, 1.0, 0.0, 0.0]))
    out = rank(embed_text("q"), [a, b], {str(a.did): 0.9, str(b.did): 0.1}, model, k=2, now=0, tau=1.0)
    assert out[0][0] == str(a.did)
    # raising b's trust to the top never lowers b
    out2 = rank(embed_text("q"), [a, b], {str(a.did): 0.9, str(b.did): 0.95}, model, k=2, now=0, tau=1.0)
    assert out2[0][0] == str(b.did)


def test_rank_agrees_with_exhaustive_sort_oracle():
    rng = random.Random(11)
    cards = [random_card(rng) for _ in range(300)]
    trust_report = {str(c.did): rng.random() for c in cards}
    model = L2RModel(theta=np.array([1.2, 0.8, 0.05, 0.3]), bias=0.1)
    query = embed_text("weather and maps")
    now = 1000
    got = rank(query, cards, trust_report, model, k=20, now=now, tau=1.0)

    scored = []
    for card in cards:
        feats = features_for(query, card, trust_report[str(card.did)], now)
        scored.append((str(card.did), model.score(feats), trust_report[str(card.did)]))
    scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
    # tau=1.0 with distinct random embeddings: dedup drops nothing
    expected = [(did, score) for did, score, _trust in scored[:20]]
    assert [d for d, _s in got] == [d for d, _s in expected]
    for (_d1, s1), (_d2, s2) in zip(got, expected):
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_rank_order_invariant_under_positive_affine_score_transform():
    rng = random.Random(12)
    cards = [random_card(rng) for _ in range(40)]
    trust_report = {str(c.did): rng.random() for c in cards}
    model = L2RModel(theta=np.array([1.0, 0.4, 0.1, 0.2]), bias=0.0)
    scaled = L2RModel(theta=model.theta * 3.5, bias=2.0)
    q = embed_text("query text")
    a = rank(q, cards, trust_report, model, k=40, now=0, tau=1.0)
    b = rank(q, cards, trust_report, scaled, k=40, now=0, tau=1.0)
    assert [d for d, _ in a] == [d for d, _ in b]


def test_rank_empty_cards_and_bad_k():
    model = L2RModel.zeros()
    assert rank(embed_text("q"), [], {}, model, k=3, now=0) == []
    with pytest.raises(ValueError):
        rank(embed_text("q"), [], {}, model, k=0, now=0)


# -- dedup ---------------------------------------------------------------------


def test_dedup_drops_identical_keeps_higher_ranked():
    rng = random.Random(13)
    emb = np.asarray(unit_embedding(rng))
    out = dedup([("a", 2.0, emb), ("b", 1.0, emb)], tau=0.95)
    assert [d for d, _s, _e in out] == ["a"]


def test_dedup_tau_one_keeps_distinct():
    rng = random.Random(14)
    items = [(f"c{i}", float(-i), np.asarray(unit_embedding(rng))) for i in range(10)]
    out = dedup(items, tau=1.0)
    assert len(out) == 10


def test_dedup_output_pairwise_below_tau():
    rng = random.Random(15)
    base = np.asarray(unit_embedding(rng))
    items = []
    for i in range(60):
        if rng.random() < 0.5:
            noise = np.random.default_rng(i).normal(scale=0.05, size=EMBED_DIM)
            v = base + noise
        else:
            v = np.asarray(unit_embedding(rng))
        v = v / np.linalg.norm(v)
        items.append((f"c{i}", float(-i), v))
    tau = 0.9
    kept = dedup(items, tau=tau)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert cosine(kept[i][2], kept[j][2]) < tau


@given(st.integers(min_value=0, max_value=10_000))
def test_dedup_idempotent(seed):
    rng = random.Random(seed)
    items = [(f"c{i}", float(-i), np.asarray(unit_embedding(rng))) for i in range(rng.randrange(0, 12))]
    tau = rng.uniform(0.05, 1.0)
    once = dedup(items, tau=tau)
    twice = dedup(once, tau=tau)
    assert [d for d, _s, _e in once] == [d for d, _s, _e in twice]


def test_dedup_validates_tau():
    with pytest.raises(ValueError):
        dedup([], tau=0.0)
    with pytest.raises(ValueError):
        dedup([], tau=1.5)
