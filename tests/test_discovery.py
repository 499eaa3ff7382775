from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from agentmesh import discovery, simnet
from agentmesh.cards import EMBED_DIM, card_digest
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


def _reference_cosine(a, b) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(np.dot(a, b)) / (na * nb), -1.0, 1.0))


def _converting_cosine(a, b, norm_a=None, norm_b=None) -> float:
    """`cosine` with no fast path, the oracle for every input form: each
    argument converted by ``np.asarray(x, dtype=float)``, then the same
    scalar arithmetic."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = math.sqrt(a.dot(a)) if norm_a is None else norm_a
    nb = math.sqrt(b.dot(b)) if norm_b is None else norm_b
    if na == 0.0 or nb == 0.0:
        return 0.0
    similarity = float(a.dot(b)) / (na * nb)
    if similarity > 1.0:
        return 1.0
    if similarity < -1.0:
        return -1.0
    return similarity


def _same_float(x: float, y: float) -> bool:
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack(">d", x) == struct.pack(">d", y)


def _strided(v):
    wide = np.zeros(2 * len(v))
    wide[::2] = v
    return wide[::2]


def _masked(v):
    """An ndarray subclass with its own arithmetic: a masked array's dot
    skips the masked entry, while ``np.asarray`` keeps the data under it."""
    v = np.asarray(v, dtype=float)
    return np.ma.masked_array(v, mask=np.arange(len(v)) == 0)


def _read_only(v):
    v = np.array(v, dtype=float)
    v.flags.writeable = False
    return v


# The forms a vector may reach `cosine` in. Only the first three are plain
# float64 arrays, which `cosine` uses as they are; it converts the others.
_COSINE_FORMS = {
    "float64": lambda v: np.ascontiguousarray(v, dtype=float),
    "strided": _strided,
    "read-only": _read_only,
    "list": lambda v: np.asarray(v).tolist(),
    "tuple": lambda v: tuple(np.asarray(v).tolist()),
    "float32": lambda v: np.asarray(v, dtype=np.float32),
    "byte-swapped": lambda v: np.asarray(v, dtype=">f8"),
    "int64": lambda v: np.asarray(v).astype(np.int64),
    "subclass": _masked,
}

_cosine_cases = given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["random", "near", "scaled", "negated", "unit", "zero", "nan", "integers"]),
    noise=st.floats(min_value=1e-12, max_value=1.0),
    factor=st.floats(min_value=1e-3, max_value=1e3),
    form=st.sampled_from(sorted(_COSINE_FORMS)),
)


def _cosine_case(seed, kind, noise, factor):
    """The vector pair (a, b) of one drawn case."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=EMBED_DIM)
    if kind == "random":
        b = rng.normal(size=EMBED_DIM)
    elif kind == "near":
        b = a + rng.normal(scale=noise, size=EMBED_DIM)
    elif kind == "scaled":
        b = a * factor
    elif kind == "negated":
        b = -a * factor
    elif kind == "unit":
        a = a / np.linalg.norm(a)
        b = a.copy()
    elif kind == "zero":
        b = np.zeros(EMBED_DIM)
    elif kind == "nan":
        b = a.copy()
        b[int(rng.integers(EMBED_DIM))] = np.nan
    else:
        a = rng.integers(-5, 6, size=EMBED_DIM)
        b = rng.integers(-5, 6, size=EMBED_DIM)
    return a, b


def _formed_cosine_case(seed, kind, noise, factor, form):
    """The drawn pair, each vector in the drawn form."""
    assume(not (form == "int64" and kind == "nan"))  # a NaN has no int64
    return tuple(_COSINE_FORMS[form](v) for v in _cosine_case(seed, kind, noise, factor))


def _own_norm(v) -> float:
    v = np.asarray(v, dtype=float)
    return math.sqrt(v.dot(v))


@_cosine_cases
def test_cosine_bit_identical_to_numpy_reference(seed, kind, noise, factor, form):
    a, b = _formed_cosine_case(seed, kind, noise, factor, form)
    for x, y in ((a, b), (b, a), (a, a)):
        got = cosine(x, y)
        assert isinstance(got, float)
        assert _same_float(got, _converting_cosine(x, y))
        # np.linalg.norm copies a strided vector before its dot, and a
        # strided dot rounds differently, so that form has only the oracle
        # above.
        if form != "strided":
            assert _same_float(got, _reference_cosine(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
        assert math.isnan(got) or -1.0 <= got <= 1.0


@_cosine_cases
def test_cosine_with_given_norms_bit_identical_to_cosine_taking_them(seed, kind, noise, factor, form):
    a, b = _formed_cosine_case(seed, kind, noise, factor, form)
    for x, y in ((a, b), (b, a), (a, a)):
        expected = _converting_cosine(x, y)
        assert _same_float(cosine(x, y), expected)
        assert _same_float(cosine(x, y, _own_norm(x), _own_norm(y)), expected)
        assert _same_float(cosine(x, y, _own_norm(x)), expected)
        assert _same_float(cosine(x, y, norm_b=_own_norm(y)), expected)


def test_card_embedding_prefers_stored_vector():
    rng = random.Random(0)
    card = random_card(rng)
    while card.embedding is None:
        card = random_card(rng)
    assert np.array_equal(card_embedding(card), np.asarray(card.embedding))
    bare = card.bump(embedding=None)
    assert np.array_equal(card_embedding(bare), embed_text(bare.description))


def test_card_embedding_is_the_cards_own_read_only_array():
    rng = random.Random(1)
    card = random_card(rng)
    while card.embedding is None:
        card = random_card(rng)
    first = card_embedding(card)
    assert card_embedding(card) is first
    assert np.array_equal(first, np.asarray(card.embedding))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    # A changed card is a new card, with an array of its own.
    bumped = card.bump()
    assert card_embedding(bumped) is not first
    assert np.array_equal(card_embedding(bumped), first)
    other = unit_embedding(rng)
    replaced = dataclasses.replace(card, embedding=other)
    assert np.array_equal(card_embedding(replaced), np.asarray(other))
    # Equality and hashing still compare fields only.
    twin = dataclasses.replace(card)
    assert twin == card and hash(twin) == hash(card)
    bare = card.bump(embedding=None)
    assert card_embedding(bare).tobytes() == embed_text(bare.description).tobytes()


def test_a_copied_or_pickled_card_leaves_its_ranking_vector_behind():
    card = simnet.synthetic_agents(8, 1)[0].card
    unranked = len(pickle.dumps(card))
    card_embedding(card)
    digest = card_digest(card)  # the card's checked embedding keeps its quantized bytes
    assert "quantized" in vars(card.embedding)
    assert len(pickle.dumps(card)) == unranked
    for copied in (copy.copy(card), copy.deepcopy(card), pickle.loads(pickle.dumps(card))):
        assert copied == card
        array = card_embedding(copied)
        assert not array.flags.writeable
        assert array is not card_embedding(card)
        assert array.tobytes() == card_embedding(card).tobytes()
        assert card_digest(copied) == digest
    # A shallow copy shares the card's embedding value; a deep copy or a
    # pickle holds a plain tuple, with no memo.
    assert copy.copy(card).embedding is card.embedding
    for copied in (copy.deepcopy(card), pickle.loads(pickle.dumps(card))):
        assert type(copied.embedding) is tuple and not hasattr(copied.embedding, "__dict__")


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


def _reference_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _reference_pairwise_loss(model, pairs):
    """Verbatim copy of the per-pair loop that score_pairwise_loss vectorises."""
    losses = []
    grad_theta = np.zeros(4)
    for preferred, other in pairs:
        diff = preferred.vector() - other.vector()
        margin = float(np.dot(model.theta, diff))  # bias cancels
        losses.append(float(np.logaddexp(0.0, -margin)))
        grad_theta += -_reference_sigmoid(-margin) * diff
    loss = math.fsum(losses) / len(pairs)
    gradient = np.concatenate([grad_theta / len(pairs), [0.0]])
    return loss, gradient


_feature_values = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e3, 1e3),
    st.integers(-1000, 1000),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, -math.nan]),
)


@st.composite
def _model_and_pairs(draw):
    """Random pairs, some columns equal on both sides (zero diffs), and
    weights up to 1e4, so that margins reach far enough for exp to underflow."""
    tied = draw(st.sets(st.integers(0, 3)))
    rows = draw(st.lists(st.tuples(*[_feature_values] * 8), min_size=1, max_size=30))
    pairs = [
        (RankFeatures(*row[:4]), RankFeatures(*(row[j] if j in tied else row[4 + j] for j in range(4))))
        for row in rows
    ]
    weight = st.one_of(st.floats(-5.0, 5.0), st.floats(-1e4, 1e4))
    theta = np.array(draw(st.lists(weight, min_size=4, max_size=4)), dtype=float)
    return L2RModel(theta=theta, bias=draw(st.floats(-1.0, 1.0))), pairs


_ZERO = RankFeatures(0.0, 0.0, 0.0, 0.0)


@settings(max_examples=200)
@given(_model_and_pairs())
# A NaN margin whose sign bit is clear once negated: a sigmoid that takes
# exp(-abs(x)) gives the gradient a NaN with the sign bit cleared.
@example((L2RModel.zeros(), [(_ZERO, RankFeatures(0.0, 0.0, 0.0, -math.nan)), (_ZERO, _ZERO)]))
# Signed zeros in theta and in the diffs. vecdot sums from +0.0, so every
# zero margin is +0.0 and its negation, the sigmoid's argument, is -0.0.
@example(
    (
        L2RModel(theta=np.array([-0.0, 0.0, -1.0, 1.0])),
        [
            (RankFeatures(-0.0, 0.0, -0.0, 0.0), _ZERO),
            (_ZERO, RankFeatures(-0.0, 0.0, -0.0, 0.0)),
            (RankFeatures(0.0, 0.0, 1.0, 1.0), _ZERO),
            (RankFeatures(0.0, 0.0, 1.0, 2.0), _ZERO),
        ],
    )
)
def test_pairwise_loss_bit_identical_to_per_pair_loop(model_and_pairs):
    model, pairs = model_and_pairs
    with np.errstate(all="ignore"):
        loss, gradient = score_pairwise_loss(model, pairs)
        ref_loss, ref_gradient = _reference_pairwise_loss(model, pairs)
    assert struct.pack(">d", loss) == struct.pack(">d", ref_loss)
    assert gradient.tobytes() == ref_gradient.tobytes()


@pytest.mark.parametrize("seed", [1, 7, 1011])
def test_train_on_simnet_pairs_bit_identical_to_per_pair_loop(seed, monkeypatch):
    pairs = simnet._training_pairs(simnet.subsystem_rng(seed, "l2r"))
    model = train(pairs, learning_rate=0.5, iters=300)
    monkeypatch.setattr(discovery, "score_pairwise_loss", _reference_pairwise_loss)
    reference = train(pairs, learning_rate=0.5, iters=300)
    assert model.theta.tobytes() == reference.theta.tobytes()
    assert struct.pack(">d", model.bias) == struct.pack(">d", reference.bias)
    assert struct.pack(">d", model.final_loss) == struct.pack(">d", reference.final_loss)
    assert model.loss_history == reference.loss_history


# SHA-256 over theta, bias, final_loss and loss_history of the simnet fit,
# pinned before the pair table was built once per fit.
_TRAINED_DIGESTS = {
    1: "97217ca66efc333ad4ac2680e07e11cba441ff3ee9aca3f0ece5ac1b7ff4c02a",
    7: "46078f7d79683f64cefbb3ab760d1fb6f6ca596b0b8a8ed640a453c38493fe64",
    1011: "fd1975a10d4f75dc9cf2501a4df5f100872c6885276be9859bf3271816f8b851",
}


@pytest.mark.parametrize("seed", sorted(_TRAINED_DIGESTS))
def test_train_on_simnet_pairs_digest_is_pinned(seed):
    pairs = simnet._training_pairs(simnet.subsystem_rng(seed, "l2r"))
    model = train(pairs, 0.5, 300)
    digest = hashlib.sha256()
    digest.update(model.theta.tobytes())
    digest.update(struct.pack(">d", model.bias))
    digest.update(struct.pack(">d", model.final_loss))
    digest.update(struct.pack(f">{len(model.loss_history)}d", *model.loss_history))
    assert len(model.loss_history) == 301
    assert digest.hexdigest() == _TRAINED_DIGESTS[seed]


@pytest.mark.parametrize("iters", [0, 1, 5])
def test_train_passes_one_pair_table_to_every_loss_call(iters, monkeypatch):
    """The benchmark's self-test counts calls of the module attribute, and the
    per-pair reference loop iterates what train passes."""
    rng = random.Random(8)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(6)]
    seen = []
    loss = discovery.score_pairwise_loss

    def recording(model, table):
        seen.append(table)
        return loss(model, table)

    monkeypatch.setattr(discovery, "score_pairwise_loss", recording)
    train(pairs, learning_rate=0.1, iters=iters)
    assert len(seen) == (iters + 1 if iters else 0)
    assert all(table is seen[0] for table in seen)
    if seen:
        got = list(seen[0])
        assert len(got) == len(pairs) and all(a is b for a, b in zip(got, pairs))


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


def test_train_refuses_a_negative_iteration_count():
    rng = random.Random(4)
    pairs = [(_rand_features(rng), _rand_features(rng)) for _ in range(5)]
    with pytest.raises(ValueError, match="iters"):
        train(pairs, learning_rate=0.1, iters=-1)


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
    model = train(pairs, learning_rate=0.3, iters=150)
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
        rows.append({"preferred": dataclasses.asdict(a), "other": dataclasses.asdict(b)})
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
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=12),
    theta=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(min_value=-10.0, max_value=10.0)),
        min_size=4,
        max_size=4,
    ),
    bias=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
    now=st.integers(min_value=0, max_value=3 * 10**6),
    tau=st.sampled_from([1.0, 0.9, 0.3]),
    k=st.integers(min_value=1, max_value=13),
)
def test_rank_scores_are_the_scalar_model_scores_bit_for_bit(seed, n, theta, bias, now, tau, k):
    rng = random.Random(seed)
    # Cards share a few (usage, last_active) profiles and trust values, so a
    # zero similarity weight makes scores tie and the trust, then DID,
    # tie-breaks decide; last_active may lie after now, and usage reaches 2**63.
    profiles = [(rng.choice([0, 1, rng.randrange(2**63)]), rng.randrange(3 * 10**6)) for _ in range(3)]
    trusts = [0.1, 0.5, rng.random()]
    cards = []
    for _ in range(n):
        usage, last_active = rng.choice(profiles)
        cards.append(random_card(rng).bump(usage_count=usage, last_active=last_active))
    trust_report = {str(c.did): rng.choice(trusts) for c in cards if rng.random() < 0.8}
    model = L2RModel(theta=np.array(theta), bias=bias)
    query = embed_text("weather and maps")

    scored = []
    for card in cards:
        trust = trust_report.get(str(card.did), 0.0)
        score = model.score(features_for(query, card, trust, now))
        scored.append((str(card.did), score, trust, card_embedding(card)))
    scored.sort(key=lambda t: (-t[1], -t[2], t[0]))
    kept = dedup([(did, score, emb) for did, score, _trust, emb in scored], tau)
    expected = [(did, struct.pack(">d", score)) for did, score, _emb in kept[:k]]

    got = rank(query, cards, trust_report, model, k=k, now=now, tau=tau)
    assert all(isinstance(score, float) for _did, score in got)
    assert [(did, struct.pack(">d", score)) for did, score in got] == expected


def test_rank_embeds_each_card_once(monkeypatch):
    rng = random.Random(16)
    cards = [random_card(rng) for _ in range(25)]
    embedded = []

    original = discovery._card_vector

    def counting_vector(card):
        embedded.append(id(card))
        return original(card)

    monkeypatch.setattr(discovery, "_card_vector", counting_vector)
    model = L2RModel(theta=np.array([1.0, 0.5, 0.1, 0.2]))
    rank(embed_text("weather and maps"), cards, {}, model, k=5, now=10)
    assert sorted(embedded) == sorted(id(card) for card in cards)


def test_rank_embeds_a_bare_cards_description_once_per_card(monkeypatch):
    rng = random.Random(17)
    cards = [dataclasses.replace(random_card(rng), embedding=None) for _ in range(12)]
    query = embed_text("weather and maps")
    model = L2RModel(theta=np.array([1.0, 0.5, 0.1, 0.2]))
    original = discovery.embed_text

    def bits(hits):
        return [(did, struct.pack(">d", score)) for did, score in hits]

    def reembedding(card):
        # The fallback as it was: the description embedded on every call.
        embedding = np.asarray(card.embedding, dtype=float) if card.embedding is not None else original(card.description)
        return embedding, discovery._norm(embedding)

    with monkeypatch.context() as patch:
        patch.setattr(discovery, "_card_vector", reembedding)
        expected = bits(rank(query, cards, {}, model, k=8, now=10))
    embedded = []

    def counting(text):
        embedded.append(text)
        return original(text)

    monkeypatch.setattr(discovery, "embed_text", counting)
    first = bits(rank(query, cards, {}, model, k=8, now=10))
    second = bits(rank(query, cards, {}, model, k=8, now=10))
    assert first == second == expected
    # K bare cards, two queries: K embeddings, where re-embedding made 2K.
    assert sorted(embedded) == sorted(card.description for card in cards)
    for card in cards:
        fallback = card_embedding(card)
        assert card.embedding is None
        assert not fallback.flags.writeable
        assert fallback.tobytes() == original(card.description).tobytes()
    assert len(embedded) == len(cards)


def test_rank_takes_each_cards_norm_once_per_card(monkeypatch):
    rng = random.Random(18)
    cards = [random_card(rng) for _ in range(25)]
    query = embed_text("weather and maps")
    model = L2RModel(theta=np.array([1.0, 0.5, 0.1, 0.2]))
    expected = rank(query, cards, {}, model, k=5, now=10)
    normed = []

    def counting(x):
        normed.append(id(x))
        return original(x)

    original = discovery._norm
    monkeypatch.setattr(discovery, "_norm", counting)
    # The cards' norms were taken by the first query; now only the query's.
    assert rank(query, cards, {}, model, k=5, now=10) == expected
    assert normed == [id(query)]


@pytest.mark.parametrize("change", ["replace", "bump"])
def test_rank_takes_a_changed_cards_norm_from_its_new_embedding(change, monkeypatch):
    rng = random.Random(19)
    card = random_card(rng)
    while card.embedding is None:
        card = random_card(rng)
    # A unit embedding whose norm differs from the card's in its bits, so
    # a norm kept from the old card would show.
    other = unit_embedding(rng)
    while _own_norm(other) == _own_norm(card.embedding):
        other = unit_embedding(rng)
    query = embed_text("weather and maps")
    model = L2RModel(theta=np.array([1.0, 0.5, 0.1, 0.2]))
    rank(query, [card], {}, model, k=1, now=10)
    changed = dataclasses.replace(card, embedding=other) if change == "replace" else card.bump(embedding=other)
    original_cosine = discovery.cosine
    calls = []

    def recording_cosine(a, b, norm_a=None, norm_b=None):
        calls.append((b, norm_b))
        return original_cosine(a, b, norm_a, norm_b)

    monkeypatch.setattr(discovery, "cosine", recording_cosine)
    rank(query, [changed], {}, model, k=1, now=10)
    ((b, norm_b),) = calls
    assert b is card_embedding(changed)
    assert struct.pack(">d", norm_b) == struct.pack(">d", _own_norm(other))
    assert struct.pack(">d", norm_b) != struct.pack(">d", _own_norm(card.embedding))


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


def _all_form_dedup(candidates, tau):
    """`dedup` as it was: one `all()` over the kept entries, with `cosine`
    taking both norms itself."""
    kept = []
    for did, score, emb in candidates:
        if all(discovery.cosine(emb, kept_emb) < tau for _d, _s, kept_emb in kept):
            kept.append((did, score, emb))
    return kept


def _check_the_comparisons_of_the_all_form(cards, trust_report, model, k, tau):
    """Rank once with `cosine` and `dedup` recorded, check that its calls are
    those of the all() form, and return (scan comparisons, kept, candidates)."""
    query = embed_text("weather forecast")
    original_cosine = discovery.cosine
    original_dedup = discovery.dedup
    calls = []
    scans = []

    def recording_cosine(a, b, norm_a=None, norm_b=None):
        calls.append((a, b, norm_a, norm_b))
        return original_cosine(a, b, norm_a, norm_b)

    def recording_dedup(candidates, tau, norms=None):
        scans.append(list(candidates))
        return original_dedup(candidates, tau, norms)

    def pairs():
        got = [(id(a), id(b)) for a, b, _na, _nb in calls]
        calls.clear()
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discovery, "cosine", recording_cosine)
        patch.setattr(discovery, "dedup", recording_dedup)
        hits = rank(query, cards, trust_report, model, k=k, now=10, tau=tau)
        rank_calls = list(calls)
        rank_pairs = pairs()
        (candidates,) = scans
        assert len(candidates) == len(cards)
        expected_kept = _all_form_dedup(candidates, tau)
        scan_pairs = pairs()
        kept = original_dedup(candidates, tau)
        dedup_calls = list(calls)
        assert pairs() == scan_pairs
    assert [(did, struct.pack(">d", score), id(emb)) for did, score, emb in kept] == [
        (did, struct.pack(">d", score), id(emb)) for did, score, emb in expected_kept
    ]
    assert hits == [(did, score) for did, score, _emb in kept[:k]]
    # The candidates are the cards in (-score, -trust, DID) order, each with
    # its own ranking vector.
    by_did = {str(card.did): card for card in cards}
    order = [(-score, -trust_report.get(did, 0.0), did) for did, score, _emb in candidates]
    assert order == sorted(order)
    assert all(emb is card_embedding(by_did[did]) for did, _score, emb in candidates)
    # One similarity per card, in card order, then the dedup scan's
    # comparisons: n plus the scan, as with the all() form.
    similarity_pairs = [(id(query), id(card_embedding(card))) for card in cards]
    assert rank_pairs == similarity_pairs + scan_pairs
    assert len(rank_pairs) == len(cards) + len(scan_pairs)
    # Every card vector reaches `cosine` as a C-contiguous native float64
    # array: a strided view of the same values can round differently.
    vectors = {id(card_embedding(card)) for card in cards}
    handed = [x for a, b, _na, _nb in rank_calls for x in (a, b) if id(x) in vectors]
    assert {id(x) for x in handed} == vectors
    for x in handed:
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.dtype.isnative and x.flags.c_contiguous
    # Every norm passed is its own vector's norm, bit for bit; none is
    # assumed (a unit card's norm is not always exactly 1.0).
    for a, b, norm_a, norm_b in rank_calls + dedup_calls:
        assert norm_a is not None and norm_b is not None
        assert struct.pack(">d", norm_a) == struct.pack(">d", _own_norm(a))
        assert struct.pack(">d", norm_b) == struct.pack(">d", _own_norm(b))
    return scan_pairs, kept, candidates


@pytest.mark.parametrize("tau", [0.95, 1.0])
@pytest.mark.parametrize("seed", [1, 7])
def test_rank_and_dedup_make_the_comparisons_of_the_all_form(seed, tau):
    cards = [agent.card for agent in simnet.synthetic_agents(64, seed, duplicate_every=5)]
    trust_report = {str(card.did): 0.5 for card in cards[::3]}
    model = L2RModel(theta=np.array([1.0, 0.5, 0.1, 0.2]))
    scan_pairs, kept, candidates = _check_the_comparisons_of_the_all_form(cards, trust_report, model, 8, tau)
    # The synthetic corpus makes a long scan, and its near-duplicates are
    # dropped below tau 1.
    assert len(scan_pairs) > len(cards)
    if tau < 1.0:
        assert len(kept) < len(candidates)


@st.composite
def _rank_corpora(draw):
    """(cards, trust report, model, k) for one `rank` call. Cards keep their
    stored embedding, are bare (ranked by their description's embedding),
    share one embedding tuple exactly, or share it with one usage and
    activity profile and one trust, so that only the DID breaks their tie.
    A card's trust may be zero, or missing from the report; k runs from 1
    to one past the number of cards."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["stored", "bare", "shared", "tied"]), max_size=24))
    shared = unit_embedding(rng)
    cards = []
    trust_report = {}
    for kind in kinds:
        card = random_card(rng)
        if kind == "bare":
            card = card.bump(embedding=None)
        elif kind == "shared":
            card = card.bump(embedding=shared)
        elif kind == "tied":
            card = card.bump(embedding=shared, usage_count=7, last_active=0)
        cards.append(card)
        trust = 0.5 if kind == "tied" else draw(st.sampled_from([None, 0.0, 0.5, 0.9]))
        if trust is not None:
            trust_report[str(card.did)] = trust
    theta = draw(st.sampled_from([(1.0, 0.5, 0.1, 0.2), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]))
    k = draw(st.integers(min_value=1, max_value=len(cards) + 1))
    return cards, trust_report, L2RModel(theta=np.array(theta)), k


@settings(max_examples=60)
@given(_rank_corpora(), st.sampled_from([0.3, discovery.DEFAULT_TAU, 1.0]))
def test_rank_and_dedup_make_the_comparisons_of_the_all_form_on_drawn_corpora(corpus, tau):
    _check_the_comparisons_of_the_all_form(*corpus, tau)


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.9, 0.95, 1.0]))
def test_dedup_keeps_what_the_all_form_keeps(seed, tau):
    # Repeated, zero and NaN vectors among unit ones: a NaN cosine is not
    # below tau, so it drops the candidate, as the all() form does.
    rng = random.Random(seed)
    items = []
    for i in range(rng.randrange(0, 16)):
        kind = rng.choice(["unit", "unit", "repeat", "zero", "nan"])
        if kind == "repeat" and items:
            emb = items[-1][2]
        elif kind == "zero":
            emb = np.zeros(EMBED_DIM)
        elif kind == "nan":
            emb = np.asarray(unit_embedding(rng))
            emb[rng.randrange(EMBED_DIM)] = np.nan
        else:
            emb = np.asarray(unit_embedding(rng))
        items.append((f"c{i}", float(-i), emb))
    got = dedup(items, tau)
    expected = _all_form_dedup(items, tau)
    assert [(did, id(emb)) for did, _s, emb in got] == [(did, id(emb)) for did, _s, emb in expected]


@st.composite
def _dedup_candidates(draw):
    """Candidates in rank order among unit vectors: the same array again, an
    equal copy, zero vectors and vectors holding a NaN."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["unit", "unit", "same", "copy", "zero", "nan"]), max_size=16))
    items = []
    for i, kind in enumerate(kinds):
        if kind in ("same", "copy") and items:
            emb = items[rng.randrange(len(items))][2]
            if kind == "copy":
                emb = emb.copy()
        elif kind == "zero":
            emb = np.zeros(EMBED_DIM)
        elif kind == "nan":
            emb = np.asarray(unit_embedding(rng))
            emb[rng.randrange(EMBED_DIM)] = np.nan
        else:
            emb = np.asarray(unit_embedding(rng))
        items.append((f"c{i}", draw(st.floats()), emb))
    return items


@given(_dedup_candidates(), st.sampled_from([0.3, 0.9, 0.95, 1.0]))
def test_dedup_with_given_norms_is_dedup_taking_them(items, tau):
    original_cosine = discovery.cosine
    calls = []

    def recording_cosine(a, b, norm_a=None, norm_b=None):
        calls.append((id(a), id(b), struct.pack(">dd", norm_a, norm_b)))
        return original_cosine(a, b, norm_a, norm_b)

    def run(*norms):
        calls.clear()
        kept = dedup(items, tau, *norms)
        return [(did, struct.pack(">d", score), id(emb)) for did, score, emb in kept], list(calls)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discovery, "cosine", recording_cosine)
        taken = run()
        given_norms = run([_own_norm(emb) for _did, _score, emb in items])
    assert given_norms == taken
