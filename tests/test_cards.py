from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from agentmesh import cards
from agentmesh.cards import (
    EMBED_DIM,
    AgentFactCard,
    CardViolation,
    EncodingRefused,
    card_digest,
    load_cards,
    validate_card,
)
from agentmesh.identity import AttestationCheck, AttestationIssuer, ClaimType, sha256
from agentmesh.simnet import synthetic_agents
from agentmesh.wire import dumps
from _helpers import did_for, json_values, json_with, keypair_for, random_card, unit_embedding, write_cards


def _card(**overrides) -> AgentFactCard:
    base = AgentFactCard(
        did=did_for("card"),
        display_name="weather-bot",
        description="forecasts the weather",
        capabilities=("weather.forecast",),
        endpoint_url="https://svc/weather",
        embedding=None,
        usage_count=3,
        last_active=10,
        version=1,
    )
    return dataclasses.replace(base, **overrides)


def test_well_formed_card_has_no_violations():
    assert validate_card(_card(), {}) == []
    assert validate_card(_card(display_name="x" * 128), {}) == []


# One card per structural violation, as overrides of the well-formed `_card()`.
_VIOLATING = {
    CardViolation.EMBEDDING_NOT_UNIT: {"embedding": (0.5,) + (0.0,) * (EMBED_DIM - 1)},
    CardViolation.EMBEDDING_WRONG_LENGTH: {"embedding": (1.0, 0.0)},
    CardViolation.EMBEDDING_NOT_FINITE: {"embedding": (math.nan,) + (0.0,) * (EMBED_DIM - 1)},
    CardViolation.NO_CAPABILITIES: {"capabilities": ()},
    CardViolation.EMPTY_CAPABILITY: {"capabilities": ("weather.forecast", "")},
    CardViolation.DISPLAY_NAME_TOO_LONG: {"display_name": "x" * 129},
}


@pytest.mark.parametrize("violation", list(_VIOLATING), ids=lambda violation: violation.value)
def test_construction_refuses_each_structural_violation(violation):
    # `dataclasses.replace` and `bump` build through the constructor, so both run the one check.
    with pytest.raises(EncodingRefused, match=f"^card violates {violation.value}$"):
        _card(**_VIOLATING[violation])
    with pytest.raises(EncodingRefused, match=f"^card violates {violation.value}$"):
        _card().bump(**_VIOLATING[violation])


def test_credential_checked_against_resolver(monkeypatch):
    issuer = AttestationIssuer(keypair_for("cred-issuer"))
    att = issuer.issue(did_for("card"), ClaimType.SLA_MET, sha256(b"p"), 1)
    card = _card(credentials=(att,))
    assert CardViolation.BAD_CREDENTIAL in validate_card(card, {})  # the resolver knows no key
    resolver = {str(issuer.did): issuer.keypair.public_key}
    assert validate_card(card, resolver) == []
    # A credential about another agent is refused before any signature check.
    about_other = issuer.issue(did_for("other"), ClaimType.SLA_MET, sha256(b"p"), 2)
    checked = []
    monkeypatch.setattr(cards, "verify_attestation", lambda att, lookup: checked.append(att) or AttestationCheck.VALID)
    for credentials in ((about_other,), (att, about_other)):
        assert validate_card(_card(credentials=credentials), resolver) == [CardViolation.BAD_CREDENTIAL]
    assert checked == [att]


@pytest.mark.parametrize("kind", ["sla-met", "round-seal"])
def test_self_issued_credential_refused_before_any_signature_check(monkeypatch, kind):
    """Every signature here is good, and the resolver holds the signer's key:
    a card's own agent still cannot vouch for it, by a claim or by its seal."""
    agent = synthetic_agents(2, 1)[0]
    issuer = AttestationIssuer(agent.keypair)
    if kind == "sla-met":
        credential = issuer.issue(agent.did, ClaimType.SLA_MET, sha256(b"p"), 1)
    else:
        credential = issuer.seal([], 1)
    resolver = {str(agent.did): agent.keypair.public_key}
    checked = []
    verify = cards.verify_attestation
    monkeypatch.setattr(cards, "verify_attestation", lambda att, lookup: checked.append(att) or verify(att, lookup))
    card = dataclasses.replace(agent.card, credentials=(credential,))
    assert validate_card(card, resolver) == [CardViolation.BAD_CREDENTIAL]
    assert checked == []


@pytest.mark.parametrize("as_sequence", [list, np.array], ids=["list", "ndarray"])
def test_a_card_built_from_other_sequences_is_the_card_built_from_tuples(as_sequence):
    """Every card hashes and compares as a value, with the digest and JSON
    bytes of the card built from tuples."""
    embedding = unit_embedding(random.Random(11))
    credential = AttestationIssuer(keypair_for("cred-issuer")).issue(did_for("card"), ClaimType.SLA_MET, sha256(b"p"), 1)
    capabilities = ("weather.forecast", "weather.alerts")
    from_tuples = _card(capabilities=capabilities, embedding=embedding, credentials=(credential,))
    built = [
        _card(capabilities=list(capabilities), embedding=as_sequence(embedding), credentials=[credential])
        for _ in range(2)
    ]
    assert built[0] == built[1] == from_tuples and hash(built[0]) == hash(from_tuples)
    assert type(built[0].capabilities) is tuple and type(built[0].credentials) is tuple
    assert type(built[0].embedding) is cards._CheckedEmbedding and {type(x) for x in built[0].embedding} == {float}
    assert card_digest(built[0]) == card_digest(from_tuples)
    assert dumps(built[0].to_json_obj()) == dumps(from_tuples.to_json_obj())


def test_encode_deterministic_and_digest_sensitive():
    card = _card(embedding=unit_embedding(random.Random(1)))
    assert card_digest(card) == card_digest(card)
    d0 = card_digest(card)
    d1 = card_digest(dataclasses.replace(card, usage_count=card.usage_count + 1))
    assert d0 != d1
    assert len(d0) == 32


def test_round_trip_1000_randomized_cards():
    rng = random.Random(42)
    for i in range(1000):
        card = random_card(rng, with_credentials=(i % 10 == 0))
        assert AgentFactCard.from_json_obj(card.to_json_obj()) == card


def test_digest_avalanche_every_field():
    rng = random.Random(3)
    base = _card(embedding=unit_embedding(rng))
    issuer = AttestationIssuer(keypair_for("cred-issuer"))
    att = issuer.issue(base.did, ClaimType.POLICY_PASS, sha256(b"x"), 1)
    variants = {
        "did": dataclasses.replace(base, did=did_for("other")),
        "display_name": dataclasses.replace(base, display_name="other-bot"),
        "description": dataclasses.replace(base, description="different text"),
        "capabilities": dataclasses.replace(base, capabilities=("weather.alerts",)),
        "endpoint_url": dataclasses.replace(base, endpoint_url="https://svc/else"),
        "embedding": dataclasses.replace(base, embedding=unit_embedding(rng)),
        "credentials": dataclasses.replace(base, credentials=(att,)),
        "usage_count": dataclasses.replace(base, usage_count=base.usage_count + 1),
        "last_active": dataclasses.replace(base, last_active=base.last_active + 1),
        "version": dataclasses.replace(base, version=base.version + 1),
    }
    d0 = card_digest(base)
    for name, variant in variants.items():
        assert card_digest(variant) != d0, f"digest blind to field {name}"


def test_encode_refuses_invalid_card():
    with pytest.raises(EncodingRefused):
        card_digest(_card(capabilities=()))
    with pytest.raises(EncodingRefused):
        card_digest(_card(embedding=(1.0,) * EMBED_DIM))


def test_version_bump_helper():
    card = _card()
    assert card.bump(description="new").version == card.version + 1


def test_jsonl_corpus_round_trip(tmp_path):
    rng = random.Random(9)
    cards = [random_card(rng) for _ in range(10)]
    path = tmp_path / "cards.jsonl"
    write_cards(path, cards)
    assert load_cards(path) == cards


def test_load_cards_refuses_a_card_that_fails_the_structural_checks(tmp_path):
    path = tmp_path / "cards.jsonl"
    good = _card().to_json_obj()
    no_capabilities = {**good, "capabilities": []}
    # json.dumps writes NaN, which json.loads reads back; json_float refuses it.
    not_finite = {**good, "embedding": [math.nan] + [0.0] * (EMBED_DIM - 1)}
    path.write_text("\n".join(json.dumps(obj) for obj in (good, no_capabilities, not_finite)) + "\n")
    with pytest.raises(ValueError, match="^line 2: card violates NoCapabilities$"):
        load_cards(path)
    path.write_text("\n".join(json.dumps(obj) for obj in (good, not_finite)) + "\n")
    with pytest.raises(ValueError, match="^line 2: card embedding entry must be finite$"):
        load_cards(path)


# -- ingress: a card read from JSON is checked once, as it is built -------------

_ISSUER = AttestationIssuer(keypair_for("ingress-issuer"))
_RESOLVER = {str(_ISSUER.did): _ISSUER.keypair.public_key}
_CARD_JSON = _card(
    embedding=unit_embedding(random.Random(5)),
    credentials=(_ISSUER.issue(did_for("card"), ClaimType.SLA_MET, sha256(b"p"), 1),),
).to_json_obj()
_CARD_PATHS = (
    [(name,) for name in sorted(_CARD_JSON)]
    + [("embedding", 0), ("embedding", EMBED_DIM - 1), ("capabilities", 0)]
    + [("credentials", 0, name) for name in sorted(_CARD_JSON["credentials"][0])]
)
_UNIT = _CARD_JSON["embedding"]
_HOSTILE_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e154, 1.0 + 2e-9])
_EMBEDDINGS = st.one_of(
    st.integers(0, EMBED_DIM + 2).map(lambda n: _UNIT[:n]),  # wrong lengths, and the right one
    st.floats(0.0, 1e160).map(lambda scale: [x * scale for x in _UNIT]),  # not unit, or unit
    _HOSTILE_NUMBERS.map(lambda x: [x] * EMBED_DIM),
    st.lists(_HOSTILE_NUMBERS | st.floats(), min_size=EMBED_DIM, max_size=EMBED_DIM),
)
_PAYLOAD_DIGESTS = st.integers(0, 34).map(lambda n: "ab" * n) | st.text(alphabet="0123456789abcdefX ", max_size=70)
_CARD_EDITS = st.one_of(
    st.tuples(st.sampled_from(_CARD_PATHS), json_values | _HOSTILE_NUMBERS),
    st.tuples(st.just(("embedding",)), _EMBEDDINGS),
    st.tuples(st.just(("credentials", 0, "payload_digest")), _PAYLOAD_DIGESTS),
)


@given(edit=_CARD_EDITS)
@example(edit=(("embedding",), [x * 2.0 for x in _UNIT]))  # not unit
@example(edit=(("embedding",), [1e154] * EMBED_DIM))  # finite squares whose sum overflows
@example(edit=(("embedding", 0), math.nan))
@example(edit=(("credentials", 0, "payload_digest"), "ab" * 31))  # a 31-byte payload digest
def test_a_card_read_from_json_is_refused_or_digests_and_validates(edit):
    path, value = edit
    try:
        card = AgentFactCard.from_json_obj(json_with(_CARD_JSON, path, value))
    except ValueError:
        return
    assert len(card_digest(card)) == 32
    assert validate_card(card, _RESOLVER) in ([], [CardViolation.BAD_CREDENTIAL])


def _loop_quantized(embedding) -> bytes:
    """The per-coordinate encoding the numpy one replaced, kept as its oracle."""
    if embedding is None:
        return b"\x00"
    parts = [b"\x01"]
    for x in embedding:
        parts.append(round(x * 10**9).to_bytes(8, "big", signed=True))
    return b"".join(parts)


def _near_half(k: int, direction: float) -> float:
    """The grid's half step after k, or the float next to it towards direction."""
    half = (k + 0.5) / 10**9
    return half if direction == 0 else math.nextafter(half, direction)


_near_halves = st.builds(_near_half, st.integers(-(10**9), 10**9 - 1), st.sampled_from([-math.inf, 0, math.inf]))
_coordinate = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-10, -5e-10, 1.5e-9]) | _near_halves


@given(embedding=st.none() | st.lists(_coordinate, max_size=EMBED_DIM).map(tuple))
@example(embedding=(0.0, -0.0, 1.0, -1.0, 5e-10, -5e-10, 2.5e-9, -2.5e-9))
def test_quantized_embedding_matches_the_per_coordinate_loop(embedding):
    assert cards._encode_embedding_quantized(embedding) == _loop_quantized(embedding)


# -- the checked embedding a card holds ---------------------------------------


def _reference_structural_violations(card) -> list[CardViolation]:
    """The structural checks as they were before a card kept its embedding
    as a checked value, kept as the oracle."""
    out: list[CardViolation] = []
    if not card.capabilities:
        out.append(CardViolation.NO_CAPABILITIES)
    elif any(not c for c in card.capabilities):
        out.append(CardViolation.EMPTY_CAPABILITY)
    if len(card.display_name.encode("utf-8")) > cards.MAX_DISPLAY_NAME_BYTES:
        out.append(CardViolation.DISPLAY_NAME_TOO_LONG)
    if card.embedding is not None:
        if len(card.embedding) != EMBED_DIM:
            out.append(CardViolation.EMBEDDING_WRONG_LENGTH)
        elif not all(map(math.isfinite, card.embedding)):
            out.append(CardViolation.EMBEDDING_NOT_FINITE)
        elif abs(math.hypot(*card.embedding) - 1.0) > cards.NORM_TOL:
            out.append(CardViolation.EMBEDDING_NOT_UNIT)
    return out


_UNIT_TUPLE = tuple(_UNIT)
_drawn_embeddings = st.one_of(
    st.none(),
    st.integers(0, 2**32).map(lambda seed: unit_embedding(random.Random(seed))),
    st.integers(0, EMBED_DIM + 2).map(lambda n: _UNIT_TUPLE[:n]),
    st.sampled_from([0.5, 2.0, 1e154, 1e200, 1e308, -1e308]).map(lambda x: (x,) * EMBED_DIM),
    st.tuples(st.integers(0, EMBED_DIM - 1), st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 1.5])).map(
        lambda at: _UNIT_TUPLE[: at[0]] + (at[1],) + _UNIT_TUPLE[at[0] + 1 :]
    ),
)


@given(
    embedding=_drawn_embeddings,
    capabilities=st.sampled_from([(), ("weather.forecast",), ("weather.forecast", "")]),
    display_name=st.sampled_from(["weather-bot", "x" * 129]),
)
@example(embedding=(1e308,) * EMBED_DIM, capabilities=("weather.forecast",), display_name="weather-bot")
def test_violations_and_refusal_text_equal_the_reference_checks(embedding, capabilities, display_name):
    fields = dict(_card().__dict__, embedding=embedding, capabilities=capabilities, display_name=display_name)
    expected = _reference_structural_violations(types.SimpleNamespace(**fields))
    assert cards._structural_violations(types.SimpleNamespace(**fields)) == expected
    if expected:
        with pytest.raises(EncodingRefused) as refused:
            AgentFactCard(**fields)
        assert str(refused.value) == "card violates " + ", ".join(v.value for v in expected)
        return
    card = AgentFactCard(**fields)
    assert card.embedding == embedding
    if embedding is not None:
        assert type(card.embedding) is cards._CheckedEmbedding
        assert card.embedding.quantized == np.rint(np.asarray(embedding) * 1e9).astype(">i8").tobytes()
    assert cards._encode_embedding_quantized(card.embedding) == _loop_quantized(embedding)


def test_a_huge_finite_embedding_is_refused_as_not_unit():
    # hypot of 256 coordinates of 1e308 is inf: not unit, though every coordinate is finite.
    assert math.hypot(*[1e308] * EMBED_DIM) == math.inf
    with pytest.raises(EncodingRefused, match="^card violates EmbeddingNotUnit$"):
        _card(embedding=(1e308,) * EMBED_DIM)
    with pytest.raises(EncodingRefused, match="^card violates EmbeddingNotUnit$"):
        _card(embedding=unit_embedding(random.Random(2))).bump(embedding=(-1e308,) * EMBED_DIM)


def test_a_card_built_from_a_checked_embedding_checks_and_quantizes_nothing(monkeypatch):
    embedding = unit_embedding(random.Random(8))
    card = _card(embedding=embedding)
    digest_of = {usage: card_digest(_card(embedding=embedding, usage_count=usage, version=2)) for usage in (3, 4)}
    card_digest(card)

    def refuse(*args):
        raise AssertionError("the checked embedding was checked or quantized again")

    monkeypatch.setattr(cards, "math", types.SimpleNamespace(isfinite=refuse, hypot=refuse))
    monkeypatch.setattr(cards, "_quantize", refuse)
    bumped = card.bump()
    replaced = dataclasses.replace(card, usage_count=4, version=2)
    for built, usage in ((bumped, 3), (replaced, 4)):
        assert built.embedding is card.embedding
        assert card_digest(built) == digest_of[usage]
    # A new tuple with equal values is checked as it is built.
    with pytest.raises(AssertionError, match="checked or quantized again"):
        card.bump(embedding=tuple(embedding))


def test_a_copied_or_pickled_embedding_is_a_plain_tuple_without_the_memo():
    card = _card(embedding=unit_embedding(random.Random(9)))
    digest = card_digest(card)
    assert "quantized" in vars(card.embedding)
    for copied in (copy.copy(card.embedding), copy.deepcopy(card.embedding), pickle.loads(pickle.dumps(card.embedding))):
        assert type(copied) is tuple and copied == card.embedding
    for copied in (copy.deepcopy(card), pickle.loads(pickle.dumps(card))):
        assert type(copied.embedding) is tuple
        assert copied == card and card_digest(copied) == digest
        # The copy's next card checks the tuple again and holds its own checked value.
        rebuilt = dataclasses.replace(copied)
        assert type(rebuilt.embedding) is cards._CheckedEmbedding and rebuilt.embedding is not card.embedding
        assert card_digest(rebuilt) == digest
