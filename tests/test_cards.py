from __future__ import annotations

import dataclasses
import json
import math
import random

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
    write_cards,
)
from agentmesh.identity import AttestationIssuer, ClaimType, sha256
from _helpers import did_for, keypair_for, random_card, unit_embedding


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
    assert validate_card(_card()) == []


def test_embedding_norm_violation():
    bad = _card(embedding=tuple([0.5] + [0.0] * (EMBED_DIM - 1)))
    assert CardViolation.EMBEDDING_NOT_UNIT in validate_card(bad)


def test_embedding_length_violation():
    bad = _card(embedding=(1.0, 0.0))
    assert CardViolation.EMBEDDING_WRONG_LENGTH in validate_card(bad)


def test_empty_capabilities_violation():
    assert CardViolation.NO_CAPABILITIES in validate_card(_card(capabilities=()))


def test_display_name_length_violation():
    assert CardViolation.DISPLAY_NAME_TOO_LONG in validate_card(_card(display_name="x" * 129))
    assert validate_card(_card(display_name="x" * 128)) == []


def test_credential_checked_against_resolver():
    issuer = AttestationIssuer(keypair_for("cred-issuer"))
    att = issuer.issue(did_for("card"), ClaimType.SLA_MET, sha256(b"p"), 1)
    card = _card(credentials=(att,))
    assert CardViolation.BAD_CREDENTIAL in validate_card(card)  # no resolver supplied
    resolver = {str(issuer.did): issuer.keypair.public_key}
    assert validate_card(card, resolver) == []


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
    good = _card()
    bad = _card(embedding=(float("nan"),) + (0.0,) * (EMBED_DIM - 1))
    path.write_text(
        "\n".join(json.dumps(card.to_json_obj()) for card in (good, good.bump(capabilities=()), bad)) + "\n"
    )
    with pytest.raises(ValueError, match="^line 2: card violates NoCapabilities$"):
        load_cards(path)
    path.write_text("\n".join(json.dumps(card.to_json_obj()) for card in (good, bad)) + "\n")
    with pytest.raises(ValueError, match="^line 2: card violates EmbeddingNotFinite$"):
        load_cards(path)


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
