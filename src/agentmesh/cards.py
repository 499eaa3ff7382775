"""Semantic agent cards: capability descriptions, embeddings, credentials,
and usage history, exchanged as JSON and identified by a content digest.

A card is structurally valid by construction: `AgentFactCard.__post_init__`
refuses one that fails a structural check, however it is built, and holds
its sequences as tuples (the embedding's entries as floats), so every card
hashes and compares as a value. Only its credentials, which need a key
resolver, are checked later, by `validate_card`.

The digest is taken over a canonical binary layout whose embedding
coordinates are quantized to a 1e-9 grid first, so digests are reproducible
across platforms.

Cost: the first card built from an embedding sequence runs the three
embedding checks (O(EMBED_DIM)) and holds its floats as a checked value,
which keeps its quantized bytes once a digest has needed them. A card built
from a checked value (a `bump` or `replace` that keeps the embedding, or
another card of a corpus that shares it) checks nothing for it, and its
digest quantizes nothing: it hashes the card's other fields and the kept
bytes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .identity import AgentDid, Attestation, AttestationCheck, KeyResolver, sha256, verify_attestation
from .wire import (
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
    json_float,
    json_list,
    json_object,
    json_str,
    json_u64,
    load_jsonl,
)

__all__ = [
    "EMBED_DIM",
    "NORM_TOL",
    "MAX_DISPLAY_NAME_BYTES",
    "AgentFactCard",
    "CardViolation",
    "EncodingRefused",
    "validate_card",
    "card_digest",
    "load_cards",
]

EMBED_DIM = 256
NORM_TOL = 1e-9
MAX_DISPLAY_NAME_BYTES = 128

_QUANT = 10**9  # 1e-9 grid for digest reproducibility
_DIGEST_DOMAIN = b"\x03"


class CardViolation(str, enum.Enum):
    EMBEDDING_NOT_UNIT = "EmbeddingNotUnit"
    EMBEDDING_WRONG_LENGTH = "EmbeddingWrongLength"
    EMBEDDING_NOT_FINITE = "EmbeddingNotFinite"
    NO_CAPABILITIES = "NoCapabilities"
    EMPTY_CAPABILITY = "EmptyCapability"
    DISPLAY_NAME_TOO_LONG = "DisplayNameTooLong"
    BAD_CREDENTIAL = "BadCredential"


class EncodingRefused(ValueError):
    """A card failed a structural check, so it was not built."""


def _quantize(embedding) -> bytes:
    # np.rint rounds half to even, as round() does; a card's embedding is unit,
    # so every coordinate times 1e9 fits an int64.
    return np.rint(np.asarray(embedding, dtype=float) * _QUANT).astype(">i8").tobytes()


class _CheckedEmbedding(tuple):
    """An embedding tuple that passed the structural checks, as a card holds
    it: a card built from one checks nothing for its embedding, and the value
    keeps its quantized digest bytes once they are asked for. A copy or a
    pickle of it is a plain tuple, so the memo stays behind and the next card
    built from the copy checks it again."""

    @cached_property
    def quantized(self) -> bytes:
        return _quantize(self)

    def __reduce__(self):
        return (tuple, (tuple(self),))


@dataclass(frozen=True)
class AgentFactCard:
    did: AgentDid
    display_name: str
    description: str
    capabilities: tuple[str, ...]
    endpoint_url: str
    embedding: tuple[float, ...] | None = None
    credentials: tuple[Attestation, ...] = field(default_factory=tuple)
    usage_count: int = 0
    last_active: int = 0
    version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "capabilities", tuple(self.capabilities))
        object.__setattr__(self, "credentials", tuple(self.credentials))
        violations = _structural_violations(self)
        if violations:
            raise EncodingRefused("card violates " + ", ".join(v.value for v in violations))
        # The checks passed, so every entry is a finite real number.
        if self.embedding is not None and type(self.embedding) is not _CheckedEmbedding:
            object.__setattr__(self, "embedding", _CheckedEmbedding(map(float, self.embedding)))

    def __getstate__(self) -> dict:
        """The fields alone: a copy or a pickle leaves behind what is kept in
        the card's `__dict__` beside them (discovery's ranking vector)."""
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}

    def bump(self, **changes) -> "AgentFactCard":
        """Copy with changes and the version advanced."""
        return replace(self, version=self.version + 1, **changes)

    def to_json_obj(self) -> dict:
        return {
            "did": self.did,
            "display_name": self.display_name,
            "description": self.description,
            "capabilities": list(self.capabilities),
            "endpoint_url": self.endpoint_url,
            "embedding": list(self.embedding) if self.embedding is not None else None,
            "credentials": [c.to_json_obj() for c in self.credentials],
            "usage_count": self.usage_count,
            "last_active": self.last_active,
            "version": self.version,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AgentFactCard":
        obj = json_object(obj, "card")
        did, display_name, description, endpoint_url = (
            json_str(obj.get(name), f"card field {name!r}")
            for name in ("did", "display_name", "description", "endpoint_url")
        )
        capabilities = json_list(obj.get("capabilities"), "card field 'capabilities'")
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = tuple(
                json_float(x, "card embedding entry") for x in json_list(embedding, "card field 'embedding'")
            )
        return cls(
            did=AgentDid(did),
            display_name=display_name,
            description=description,
            capabilities=tuple(json_str(c, "card capability") for c in capabilities),
            endpoint_url=endpoint_url,
            embedding=embedding,
            credentials=tuple(
                Attestation.from_json_obj(c) for c in json_list(obj.get("credentials", []), "card field 'credentials'")
            ),
            usage_count=json_u64(obj.get("usage_count", 0), "card field 'usage_count'"),
            last_active=json_u64(obj.get("last_active", 0), "card field 'last_active'"),
            version=json_u64(obj.get("version", 1), "card field 'version'"),
        )


def _structural_violations(card: AgentFactCard) -> list[CardViolation]:
    """Invariant checks that need no key resolver."""
    out: list[CardViolation] = []
    if not card.capabilities:
        out.append(CardViolation.NO_CAPABILITIES)
    elif any(not c for c in card.capabilities):
        out.append(CardViolation.EMPTY_CAPABILITY)
    if len(card.display_name.encode("utf-8")) > MAX_DISPLAY_NAME_BYTES:
        out.append(CardViolation.DISPLAY_NAME_TOO_LONG)
    if card.embedding is not None and type(card.embedding) is not _CheckedEmbedding:
        if len(card.embedding) != EMBED_DIM:
            out.append(CardViolation.EMBEDDING_WRONG_LENGTH)
        elif not all(map(math.isfinite, card.embedding)):
            out.append(CardViolation.EMBEDDING_NOT_FINITE)
        # hypot scales, so finite squares whose sum overflows still measure;
        # a norm past the largest float is inf, which is not unit either.
        elif abs(math.hypot(*card.embedding) - 1.0) > NORM_TOL:
            out.append(CardViolation.EMBEDDING_NOT_UNIT)
    return out


def validate_card(card: AgentFactCard, resolver: KeyResolver) -> list[CardViolation]:
    """Each credential against the resolver. A credential must be about the
    card's own agent and issued by another, so neither a self-endorsement
    nor the agent's own round seal counts; a credential that fails either
    test is refused before its signature is checked."""
    for cred in card.credentials:
        if (
            cred.subject != card.did
            or cred.issuer == card.did
            or verify_attestation(cred, resolver) is not AttestationCheck.VALID
        ):
            return [CardViolation.BAD_CREDENTIAL]
    return []


def _encode_embedding_quantized(embedding: tuple[float, ...] | None) -> bytes:
    if embedding is None:
        return enc_u8(0)
    if type(embedding) is _CheckedEmbedding:
        return enc_u8(1) + embedding.quantized
    return enc_u8(1) + _quantize(embedding)


def _digest_body(card: AgentFactCard) -> bytes:
    parts = [
        enc_str(card.did),
        enc_str(card.display_name),
        enc_str(card.description),
        enc_u32(len(card.capabilities)),
    ]
    parts.extend(enc_str(c) for c in card.capabilities)
    parts.append(enc_str(card.endpoint_url))
    parts.append(_encode_embedding_quantized(card.embedding))
    parts.append(enc_u32(len(card.credentials)))
    parts.extend(c.canonical_bytes() for c in card.credentials)
    parts.append(enc_u64(card.usage_count))
    parts.append(enc_u64(card.last_active))
    parts.append(enc_u64(card.version))
    return b"".join(parts)


def card_digest(card: AgentFactCard) -> bytes:
    """32-byte content digest, stable across platforms (embedding quantized)."""
    return sha256(_DIGEST_DOMAIN + _digest_body(card))


def load_cards(path: str | Path) -> list[AgentFactCard]:
    """Read a JSON Lines card corpus; a card that fails a check is refused as
    it is read, with its line number."""
    return load_jsonl(path, AgentFactCard.from_json_obj)

