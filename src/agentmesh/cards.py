"""Semantic agent cards: capability descriptions, embeddings, credentials,
and usage history, with a canonical encoding and a content digest.

The exact canonical encoding round-trips losslessly (raw IEEE-754 doubles for
the embedding). The digest encoding quantizes embedding coordinates to a 1e-9
grid first so digests are reproducible across platforms.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .identity import AgentDid, Attestation, AttestationCheck, KeyResolver, sha256, verify_attestation
from .wire import (
    Reader,
    enc_f64,
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
    json_float,
    json_list,
    json_object,
    json_str,
    json_u64,
)

__all__ = [
    "EMBED_DIM",
    "NORM_TOL",
    "MAX_DISPLAY_NAME_BYTES",
    "AgentFactCard",
    "CardViolation",
    "EncodingRefused",
    "validate_card",
    "structural_violations",
    "canonical_encode",
    "decode_card",
    "card_digest",
    "load_cards",
    "write_cards",
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
    """Card failed structural validation; refusing to encode it."""


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

    def bump(self, **changes) -> "AgentFactCard":
        """Copy with changes and the version advanced."""
        return replace(self, version=self.version + 1, **changes)

    def to_json_obj(self) -> dict:
        return {
            "did": str(self.did),
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
            json_str(obj[name], f"card field {name!r}")
            for name in ("did", "display_name", "description", "endpoint_url")
        )
        capabilities = json_list(obj["capabilities"], "card field 'capabilities'")
        embedding = obj.get("embedding")
        if embedding is not None:
            embedding = tuple(
                json_float(x, "card embedding entry") for x in json_list(embedding, "card field 'embedding'")
            )
        return cls(
            did=AgentDid.parse(did),
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


def structural_violations(card: AgentFactCard) -> list[CardViolation]:
    """Invariant checks that need no key resolver."""
    out: list[CardViolation] = []
    if not card.capabilities:
        out.append(CardViolation.NO_CAPABILITIES)
    elif any(not c for c in card.capabilities):
        out.append(CardViolation.EMPTY_CAPABILITY)
    if len(card.display_name.encode("utf-8")) > MAX_DISPLAY_NAME_BYTES:
        out.append(CardViolation.DISPLAY_NAME_TOO_LONG)
    if card.embedding is not None:
        if len(card.embedding) != EMBED_DIM:
            out.append(CardViolation.EMBEDDING_WRONG_LENGTH)
        elif any(not math.isfinite(x) for x in card.embedding):
            out.append(CardViolation.EMBEDDING_NOT_FINITE)
        else:
            norm = math.sqrt(math.fsum(x * x for x in card.embedding))
            if abs(norm - 1.0) > NORM_TOL:
                out.append(CardViolation.EMBEDDING_NOT_UNIT)
    return out


def validate_card(card: AgentFactCard, resolver: KeyResolver | None = None) -> list[CardViolation]:
    """Full validation; credentials are checked against the resolver (an
    absent resolver resolves nothing, so cards with credentials fail)."""
    out = structural_violations(card)
    lookup: KeyResolver = resolver if resolver is not None else {}
    for cred in card.credentials:
        if verify_attestation(cred, lookup) is not AttestationCheck.VALID:
            out.append(CardViolation.BAD_CREDENTIAL)
            break
    return out


def _encode_embedding_exact(embedding: tuple[float, ...] | None) -> bytes:
    if embedding is None:
        return enc_u8(0)
    return enc_u8(1) + b"".join(enc_f64(x) for x in embedding)


def _encode_embedding_quantized(embedding: tuple[float, ...] | None) -> bytes:
    if embedding is None:
        return enc_u8(0)
    parts = [enc_u8(1)]
    for x in embedding:
        q = round(x * _QUANT)
        parts.append(q.to_bytes(8, "big", signed=True))
    return b"".join(parts)


def _encode_body(card: AgentFactCard, embedding_bytes: bytes) -> bytes:
    parts = [
        enc_str(str(card.did)),
        enc_str(card.display_name),
        enc_str(card.description),
        enc_u32(len(card.capabilities)),
    ]
    parts.extend(enc_str(c) for c in card.capabilities)
    parts.append(enc_str(card.endpoint_url))
    parts.append(embedding_bytes)
    parts.append(enc_u32(len(card.credentials)))
    parts.extend(c.canonical_bytes() for c in card.credentials)
    parts.append(enc_u64(card.usage_count))
    parts.append(enc_u64(card.last_active))
    parts.append(enc_u64(card.version))
    return b"".join(parts)


def canonical_encode(card: AgentFactCard) -> bytes:
    violations = structural_violations(card)
    if violations:
        raise EncodingRefused(", ".join(v.value for v in violations))
    return _encode_body(card, _encode_embedding_exact(card.embedding))


def decode_card(data: bytes) -> AgentFactCard:
    r = Reader(data)
    did = AgentDid.parse(r.str_())
    display_name = r.str_()
    description = r.str_()
    capabilities = tuple(r.str_() for _ in range(r.u32()))
    endpoint_url = r.str_()
    embedding: tuple[float, ...] | None = None
    if r.u8():
        embedding = tuple(r.f64() for _ in range(EMBED_DIM))
    credentials = tuple(Attestation._read(r) for _ in range(r.u32()))
    usage_count = r.u64()
    last_active = r.u64()
    version = r.u64()
    r.expect_end()
    return AgentFactCard(
        did=did,
        display_name=display_name,
        description=description,
        capabilities=capabilities,
        endpoint_url=endpoint_url,
        embedding=embedding,
        credentials=credentials,
        usage_count=usage_count,
        last_active=last_active,
        version=version,
    )


def card_digest(card: AgentFactCard) -> bytes:
    """32-byte content digest, stable across platforms (embedding quantized)."""
    violations = structural_violations(card)
    if violations:
        raise EncodingRefused(", ".join(v.value for v in violations))
    return sha256(_DIGEST_DOMAIN + _encode_body(card, _encode_embedding_quantized(card.embedding)))


def load_cards(path: str | Path) -> list[AgentFactCard]:
    """Read a JSON Lines card corpus."""
    cards = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                cards.append(AgentFactCard.from_json_obj(json.loads(line)))
    return cards


def write_cards(path: str | Path, cards: list[AgentFactCard]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for card in cards:
            fh.write(json.dumps(card.to_json_obj(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")
