"""Agent identity: deterministic Ed25519 keys, `did:nanda` identifiers, and
signed attestations.

Keys are a pure function of a 32-byte seed (the Ed25519 private key *is* its
seed under RFC 8032), signatures are deterministic, and the DID is the
SHA-256 digest of the public key. Everything downstream (registry records,
payment delegations, trust credentials) anchors on these primitives.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from typing import Mapping

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .wire import Reader, enc_str, enc_u8, enc_u64, json_object, json_str, json_u64

__all__ = [
    "SEED_LEN",
    "KEY_LEN",
    "SIG_LEN",
    "DIGEST_LEN",
    "DID_PREFIX",
    "KeyPair",
    "AgentDid",
    "ClaimType",
    "Attestation",
    "AttestationIssuer",
    "AttestationCheck",
    "MonotonicityViolation",
    "KeyResolver",
    "generate_keypair",
    "derive_did",
    "sign",
    "verify",
    "sha256",
    "verify_attestation",
]

SEED_LEN = 32
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

DID_PREFIX = "did:nanda:"
_DID_RE = re.compile(r"^did:nanda:[0-9a-f]{64}$")

# DID string -> 32-byte public key; `.get` gives None for an unknown DID.
KeyResolver = Mapping[str, bytes]


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class MonotonicityViolation(ValueError):
    """An issuer attempted to reuse or rewind its logical timestamp."""


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    secret_key: bytes
    public_key: bytes


@dataclass(frozen=True, order=True)
class AgentDid:
    """`did:nanda:<64 lowercase hex>` identifier."""

    id_hex: str

    def __post_init__(self) -> None:
        if len(self.id_hex) != 64 or not re.fullmatch(r"[0-9a-f]{64}", self.id_hex):
            raise ValueError(f"bad DID id: {self.id_hex!r}")

    @property
    def method(self) -> str:
        return "nanda"

    def __str__(self) -> str:
        return DID_PREFIX + self.id_hex

    @classmethod
    def parse(cls, text: str) -> "AgentDid":
        if not _DID_RE.match(text):
            raise ValueError(f"not a did:nanda identifier: {text!r}")
        return cls(text[len(DID_PREFIX) :])


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed. Same seed, same keys."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    public = priv.public_key().public_bytes_raw()
    return KeyPair(seed=seed, secret_key=seed, public_key=public)


def derive_did(public_key: bytes) -> AgentDid:
    if len(public_key) != KEY_LEN:
        raise ValueError("public key must be 32 bytes")
    return AgentDid(sha256(public_key).hex())


def sign(secret_key: bytes, message: bytes) -> bytes:
    if len(secret_key) != KEY_LEN:
        raise ValueError("secret key must be 32 bytes")
    return Ed25519PrivateKey.from_private_bytes(secret_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature checks. Malformed inputs yield False, never raise."""
    if len(public_key) != KEY_LEN or len(signature) != SIG_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


class ClaimType(enum.IntEnum):
    TASK_COMPLETED = 0
    PAYMENT_SETTLED = 1
    SLA_MET = 2
    POLICY_PASS = 3


class AttestationCheck(enum.Enum):
    VALID = "Valid"
    UNKNOWN_ISSUER = "UnknownIssuer"
    INVALID_SIGNATURE = "InvalidSignature"


@dataclass(frozen=True)
class Attestation:
    """A signed claim one agent makes about another."""

    issuer: AgentDid
    subject: AgentDid
    claim_type: ClaimType
    payload_digest: bytes
    issued_at: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        if len(self.payload_digest) != DIGEST_LEN:
            raise ValueError("payload digest must be 32 bytes")
        return (
            enc_str(str(self.issuer))
            + enc_str(str(self.subject))
            + enc_u8(int(self.claim_type))
            + self.payload_digest
            + enc_u64(self.issued_at)
        )

    def canonical_bytes(self) -> bytes:
        return self.signing_bytes() + self.signature

    def to_json_obj(self) -> dict:
        return {
            "issuer": str(self.issuer),
            "subject": str(self.subject),
            "claim_type": self.claim_type.name.lower(),
            "payload_digest": self.payload_digest.hex(),
            "issued_at": self.issued_at,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Attestation":
        obj = json_object(obj, "credential")
        issuer, subject, claim, payload_digest, signature = (
            json_str(obj[name], f"credential field {name!r}")
            for name in ("issuer", "subject", "claim_type", "payload_digest", "signature")
        )
        if claim.upper() not in ClaimType.__members__:
            raise ValueError(f"credential field 'claim_type' is not a claim type: {claim!r}")
        return cls(
            issuer=AgentDid.parse(issuer),
            subject=AgentDid.parse(subject),
            claim_type=ClaimType[claim.upper()],
            payload_digest=bytes.fromhex(payload_digest),
            issued_at=json_u64(obj["issued_at"], "credential field 'issued_at'"),
            signature=bytes.fromhex(signature),
        )

    @classmethod
    def decode(cls, data: bytes) -> "Attestation":
        r = Reader(data)
        att = cls._read(r)
        r.expect_end()
        return att

    @classmethod
    def _read(cls, r: Reader) -> "Attestation":
        issuer = AgentDid.parse(r.str_())
        subject = AgentDid.parse(r.str_())
        claim = ClaimType(r.u8())
        digest = r.take(DIGEST_LEN)
        issued_at = r.u64()
        signature = r.take(SIG_LEN)
        return cls(issuer, subject, claim, digest, issued_at, signature)


class AttestationIssuer:
    """Signing context for one issuer; enforces a strictly increasing
    issued_at across everything it signs."""

    def __init__(self, keypair: KeyPair) -> None:
        self.keypair = keypair
        self.did = derive_did(keypair.public_key)
        self._last_issued_at: int | None = None

    def issue(
        self,
        subject: AgentDid,
        claim_type: ClaimType,
        payload_digest: bytes,
        issued_at: int,
    ) -> Attestation:
        if self._last_issued_at is not None and issued_at <= self._last_issued_at:
            raise MonotonicityViolation(
                f"issued_at {issued_at} not greater than {self._last_issued_at}"
            )
        unsigned = Attestation(
            issuer=self.did,
            subject=subject,
            claim_type=claim_type,
            payload_digest=payload_digest,
            issued_at=issued_at,
            signature=b"\x00" * SIG_LEN,
        )
        signature = sign(self.keypair.secret_key, unsigned.signing_bytes())
        self._last_issued_at = issued_at
        return Attestation(
            issuer=self.did,
            subject=subject,
            claim_type=claim_type,
            payload_digest=payload_digest,
            issued_at=issued_at,
            signature=signature,
        )


def verify_attestation(att: Attestation, resolver: KeyResolver) -> AttestationCheck:
    public_key = resolver.get(str(att.issuer))
    if public_key is None:
        return AttestationCheck.UNKNOWN_ISSUER
    if not verify(public_key, att.signing_bytes(), att.signature):
        return AttestationCheck.INVALID_SIGNATURE
    return AttestationCheck.VALID
