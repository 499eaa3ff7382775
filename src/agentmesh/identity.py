"""Agent identity: deterministic Ed25519 keys, `did:nanda` identifiers, and
signed attestations.

Keys are a pure function of a 32-byte seed (the Ed25519 private key *is* its
seed under RFC 8032), signatures are deterministic, and the DID is the
SHA-256 digest of the public key. Everything downstream (registry records,
payment delegations, trust credentials) anchors on these primitives.

An issuer signs a claim on its own (an attestation, as a card carries a
credential) or seals a batch of its claims with one signature.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .wire import enc_bytes, enc_str, enc_u8, enc_u64, json_hex, json_object, json_str, json_u64

__all__ = [
    "SEED_LEN",
    "KEY_LEN",
    "SIG_LEN",
    "DIGEST_LEN",
    "DID_PREFIX",
    "KeyPair",
    "AgentDid",
    "ClaimType",
    "Claim",
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
    "seal_covers",
]

SEED_LEN = 32
KEY_LEN = 32
SIG_LEN = 64
DIGEST_LEN = 32

DID_PREFIX = "did:nanda:"
_DID = re.compile(re.escape(DID_PREFIX) + "[0-9a-f]{64}")

# DID string -> 32-byte public key; `.get` gives None for an unknown DID.
KeyResolver = Mapping[str, bytes]


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class MonotonicityViolation(ValueError):
    """An issuer attempted to reuse or rewind its logical timestamp."""


@dataclass(frozen=True)
class KeyPair:
    secret_key: bytes
    public_key: bytes


class AgentDid(str):
    """A `did:nanda:<64 lowercase hex>` identifier, held as its text. The
    text is checked here, once, with one `fullmatch`, so a trailing newline
    is refused too. A DID equals, hashes and encodes as its text, so a map
    keyed by DIDs is found by text keys, and copies and pickles rebuild it
    through this check."""

    __slots__ = ()

    def __new__(cls, text: str) -> "AgentDid":
        if not _DID.fullmatch(text):
            raise ValueError(f"not a did:nanda identifier: {text!r}")
        return super().__new__(cls, text)


def _as_bytes(data: bytes) -> bytes:
    """Any bytes-like object as bytes, by its buffer (`data` itself if it is
    bytes). Anything else raises TypeError: `bytes(32)` would read an int as
    32 zero bytes, and the all-zero key and signature verify about one
    message in four."""
    return b"".join((data,))


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed. Same seed, same keys."""
    seed = _as_bytes(seed)
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    public = _private_key(seed).public_key().public_bytes_raw()
    return KeyPair(secret_key=seed, public_key=public)


def derive_did(public_key: bytes) -> AgentDid:
    if len(public_key) != KEY_LEN:
        raise ValueError("public key must be 32 bytes")
    return AgentDid(DID_PREFIX + sha256(public_key).hex())


# Parsing a private key costs about as much as one signature, so each key is
# parsed once, by generate_keypair or by its first sign; a public key parses in
# about 1 µs and is not kept, because `verify` keeps whole checks instead (see
# `_verified`). Bounded, because ephemeral keys keep coming:
# a marketplace payer signs with its owner key and with one delegated key per
# six-round window, about two live keys per agent, so past about 512 agents
# the live keys outnumber the 1,024 entries, evict each other and are parsed
# again.
_private_key = functools.lru_cache(maxsize=1024)(Ed25519PrivateKey.from_private_bytes)


def sign(secret_key: bytes, message: bytes) -> bytes:
    secret_key = _as_bytes(secret_key)
    if len(secret_key) != KEY_LEN:
        raise ValueError("secret key must be 32 bytes")
    return _private_key(secret_key).sign(message)


# Each (public key, message, signature) triple that has verified, evicting the
# least recently used. An Ed25519 check costs over 100 µs, and the same triple
# comes back: a marketplace settle re-checks the owner's signature on its
# delegation for every payment in the delegation's window. A failed check
# raises, and `lru_cache` keeps no call that raised, so forged input cannot
# fill the cache, and an answer never depends on what it holds. The delegation
# of a window comes back after about one round of checks, about 4 per agent,
# so 1,024 entries (about 550 KB with 200-byte messages) keep the hits up to
# about 256 agents.
@functools.lru_cache(maxsize=1024)
def _verified(public_key: bytes, message: bytes, signature: bytes) -> bool:
    Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    return True


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff the signature checks. Each argument may be any bytes-like
    object (see `_as_bytes`); malformed bytes yield False, never raise. A
    triple that has verified before in this process is answered without a
    second Ed25519 check (see `_verified`)."""
    public_key, message, signature = _as_bytes(public_key), _as_bytes(message), _as_bytes(signature)
    if len(public_key) != KEY_LEN or len(signature) != SIG_LEN:
        return False
    try:
        return _verified(public_key, message, signature)
    except (InvalidSignature, ValueError):
        return False


class ClaimType(enum.IntEnum):
    TASK_COMPLETED = 0
    PAYMENT_SETTLED = 1
    SLA_MET = 2
    POLICY_PASS = 3
    # An issuer's one signature over a batch of its claims (see
    # `AttestationIssuer.seal`); its subject is the issuer itself.
    ROUND_SEAL = 4


# A claim type as credentials write it: its member's name in lowercase.
_CLAIM_TYPES = {claim.name.lower(): claim for claim in ClaimType}


class AttestationCheck(enum.Enum):
    VALID = "Valid"
    UNKNOWN_ISSUER = "UnknownIssuer"
    INVALID_SIGNATURE = "InvalidSignature"


@dataclass(frozen=True)
class Claim:
    """What one agent states about another, unsigned: the five fields an
    attestation signs. Its payload digest is checked when it is built, so
    every claim has signing bytes."""

    issuer: AgentDid
    subject: AgentDid
    claim_type: ClaimType
    payload_digest: bytes
    issued_at: int

    def __post_init__(self) -> None:
        if len(self.payload_digest) != DIGEST_LEN:
            raise ValueError(f"payload digest must be {DIGEST_LEN} bytes, got {len(self.payload_digest)}")

    def signing_bytes(self) -> bytes:
        return (
            enc_str(self.issuer)
            + enc_str(self.subject)
            + enc_u8(int(self.claim_type))
            + self.payload_digest
            + enc_u64(self.issued_at)
        )


@dataclass(frozen=True)
class Attestation(Claim):
    """A claim with its issuer's signature over its signing bytes."""

    signature: bytes

    def canonical_bytes(self) -> bytes:
        return self.signing_bytes() + self.signature

    def to_json_obj(self) -> dict:
        return {
            "issuer": self.issuer,
            "subject": self.subject,
            "claim_type": self.claim_type.name.lower(),
            "payload_digest": self.payload_digest.hex(),
            "issued_at": self.issued_at,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Attestation":
        obj = json_object(obj, "credential")
        issuer, subject, claim = (
            json_str(obj.get(name), f"credential field {name!r}") for name in ("issuer", "subject", "claim_type")
        )
        if claim not in _CLAIM_TYPES:
            raise ValueError(f"credential field 'claim_type' is not a claim type: {claim!r}")
        return cls(
            issuer=AgentDid(issuer),
            subject=AgentDid(subject),
            claim_type=_CLAIM_TYPES[claim],
            # Its length is checked by __post_init__, as for every attestation.
            payload_digest=json_hex(obj.get("payload_digest"), "credential field 'payload_digest'"),
            issued_at=json_u64(obj.get("issued_at"), "credential field 'issued_at'"),
            signature=json_hex(obj.get("signature"), "credential field 'signature'", SIG_LEN),
        )


# Domain tag of a seal's payload digest; registry and cards use 0x01-0x03.
_SEAL_DOMAIN = b"\x04"


def _seal_digest(claims: Iterable[Claim]) -> bytes:
    """SHA-256 of the domain tag and each claim's length-prefixed signing
    bytes, in the order given."""
    return sha256(_SEAL_DOMAIN + b"".join(enc_bytes(claim.signing_bytes()) for claim in claims))


class AttestationIssuer:
    """Signing context for one issuer; enforces a strictly increasing
    issued_at across every claim, attestation and seal it makes."""

    def __init__(self, keypair: KeyPair) -> None:
        self.keypair = keypair
        self.did = derive_did(keypair.public_key)
        self._last_issued_at: int | None = None

    def claim(
        self,
        subject: AgentDid,
        claim_type: ClaimType,
        payload_digest: bytes,
        issued_at: int,
    ) -> Claim:
        """An unsigned claim at the next logical time, to be sealed later."""
        if self._last_issued_at is not None and issued_at <= self._last_issued_at:
            raise MonotonicityViolation(
                f"issued_at {issued_at} not greater than {self._last_issued_at}"
            )
        claim = Claim(self.did, subject, claim_type, payload_digest, issued_at)
        self._last_issued_at = issued_at
        return claim

    def issue(
        self,
        subject: AgentDid,
        claim_type: ClaimType,
        payload_digest: bytes,
        issued_at: int,
    ) -> Attestation:
        """A claim signed on its own, as a card carries a credential."""
        claim = self.claim(subject, claim_type, payload_digest, issued_at)
        signature = sign(self.keypair.secret_key, claim.signing_bytes())
        return Attestation(self.did, subject, claim_type, payload_digest, issued_at, signature)

    def seal(self, claims: Sequence[Claim], issued_at: int) -> Attestation:
        """One signature over a batch of this issuer's claims, in issue order:
        a `ROUND_SEAL` attestation about the issuer whose payload digest
        covers each claim's signing bytes (see `seal_covers`). A claim of
        another issuer is refused with ValueError."""
        if any(claim.issuer != self.did for claim in claims):
            raise ValueError("an issuer seals only its own claims")
        return self.issue(self.did, ClaimType.ROUND_SEAL, _seal_digest(claims), issued_at)


def verify_attestation(att: Attestation, resolver: KeyResolver) -> AttestationCheck:
    public_key = resolver.get(att.issuer)
    if public_key is None:
        return AttestationCheck.UNKNOWN_ISSUER
    if not verify(public_key, att.signing_bytes(), att.signature):
        return AttestationCheck.INVALID_SIGNATURE
    return AttestationCheck.VALID


def seal_covers(seal: Attestation, claims: Sequence[Claim]) -> bool:
    """Whether `seal` is its issuer's seal over exactly `claims`, in order,
    each of them that issuer's. This checks no signature: a caller that gets
    True checks the seal's once, with `verify_attestation`, and then holds
    every claim as signed."""
    return (
        seal.claim_type is ClaimType.ROUND_SEAL
        and seal.subject == seal.issuer
        and all(claim.issuer == seal.issuer for claim in claims)
        and seal.payload_digest == _seal_digest(claims)
    )
