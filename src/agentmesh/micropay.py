"""Header-embedded micropayments: invoices, delegated ephemeral payer keys,
a strict header grammar, and atomic idempotent settlement against a
conservation-checked ledger.

Header line (fixed field order, single ';' separators, no extra whitespace):

    X-Payment: v1;inv=<32hex>;payer=<did>;eph=<64hex>;nonce=<32hex>;
               amt=<decimal u64>;deleg=<160hex>;sig=<128hex>

`deleg` is the owner's 64-byte delegation signature over
(ephemeral public key || issued_at || expires_at) followed by the two u64
window bounds, hex-encoded (128 + 16 + 16 hex chars). `sig` is the ephemeral
key's signature over the canonical payment bytes (invoice_id, payer, amount,
nonce). Amounts are integer micro-units; no fractional currency anywhere.
"""

from __future__ import annotations

import enum
import random
import re
from bisect import insort
from dataclasses import dataclass

from .identity import (
    AgentDid,
    KeyPair,
    KeyResolver,
    derive_did,
    sign,
    verify,
)
from .wire import enc_str, enc_u64

__all__ = [
    "Invoice",
    "EphemeralKey",
    "PaymentHeader",
    "Receipt",
    "Ledger",
    "HeaderParseError",
    "SettleError",
    "SettleReason",
    "MicropayError",
    "HEADER_PREFIX",
    "create_invoice",
    "make_ephemeral",
    "build_payment_header",
    "parse_payment_header",
]

HEADER_PREFIX = "X-Payment: "
MAX_U64 = 2**64 - 1

_HEX_RE = re.compile(r"^[0-9a-f]*$")
_AMT_RE = re.compile(r"^(0|[1-9][0-9]*)$")
_FIELD_ORDER = ("inv", "payer", "eph", "nonce", "amt", "deleg", "sig")
_HEX_LENGTHS = {"inv": 32, "eph": 64, "nonce": 32, "deleg": 160, "sig": 128}


class MicropayError(ValueError):
    pass


@dataclass(frozen=True)
class Invoice:
    invoice_id: bytes
    payee: AgentDid
    amount: int
    task_id: str
    expires_at: int


def create_invoice(payee: AgentDid, amount: int, task_id: str, expires_at: int, rng: random.Random) -> Invoice:
    if amount <= 0:
        raise MicropayError("invoice amount must be positive")
    if amount > MAX_U64:
        raise MicropayError("invoice amount exceeds u64")
    return Invoice(
        invoice_id=rng.randbytes(16),
        payee=payee,
        amount=amount,
        task_id=task_id,
        expires_at=expires_at,
    )


@dataclass(frozen=True)
class EphemeralKey:
    keypair: KeyPair
    owner: AgentDid
    issued_at: int
    expires_at: int
    delegation_sig: bytes

    def in_window(self, now: int) -> bool:
        return self.issued_at <= now <= self.expires_at


def _delegation_message(ephemeral_pub: bytes, issued_at: int, expires_at: int) -> bytes:
    return ephemeral_pub + enc_u64(issued_at) + enc_u64(expires_at)


def make_ephemeral(owner: KeyPair, ephemeral_seed: bytes, issued_at: int, expires_at: int) -> EphemeralKey:
    """Derive a short-lived payment key and sign its delegation with the
    owner key."""
    from .identity import generate_keypair

    if issued_at > expires_at:
        raise MicropayError("empty validity window")
    keypair = generate_keypair(ephemeral_seed)
    delegation = sign(owner.secret_key, _delegation_message(keypair.public_key, issued_at, expires_at))
    return EphemeralKey(
        keypair=keypair,
        owner=derive_did(owner.public_key),
        issued_at=issued_at,
        expires_at=expires_at,
        delegation_sig=delegation,
    )


def _payment_signing_bytes(invoice_id: bytes, payer: AgentDid, amount: int, nonce: bytes) -> bytes:
    return invoice_id + enc_str(str(payer)) + enc_u64(amount) + nonce


@dataclass(frozen=True)
class PaymentHeader:
    version: str
    invoice_id: bytes
    payer: AgentDid
    ephemeral_pub: bytes
    nonce: bytes
    amount: int
    delegation_sig: bytes
    delegation_issued_at: int
    delegation_expires_at: int
    signature: bytes

    def render(self) -> str:
        deleg = (
            self.delegation_sig.hex()
            + enc_u64(self.delegation_issued_at).hex()
            + enc_u64(self.delegation_expires_at).hex()
        )
        return (
            f"{HEADER_PREFIX}{self.version}"
            f";inv={self.invoice_id.hex()}"
            f";payer={self.payer}"
            f";eph={self.ephemeral_pub.hex()}"
            f";nonce={self.nonce.hex()}"
            f";amt={self.amount}"
            f";deleg={deleg}"
            f";sig={self.signature.hex()}"
        )


def build_payment_header(
    invoice: Invoice,
    payer_owner: KeyPair,
    ephemeral: EphemeralKey,
    nonce: bytes,
    now: int,
) -> str:
    """Authorize payment of an invoice with a delegated ephemeral key. The
    produced line carries no secret material."""
    if len(nonce) != 16:
        raise MicropayError("nonce must be 16 bytes")
    if not ephemeral.in_window(now):
        raise MicropayError("ephemeral key outside its validity window")
    payer = derive_did(payer_owner.public_key)
    if ephemeral.owner != payer:
        raise MicropayError("ephemeral key not delegated by this payer")
    signature = sign(
        ephemeral.keypair.secret_key,
        _payment_signing_bytes(invoice.invoice_id, payer, invoice.amount, nonce),
    )
    header = PaymentHeader(
        version="v1",
        invoice_id=invoice.invoice_id,
        payer=payer,
        ephemeral_pub=ephemeral.keypair.public_key,
        nonce=nonce,
        amount=invoice.amount,
        delegation_sig=ephemeral.delegation_sig,
        delegation_issued_at=ephemeral.issued_at,
        delegation_expires_at=ephemeral.expires_at,
        signature=signature,
    )
    return header.render()


class HeaderParseError(ValueError):
    """Strict-grammar rejection; carries the offending position and reason."""

    def __init__(self, position: int, reason: str) -> None:
        super().__init__(f"{reason} at position {position}")
        self.position = position
        self.reason = reason


def parse_payment_header(text: str) -> PaymentHeader:
    if not isinstance(text, str):
        raise HeaderParseError(0, "NotText")
    if not text.startswith(HEADER_PREFIX):
        raise HeaderParseError(0, "BadPrefix")
    body = text[len(HEADER_PREFIX) :]
    offset = len(HEADER_PREFIX)
    tokens: list[tuple[int, str]] = []
    cursor = offset
    for token in body.split(";"):
        tokens.append((cursor, token))
        cursor += len(token) + 1
    if not tokens:
        raise HeaderParseError(offset, "MissingField")

    pos, version = tokens[0]
    if version != "v1":
        raise HeaderParseError(pos, "UnsupportedVersion")

    values: dict[str, str] = {}
    consumed: set[str] = set()
    rest = tokens[1:]
    for idx, expected in enumerate(_FIELD_ORDER):
        if idx >= len(rest):
            raise HeaderParseError(len(text), "MissingField")
        pos, token = rest[idx]
        eq = token.find("=")
        if eq <= 0:
            raise HeaderParseError(pos, "MalformedField")
        key, value = token[:eq], token[eq + 1 :]
        if key != expected:
            if key in consumed:
                raise HeaderParseError(pos, "DuplicateField")
            if key in _FIELD_ORDER:
                raise HeaderParseError(pos, "MissingField")
            raise HeaderParseError(pos, "UnknownField")
        _check_value(expected, value, pos + eq + 1)
        values[expected] = value
        consumed.add(expected)
    if len(rest) > len(_FIELD_ORDER):
        raise HeaderParseError(rest[len(_FIELD_ORDER)][0], "TrailingData")

    deleg = values["deleg"]
    return PaymentHeader(
        version="v1",
        invoice_id=bytes.fromhex(values["inv"]),
        payer=AgentDid.parse(values["payer"]),
        ephemeral_pub=bytes.fromhex(values["eph"]),
        nonce=bytes.fromhex(values["nonce"]),
        amount=int(values["amt"]),
        delegation_sig=bytes.fromhex(deleg[:128]),
        delegation_issued_at=int(deleg[128:144], 16),
        delegation_expires_at=int(deleg[144:160], 16),
        signature=bytes.fromhex(values["sig"]),
    )


def _check_value(key: str, value: str, position: int) -> None:
    if key == "payer":
        try:
            AgentDid.parse(value)
        except ValueError:
            raise HeaderParseError(position, "BadDid") from None
        return
    if key == "amt":
        if not _AMT_RE.match(value):
            raise HeaderParseError(position, "BadInteger")
        if int(value) > MAX_U64:
            raise HeaderParseError(position, "BadInteger")
        return
    expected_len = _HEX_LENGTHS[key]
    if len(value) != expected_len:
        raise HeaderParseError(position, "BadFieldLength")
    if not _HEX_RE.match(value):
        raise HeaderParseError(position, "BadHex")


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


class SettleReason(enum.Enum):
    UNKNOWN_INVOICE = "UnknownInvoice"
    AMOUNT_MISMATCH = "AmountMismatch"
    EXPIRED = "Expired"
    BAD_DELEGATION = "BadDelegation"
    BAD_SIGNATURE = "BadSignature"
    DUPLICATE_NONCE = "DuplicateNonce"
    INSUFFICIENT_FUNDS = "InsufficientFunds"


class SettleError(ValueError):
    def __init__(self, reason: SettleReason) -> None:
        super().__init__(reason.value)
        self.reason = reason


@dataclass(frozen=True)
class Receipt:
    index: int
    invoice_id: bytes
    payer: AgentDid
    payee: AgentDid
    amount: int
    nonce: bytes
    settled_at: int

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "invoice_id": self.invoice_id.hex(),
            "payer": str(self.payer),
            "payee": str(self.payee),
            "amount": self.amount,
            "nonce": self.nonce.hex(),
            "settled_at": self.settled_at,
        }


class Ledger:
    """Single-writer balance store. A settlement either applies completely
    (debit, credit, nonce recorded, receipt appended) or leaves the ledger
    byte-identical."""

    def __init__(self, balances: dict[str, int] | None = None) -> None:
        self.balances: dict[str, int] = dict(balances or {})
        for did, amount in self.balances.items():
            if amount < 0:
                raise MicropayError(f"negative opening balance for {did}")
        self.seen_nonces: set[tuple[str, bytes]] = set()
        self.receipts: list[Receipt] = []
        # Canonical encodings kept as settlements land. Every payer renders as
        # a fixed-length DID, so the nonce encodings sort as (payer, nonce) does.
        self._nonce_bytes: list[bytes] = []
        self._receipt_bytes: list[bytes] = []

    def credit(self, did: AgentDid | str, amount: int) -> None:
        if amount < 0:
            raise MicropayError("credit must be nonnegative")
        key = str(did)
        self.balances[key] = self.balances.get(key, 0) + amount

    def balance(self, did: AgentDid | str) -> int:
        return self.balances.get(str(did), 0)

    def total(self) -> int:
        return sum(self.balances.values())

    def canonical_bytes(self) -> bytes:
        balances = b"".join(enc_str(did) + enc_u64(self.balances[did]) for did in sorted(self.balances))
        return balances + b"".join(self._nonce_bytes) + b"".join(self._receipt_bytes)

    def settle(self, header: PaymentHeader, invoice: Invoice, resolver: KeyResolver, now: int) -> Receipt:
        """All checks run before any mutation; every error path leaves the
        ledger untouched and replays are rejected by (payer, nonce)."""
        if header.invoice_id != invoice.invoice_id:
            raise SettleError(SettleReason.UNKNOWN_INVOICE)
        if header.amount != invoice.amount:
            raise SettleError(SettleReason.AMOUNT_MISMATCH)
        if now > invoice.expires_at:
            raise SettleError(SettleReason.EXPIRED)

        owner_key = resolver.get(str(header.payer))
        if owner_key is None or derive_did(owner_key) != header.payer:
            raise SettleError(SettleReason.BAD_DELEGATION)
        if not (header.delegation_issued_at <= now <= header.delegation_expires_at):
            raise SettleError(SettleReason.BAD_DELEGATION)
        delegation_msg = _delegation_message(
            header.ephemeral_pub, header.delegation_issued_at, header.delegation_expires_at
        )
        if not verify(owner_key, delegation_msg, header.delegation_sig):
            raise SettleError(SettleReason.BAD_DELEGATION)

        payment_msg = _payment_signing_bytes(header.invoice_id, header.payer, header.amount, header.nonce)
        if not verify(header.ephemeral_pub, payment_msg, header.signature):
            raise SettleError(SettleReason.BAD_SIGNATURE)

        nonce_key = (str(header.payer), header.nonce)
        if nonce_key in self.seen_nonces:
            raise SettleError(SettleReason.DUPLICATE_NONCE)
        payer_key = str(header.payer)
        if self.balances.get(payer_key, 0) < header.amount:
            raise SettleError(SettleReason.INSUFFICIENT_FUNDS)

        payee_key = str(invoice.payee)
        self.balances[payer_key] -= header.amount
        self.balances[payee_key] = self.balances.get(payee_key, 0) + header.amount
        self.seen_nonces.add(nonce_key)
        insort(self._nonce_bytes, enc_str(payer_key) + header.nonce)
        receipt = Receipt(
            index=len(self.receipts),
            invoice_id=header.invoice_id,
            payer=header.payer,
            payee=invoice.payee,
            amount=header.amount,
            nonce=header.nonce,
            settled_at=now,
        )
        self.receipts.append(receipt)
        self._receipt_bytes.append(
            receipt.invoice_id
            + enc_str(payer_key)
            + enc_str(payee_key)
            + enc_u64(receipt.amount)
            + receipt.nonce
            + enc_u64(receipt.settled_at)
        )
        return receipt

    def export_json_obj(self) -> dict:
        return {
            "balances": {did: self.balances[did] for did in sorted(self.balances)},
            "receipts": [r.to_json_obj() for r in self.receipts],
        }
