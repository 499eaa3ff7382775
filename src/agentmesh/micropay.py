"""Header-embedded micropayments: invoices, delegated ephemeral payer keys,
a strict header grammar, and atomic idempotent settlement against a
conservation-checked ledger. The ledger keeps each settlement once, as its
receipt: a settle is O(1) in ledger length, and `Ledger.canonical_bytes()`
commits to the balances and to a running SHA-256 of the receipts.

Header line (fixed field order, single ';' separators, no extra whitespace;
every field must match its grammar in full):

    X-Payment: v1;inv=<32hex>;payer=<did>;eph=<64hex>;nonce=<32hex>;
               amt=<decimal u64>;deleg=<160hex>;sig=<128hex>

`eph` and `deleg` carry one `Delegation`: `eph` is its ephemeral public key,
and `deleg` is the owner's 64-byte signature over `Delegation.message()`
(ephemeral public key || issued_at || expires_at) followed by the two u64
window bounds, hex-encoded (128 + 16 + 16 hex chars). `sig` is the ephemeral
key's signature over the canonical payment bytes (invoice_id, payer, payee,
amount, expires_at, nonce). The payee and the expiry are not in the line: the
ledger takes them from the invoice it settles against, so the signature
fails if that invoice was re-addressed or re-dated. Amounts are integer
micro-units; no fractional currency anywhere.
"""

from __future__ import annotations

import enum
import hashlib
import random
import re
from dataclasses import dataclass, replace

from .identity import (
    AgentDid,
    KeyPair,
    KeyResolver,
    derive_did,
    generate_keypair,
    sign,
    verify,
)
from .wire import enc_str, enc_u64

__all__ = [
    "Invoice",
    "Delegation",
    "EphemeralKey",
    "PaymentHeader",
    "Receipt",
    "Ledger",
    "HeaderParseError",
    "SettleError",
    "SettleReason",
    "MicropayError",
    "HEADER_PREFIX",
    "HEADER_VERSION",
    "create_invoice",
    "make_ephemeral",
    "build_payment_header",
    "parse_payment_header",
]

HEADER_PREFIX = "X-Payment: "
HEADER_VERSION = "v1"
MAX_U64 = 2**64 - 1

# The header grammar after the version: each field in order, with its exact
# length in lowercase hex, or None for the DID (`payer`) and the decimal u64
# (`amt`). Both `PaymentHeader.render` and `parse_payment_header` read it.
_FIELDS = {"inv": 32, "payer": None, "eph": 64, "nonce": 32, "amt": None, "deleg": 160, "sig": 128}
_HEX_RE = re.compile(r"[0-9a-f]*")
_AMT_RE = re.compile(r"0|[1-9][0-9]*")


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
class Delegation:
    """The owner's grant to an ephemeral key: the key, its validity window
    and the owner's signature over `message()`. A proxy signature in the
    manner of Mambo, Usuda and Okamoto (CCS 1996): the owner signs (key,
    window) once, and the key then signs each payment."""

    ephemeral_pub: bytes
    issued_at: int
    expires_at: int
    signature: bytes

    def message(self) -> bytes:
        return self.ephemeral_pub + enc_u64(self.issued_at) + enc_u64(self.expires_at)

    def in_window(self, now: int) -> bool:
        return self.issued_at <= now <= self.expires_at


@dataclass(frozen=True)
class EphemeralKey:
    keypair: KeyPair
    owner: AgentDid
    delegation: Delegation


def make_ephemeral(owner: KeyPair, ephemeral_seed: bytes, issued_at: int, expires_at: int) -> EphemeralKey:
    """Derive a short-lived payment key and sign its delegation with the
    owner key."""
    if not (0 <= issued_at <= MAX_U64 and 0 <= expires_at <= MAX_U64):
        raise MicropayError("validity window bounds must lie in [0, 2**64)")
    if issued_at > expires_at:
        raise MicropayError("empty validity window")
    keypair = generate_keypair(ephemeral_seed)
    unsigned = Delegation(keypair.public_key, issued_at, expires_at, b"")
    delegation = replace(unsigned, signature=sign(owner.secret_key, unsigned.message()))
    return EphemeralKey(keypair=keypair, owner=derive_did(owner.public_key), delegation=delegation)


def _payment_signing_bytes(invoice: Invoice, payer: AgentDid, nonce: bytes) -> bytes:
    """What the payer's ephemeral key signs: the invoice's id, payee and
    expiry as well as the payment, so a header settles only the invoice it
    was made for, not a copy re-addressed or re-dated by the caller."""
    return (
        invoice.invoice_id
        + enc_str(payer)
        + enc_str(invoice.payee)
        + enc_u64(invoice.amount)
        + enc_u64(invoice.expires_at)
        + nonce
    )


@dataclass(frozen=True)
class PaymentHeader:
    invoice_id: bytes
    payer: AgentDid
    nonce: bytes
    amount: int
    delegation: Delegation
    signature: bytes

    def render(self) -> str:
        delegation = self.delegation
        values = {
            "inv": self.invoice_id.hex(),
            "payer": self.payer,
            "eph": delegation.ephemeral_pub.hex(),
            "nonce": self.nonce.hex(),
            "amt": str(self.amount),
            "deleg": (delegation.signature + enc_u64(delegation.issued_at) + enc_u64(delegation.expires_at)).hex(),
            "sig": self.signature.hex(),
        }
        return HEADER_PREFIX + ";".join([HEADER_VERSION] + [f"{name}={values[name]}" for name in _FIELDS])


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
    if not ephemeral.delegation.in_window(now):
        raise MicropayError("ephemeral key outside its validity window")
    payer = derive_did(payer_owner.public_key)
    if ephemeral.owner != payer:
        raise MicropayError("ephemeral key not delegated by this payer")
    signature = sign(
        ephemeral.keypair.secret_key,
        _payment_signing_bytes(invoice, payer, nonce),
    )
    return PaymentHeader(invoice.invoice_id, payer, nonce, invoice.amount, ephemeral.delegation, signature).render()


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
    tokens: list[tuple[int, str]] = []
    cursor = len(HEADER_PREFIX)
    for token in text[cursor:].split(";"):
        tokens.append((cursor, token))
        cursor += len(token) + 1

    pos, version = tokens[0]
    if version != HEADER_VERSION:
        raise HeaderParseError(pos, "UnsupportedVersion")

    fields = list(_FIELDS)
    values: dict[str, AgentDid | int | bytes] = {}
    rest = tokens[1:]
    for idx, expected in enumerate(fields):
        if idx >= len(rest):
            raise HeaderParseError(len(text), "MissingField")
        pos, token = rest[idx]
        eq = token.find("=")
        if eq <= 0:
            raise HeaderParseError(pos, "MalformedField")
        key, value = token[:eq], token[eq + 1 :]
        if key != expected:
            if key in fields[:idx]:
                raise HeaderParseError(pos, "DuplicateField")
            if key in _FIELDS:
                raise HeaderParseError(pos, "MissingField")
            raise HeaderParseError(pos, "UnknownField")
        values[expected] = _check_value(expected, value, pos + eq + 1)
    if len(rest) > len(fields):
        raise HeaderParseError(rest[len(fields)][0], "TrailingData")

    deleg = values["deleg"]
    issued_at, expires_at = int.from_bytes(deleg[64:72], "big"), int.from_bytes(deleg[72:80], "big")
    delegation = Delegation(values["eph"], issued_at, expires_at, deleg[:64])
    return PaymentHeader(values["inv"], values["payer"], values["nonce"], values["amt"], delegation, values["sig"])


def _check_value(key: str, value: str, position: int) -> AgentDid | int | bytes:
    """The field's value, checked against its grammar: the payer's
    `AgentDid`, the amount's `int`, or the bytes of a hex field."""
    if key == "payer":
        try:
            return AgentDid(value)
        except ValueError:
            raise HeaderParseError(position, "BadDid") from None
    if key == "amt":
        if not _AMT_RE.fullmatch(value) or (amount := int(value)) > MAX_U64:
            raise HeaderParseError(position, "BadInteger")
        return amount
    if len(value) != _FIELDS[key]:
        raise HeaderParseError(position, "BadFieldLength")
    if not _HEX_RE.fullmatch(value):
        raise HeaderParseError(position, "BadHex")
    return bytes.fromhex(value)


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
    ALREADY_PAID = "AlreadyPaid"
    INSUFFICIENT_FUNDS = "InsufficientFunds"
    BALANCE_OVERFLOW = "BalanceOverflow"


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
            "payer": self.payer,
            "payee": self.payee,
            "amount": self.amount,
            "nonce": self.nonce.hex(),
            "settled_at": self.settled_at,
        }

    def canonical_bytes(self) -> bytes:
        return (
            self.invoice_id
            + enc_str(self.payer)
            + enc_str(self.payee)
            + enc_u64(self.amount)
            + self.nonce
            + enc_u64(self.settled_at)
        )


class Ledger:
    """Single-writer balance store whose record is its receipts. A settlement
    either applies completely (debit, credit, receipt appended) or leaves the
    ledger byte-identical. Replays are found in a set of the receipts'
    (payer, nonce) pairs, and a second payment of an invoice in a set of
    their invoice ids, so a settle is O(1) in ledger length.
    `canonical_bytes()` is the balances sorted by DID, then the SHA-256 of
    every receipt's canonical bytes in settlement order, kept as a running
    hash in the manner of a tamper-evident log; it costs O(balances)."""

    def __init__(self, balances: dict[str, int] | None = None) -> None:
        self.balances: dict[str, int] = dict(balances or {})
        for did, amount in self.balances.items():
            if amount < 0:
                raise MicropayError(f"negative opening balance for {did}")
            if amount > MAX_U64:
                raise MicropayError(f"opening balance for {did} exceeds u64")
        self.receipts: list[Receipt] = []
        self._spent: set[tuple[str, bytes]] = set()
        self._paid: set[bytes] = set()
        self._receipts_digest = hashlib.sha256()

    def credit(self, did: str, amount: int) -> None:
        if amount < 0:
            raise MicropayError("credit must be nonnegative")
        if self.balances.get(did, 0) + amount > MAX_U64:
            raise MicropayError(f"credit would take the balance of {did} past u64")
        self.balances[did] = self.balances.get(did, 0) + amount

    def balance(self, did: str) -> int:
        return self.balances.get(did, 0)

    def total(self) -> int:
        return sum(self.balances.values())

    def canonical_bytes(self) -> bytes:
        balances = b"".join(enc_str(did) + enc_u64(self.balances[did]) for did in sorted(self.balances))
        return balances + self._receipts_digest.digest()

    def settle(self, header: PaymentHeader, invoice: Invoice, resolver: KeyResolver, now: int) -> Receipt:
        """All checks run before any mutation; every error path leaves the
        ledger untouched. A replay is rejected by (payer, nonce), and any
        other second payment of an invoice by its id."""
        if header.invoice_id != invoice.invoice_id:
            raise SettleError(SettleReason.UNKNOWN_INVOICE)
        if header.amount != invoice.amount:
            raise SettleError(SettleReason.AMOUNT_MISMATCH)
        if now > invoice.expires_at:
            raise SettleError(SettleReason.EXPIRED)

        delegation = header.delegation
        owner_key = resolver.get(header.payer)
        if owner_key is None or derive_did(owner_key) != header.payer:
            raise SettleError(SettleReason.BAD_DELEGATION)
        if not delegation.in_window(now):
            raise SettleError(SettleReason.BAD_DELEGATION)
        if not verify(owner_key, delegation.message(), delegation.signature):
            raise SettleError(SettleReason.BAD_DELEGATION)

        payment_msg = _payment_signing_bytes(invoice, header.payer, header.nonce)
        if not verify(delegation.ephemeral_pub, payment_msg, header.signature):
            raise SettleError(SettleReason.BAD_SIGNATURE)

        payer, payee = header.payer, invoice.payee
        spent = (payer, header.nonce)
        if spent in self._spent:
            raise SettleError(SettleReason.DUPLICATE_NONCE)
        if invoice.invoice_id in self._paid:
            raise SettleError(SettleReason.ALREADY_PAID)
        if self.balances.get(payer, 0) < header.amount:
            raise SettleError(SettleReason.INSUFFICIENT_FUNDS)
        if payee != payer and self.balances.get(payee, 0) + header.amount > MAX_U64:
            raise SettleError(SettleReason.BALANCE_OVERFLOW)

        self.balances[payer] -= header.amount
        self.balances[payee] = self.balances.get(payee, 0) + header.amount
        receipt = Receipt(
            index=len(self.receipts),
            invoice_id=header.invoice_id,
            payer=payer,
            payee=payee,
            amount=header.amount,
            nonce=header.nonce,
            settled_at=now,
        )
        self.receipts.append(receipt)
        self._spent.add(spent)
        self._paid.add(invoice.invoice_id)
        self._receipts_digest.update(receipt.canonical_bytes())
        return receipt

    def export_json_obj(self) -> dict:
        return {
            "balances": {did: self.balances[did] for did in sorted(self.balances)},
            "receipts": [r.to_json_obj() for r in self.receipts],
        }
