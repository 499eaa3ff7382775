from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from agentmesh.identity import derive_did, generate_keypair, sha256
from agentmesh.micropay import (
    HEADER_PREFIX,
    HeaderParseError,
    Ledger,
    MicropayError,
    SettleError,
    SettleReason,
    build_payment_header,
    create_invoice,
    make_ephemeral,
    parse_payment_header,
)
from agentmesh.wire import enc_str, enc_u64


def _parties():
    payer_kp = generate_keypair(sha256(b"payer"))
    payee_kp = generate_keypair(sha256(b"payee"))
    payer = derive_did(payer_kp.public_key)
    payee = derive_did(payee_kp.public_key)
    resolver = {str(payer): payer_kp.public_key, str(payee): payee_kp.public_key}
    return payer_kp, payee_kp, payer, payee, resolver


def _setup(amount=40, balance=100, now=5):
    payer_kp, _payee_kp, payer, payee, resolver = _parties()
    rng = random.Random(0)
    invoice = create_invoice(payee, amount, "task-1", expires_at=now + 50, rng=rng)
    ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), now - 1, now + 50)
    line = build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now)
    ledger = Ledger({str(payer): balance})
    return ledger, parse_payment_header(line), invoice, resolver, payer, payee, line


# -- invoices ------------------------------------------------------------------


def test_invoice_basics():
    _payer_kp, _payee_kp, _payer, payee, _resolver = _parties()
    rng = random.Random(1)
    invoice = create_invoice(payee, 1, "t", 10, rng)
    assert invoice.amount == 1 and len(invoice.invoice_id) == 16
    with pytest.raises(MicropayError):
        create_invoice(payee, 0, "t", 10, rng)
    a = create_invoice(payee, 5, "t", 10, rng)
    b = create_invoice(payee, 5, "t", 10, rng)
    assert a.invoice_id != b.invoice_id  # the stream advances


# -- header build/parse ----------------------------------------------------------


def test_header_round_trip():
    _ledger, header, _invoice, _resolver, _payer, _payee, line = _setup()
    assert header.render() == line
    assert line.startswith(HEADER_PREFIX + "v1;inv=")
    reparsed = parse_payment_header(line)
    assert reparsed == header


def test_build_with_expired_key_fails():
    payer_kp, _payee_kp, _payer, payee, _resolver = _parties()
    rng = random.Random(2)
    invoice = create_invoice(payee, 10, "t", 100, rng)
    ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), 0, 4)
    with pytest.raises(MicropayError):
        build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now=5)


def test_ephemeral_window_must_be_nonempty():
    payer_kp, _payee_kp, _payer, _payee, _resolver = _parties()
    with pytest.raises(MicropayError):
        make_ephemeral(payer_kp, bytes(32), 10, 9)


def test_header_contains_no_secret_material():
    payer_kp, _payee_kp, _payer, payee, _resolver = _parties()
    rng = random.Random(3)
    invoice = create_invoice(payee, 10, "t", 100, rng)
    ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), 0, 50)
    line = build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now=5)
    assert payer_kp.secret_key.hex() not in line
    assert ephemeral.keypair.secret_key.hex() not in line


def test_parse_rejections_each_reason():
    _ledger, _header, _invoice, _resolver, _payer, _payee, line = _setup()
    # version
    bad_version = line.replace("v1;", "v2;", 1)
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(bad_version)
    assert err.value.reason == "UnsupportedVersion" and err.value.position == len(HEADER_PREFIX)
    # truncated signature hex
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(line[:-2])
    assert err.value.reason == "BadFieldLength"
    assert err.value.position == line.rindex("sig=") + 4
    # prefix
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header("Payment: v1")
    assert err.value.reason == "BadPrefix" and err.value.position == 0
    # unknown field in place of an expected one
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(line.replace(";nonce=", ";nance=", 1))
    assert err.value.reason == "UnknownField"
    # duplicate field
    inv_value = line.split(";inv=", 1)[1].split(";", 1)[0]
    dup = line.replace(";payer=", f";inv={inv_value};payer=", 1)
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(dup)
    assert err.value.reason == "DuplicateField"
    # missing field (drop nonce)
    nonce_value = line.split(";nonce=", 1)[1].split(";", 1)[0]
    missing = line.replace(f";nonce={nonce_value}", "", 1)
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(missing)
    assert err.value.reason == "MissingField"
    # trailing data
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(line + ";extra=1")
    assert err.value.reason == "TrailingData"
    # bad integer
    amt_value = line.split(";amt=", 1)[1].split(";", 1)[0]
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(line.replace(f";amt={amt_value}", ";amt=007", 1))
    assert err.value.reason == "BadInteger"
    # bad DID
    payer_value = line.split(";payer=", 1)[1].split(";", 1)[0]
    with pytest.raises(HeaderParseError) as err:
        parse_payment_header(line.replace(f";payer={payer_value}", ";payer=did:nanda:xyz", 1))
    assert err.value.reason == "BadDid"


@given(st.text(max_size=80))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_payment_header(text)
    except HeaderParseError:
        pass


def test_parser_total_on_random_bytes():
    rng = random.Random(17)
    for _ in range(5000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        try:
            parse_payment_header(blob.decode("latin-1"))
        except HeaderParseError:
            pass


# -- settlement ------------------------------------------------------------------


def test_settle_happy_path():
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=40, balance=100)
    receipt = ledger.settle(header, invoice, resolver, now=5)
    assert ledger.balance(payer) == 60
    assert ledger.balance(payee) == 40
    assert receipt.amount == 40 and receipt.index == 0
    assert ledger.total() == 100


def test_settle_replay_rejected_ledger_unchanged():
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=40, balance=100)
    ledger.settle(header, invoice, resolver, now=5)
    snapshot = ledger.canonical_bytes()
    with pytest.raises(SettleError) as err:
        ledger.settle(header, invoice, resolver, now=5)
    assert err.value.reason is SettleReason.DUPLICATE_NONCE
    assert ledger.canonical_bytes() == snapshot
    assert ledger.balance(payer) == 60 and ledger.balance(payee) == 40


def test_settle_insufficient_funds():
    ledger, header, invoice, resolver, _payer, _payee, _line = _setup(amount=200, balance=100)
    snapshot = ledger.canonical_bytes()
    with pytest.raises(SettleError) as err:
        ledger.settle(header, invoice, resolver, now=5)
    assert err.value.reason is SettleReason.INSUFFICIENT_FUNDS
    assert ledger.canonical_bytes() == snapshot


def test_settle_every_error_reason_is_atomic():
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=40, balance=100)
    rng = random.Random(4)
    snapshot = ledger.canonical_bytes()

    def expect(reason, header_obj=None, invoice_obj=None, res=None, now=5):
        with pytest.raises(SettleError) as err:
            ledger.settle(header_obj or header, invoice_obj or invoice, res or resolver, now)
        assert err.value.reason is reason
        assert ledger.canonical_bytes() == snapshot

    other_invoice = dataclasses.replace(invoice, invoice_id=rng.randbytes(16))
    expect(SettleReason.UNKNOWN_INVOICE, invoice_obj=other_invoice)
    expect(SettleReason.AMOUNT_MISMATCH, invoice_obj=dataclasses.replace(invoice, amount=41))
    expect(SettleReason.EXPIRED, now=invoice.expires_at + 1)
    expect(SettleReason.BAD_DELEGATION, res={str(payee): resolver[str(payee)]})  # payer unresolvable
    expect(SettleReason.BAD_DELEGATION, header_obj=dataclasses.replace(header, delegation_expires_at=4), now=5)
    expect(SettleReason.BAD_SIGNATURE, header_obj=dataclasses.replace(header, nonce=rng.randbytes(16)))
    # successful settle, then duplicate
    ledger.settle(header, invoice, resolver, now=5)
    snapshot = ledger.canonical_bytes()
    expect(SettleReason.DUPLICATE_NONCE)


def test_conservation_over_mixed_attempts():
    payer_kp, _payee_kp, payer, payee, resolver = _parties()
    rng = random.Random(5)
    ledger = Ledger({str(payer): 10_000})
    initial = ledger.total()
    for i in range(300):
        amount = rng.choice([10, 50, 20_000])  # sometimes unaffordable
        invoice = create_invoice(payee, amount, f"t{i}", expires_at=1000, rng=rng)
        ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), 0, 1000)
        line = build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now=i)
        header = parse_payment_header(line)
        try:
            ledger.settle(header, invoice, resolver, now=i)
        except SettleError:
            pass
        assert ledger.total() == initial


def _reference_canonical_bytes(ledger: Ledger) -> bytes:
    """Encode the ledger from scratch: balances by DID, nonces by
    (payer, nonce), receipts in settlement order."""
    parts = [enc_str(did) + enc_u64(ledger.balances[did]) for did in sorted(ledger.balances)]
    parts += [enc_str(payer) + nonce for payer, nonce in sorted(ledger.seen_nonces)]
    parts += [
        r.invoice_id + enc_str(str(r.payer)) + enc_str(str(r.payee)) + enc_u64(r.amount) + r.nonce + enc_u64(r.settled_at)
        for r in ledger.receipts
    ]
    return b"".join(parts)


def test_canonical_bytes_match_reference_encoder_over_mixed_settles():
    rng = random.Random(12)
    payers = [generate_keypair(rng.randbytes(32)) for _ in range(4)]
    payee = derive_did(generate_keypair(rng.randbytes(32)).public_key)
    resolver = {str(derive_did(kp.public_key)): kp.public_key for kp in payers}
    ledger = Ledger({did: 5_000 for did in resolver})
    settled = []
    outcomes = set()
    for i in range(300):
        payer_kp = payers[rng.randrange(len(payers))]
        invoice = create_invoice(payee, rng.choice([10, 400, 9_000]), f"t{i}", expires_at=i + 5, rng=rng)
        ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), i, i + 5)
        header = parse_payment_header(build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), i))
        now = i
        mode = rng.random()
        if mode < 0.2 and settled:  # replay
            header, invoice, now = settled[rng.randrange(len(settled))]
        elif mode < 0.3:  # expired
            now = invoice.expires_at + 1
        try:
            ledger.settle(header, invoice, resolver, now)
            settled.append((header, invoice, now))
            outcomes.add("ok")
        except SettleError as exc:
            outcomes.add(exc.reason)
        assert ledger.canonical_bytes() == _reference_canonical_bytes(ledger)
    assert {"ok", SettleReason.DUPLICATE_NONCE, SettleReason.EXPIRED, SettleReason.INSUFFICIENT_FUNDS} <= outcomes


def test_ledger_export_shape():
    ledger, header, invoice, resolver, payer, payee, _line = _setup()
    ledger.settle(header, invoice, resolver, now=5)
    obj = ledger.export_json_obj()
    assert set(obj) == {"balances", "receipts"}
    assert obj["receipts"][0]["amount"] == 40
