from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, strategies as st

from agentmesh import micropay
from agentmesh.identity import DID_PREFIX, AgentDid, derive_did, generate_keypair, sha256, sign, verify
from agentmesh.micropay import (
    HEADER_PREFIX,
    Delegation,
    HeaderParseError,
    Ledger,
    MicropayError,
    PaymentHeader,
    Receipt,
    SettleError,
    SettleReason,
    build_payment_header,
    create_invoice,
    make_ephemeral,
    parse_payment_header,
)
from agentmesh.wire import enc_str, enc_u64

MAX_U64 = (1 << 64) - 1


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


@pytest.mark.parametrize(("issued_at", "expires_at"), [(-1, 9), (0, 1 << 64), (1 << 64, 1 << 65)])
def test_ephemeral_window_bounds_must_fit_in_u64(issued_at, expires_at):
    payer_kp, _payee_kp, _payer, _payee, _resolver = _parties()
    with pytest.raises(MicropayError, match="bounds"):
        make_ephemeral(payer_kp, bytes(32), issued_at, expires_at)
    assert make_ephemeral(payer_kp, bytes(32), 0, (1 << 64) - 1).delegation.expires_at == (1 << 64) - 1


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
    # a trailing newline inside a field is not part of its grammar
    inv_at, deleg_at = line.index(";inv=") + 5, line.index(";deleg=") + 7
    deleg_value = line[deleg_at:].split(";", 1)[0]
    for edited, reason, position in (
        (line.replace(payer_value, payer_value + "\n", 1), "BadDid", line.index(";payer=") + 7),
        (line.replace(";amt=40;", ";amt=40\n;", 1), "BadInteger", line.index(";amt=") + 5),
        (line.replace(deleg_value, deleg_value[:159] + "\n", 1), "BadHex", deleg_at),
        (line.replace(inv_value, inv_value[:31] + "\n", 1), "BadHex", inv_at),
    ):
        with pytest.raises(HeaderParseError) as err:
            parse_payment_header(edited)
        assert (err.value.reason, err.value.position) == (reason, position)


_U64 = st.integers(min_value=0, max_value=MAX_U64)
_HEADERS = st.builds(
    PaymentHeader,
    invoice_id=st.binary(min_size=16, max_size=16),
    payer=st.binary(min_size=32, max_size=32).map(lambda raw: AgentDid(DID_PREFIX + raw.hex())),
    nonce=st.binary(min_size=16, max_size=16),
    amount=_U64,
    delegation=st.builds(
        Delegation,
        ephemeral_pub=st.binary(min_size=32, max_size=32),
        issued_at=_U64,
        expires_at=_U64,
        signature=st.binary(min_size=64, max_size=64),
    ),
    signature=st.binary(min_size=64, max_size=64),
)
# (operation, position modulo the line length + 1, character)
_EDITS = st.tuples(
    st.sampled_from(("insert", "delete", "substitute")),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from("0a9fF;= \n\t-") | st.characters(),
)
_SAMPLE = PaymentHeader(
    bytes(16), AgentDid(DID_PREFIX + "ab" * 32), bytes(16), 40, Delegation(bytes(32), 1, 11, bytes(64)), bytes(64)
)
_SAMPLE_LINE = _SAMPLE.render()


@given(_HEADERS)
def test_render_then_parse_gives_the_header_back(header):
    assert parse_payment_header(header.render()) == header


@given(_HEADERS, _EDITS)
# a newline after the amt value, and in place of the last deleg and inv digits
@example(_SAMPLE, ("insert", _SAMPLE_LINE.index(";deleg="), "\n"))
@example(_SAMPLE, ("substitute", _SAMPLE_LINE.index(";sig=") - 1, "\n"))
@example(_SAMPLE, ("substitute", _SAMPLE_LINE.index(";payer=") - 1, "\n"))
def test_one_character_edit_is_refused_or_renders_back_exactly(header, edit):
    line = header.render()
    op, position, char = edit
    i = position % (len(line) + 1)
    if op == "delete":
        edited = line[:i] + line[i + 1 :]
    else:
        edited = line[:i] + char + line[i + (op == "substitute") :]
    try:
        parsed = parse_payment_header(edited)
    except HeaderParseError:
        return
    assert parsed.render() == edited


def test_parse_builds_the_payer_did_once(monkeypatch):
    built = []

    def counting(text):
        built.append(text)
        return AgentDid(text)

    monkeypatch.setattr(micropay, "AgentDid", counting)
    header = parse_payment_header(_SAMPLE_LINE)
    assert built == [_SAMPLE.payer] and type(header.payer) is AgentDid
    assert header == _SAMPLE


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


def test_settle_refuses_to_take_the_payee_past_u64():
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=5, balance=100)
    ledger.credit(payee, MAX_U64)
    snapshot = ledger.canonical_bytes()
    with pytest.raises(SettleError) as err:
        ledger.settle(header, invoice, resolver, now=5)
    assert err.value.reason is SettleReason.BALANCE_OVERFLOW
    assert ledger.canonical_bytes() == snapshot
    # a payee five short of the limit can take the five
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=5, balance=100)
    ledger.credit(payee, MAX_U64 - 5)
    ledger.settle(header, invoice, resolver, now=5)
    assert ledger.balance(payee) == MAX_U64
    # paying oneself moves nothing, even at the limit; the payee is signed,
    # so the header is made for an invoice to the payer
    payer_kp, _payee_kp, payer, _payee, resolver = _parties()
    invoice = create_invoice(payer, 5, "task-1", expires_at=55, rng=random.Random(0))
    ephemeral = make_ephemeral(payer_kp, bytes(32), 4, 55)
    header = parse_payment_header(build_payment_header(invoice, payer_kp, ephemeral, bytes(16), 5))
    ledger = Ledger({str(payer): MAX_U64})
    ledger.settle(header, invoice, resolver, now=5)
    assert ledger.balance(payer) == MAX_U64 and len(ledger.receipts) == 1


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
    lapsed = dataclasses.replace(header.delegation, expires_at=4)
    expect(SettleReason.BAD_DELEGATION, header_obj=dataclasses.replace(header, delegation=lapsed), now=5)
    expect(SettleReason.BAD_SIGNATURE, header_obj=dataclasses.replace(header, nonce=rng.randbytes(16)))
    # successful settle, then duplicate
    ledger.settle(header, invoice, resolver, now=5)
    snapshot = ledger.canonical_bytes()
    expect(SettleReason.DUPLICATE_NONCE)


@pytest.mark.parametrize(
    "change, now",
    [({"payee": derive_did(generate_keypair(sha256(b"thief")).public_key)}, 1), ({"expires_at": 10**6}, 9)],
    ids=["re-addressed", "re-dated"],
)
def test_a_header_does_not_settle_a_changed_copy_of_its_invoice(change, now):
    """The payment signature covers the invoice's payee and expiry, so a
    caller's copy that names another payee, or a later expiry (settled here
    after the signed one has passed), is refused and pays no one."""
    payer_kp, _payee_kp, payer, payee, resolver = _parties()
    rng = random.Random(7)
    invoice = create_invoice(payee, 100, "task-1", expires_at=5, rng=rng)
    ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), 0, 20)
    header = parse_payment_header(build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now=1))
    ledger = Ledger({str(payer): 1_000})
    snapshot = ledger.canonical_bytes()
    with pytest.raises(SettleError) as err:
        ledger.settle(header, dataclasses.replace(invoice, **change), resolver, now)
    assert err.value.reason is SettleReason.BAD_SIGNATURE
    assert ledger.canonical_bytes() == snapshot and ledger.receipts == []


def test_an_invoice_is_paid_at_most_once():
    payer_kp, _payee_kp, payer, payee, resolver = _parties()
    rng = random.Random(6)
    invoice = create_invoice(payee, 100, "task-1", expires_at=50, rng=rng)
    ephemeral = make_ephemeral(payer_kp, rng.randbytes(32), 0, 50)
    ledger = Ledger({str(payer): 1_000})
    first, second = (
        parse_payment_header(build_payment_header(invoice, payer_kp, ephemeral, nonce, now=5))
        for nonce in (bytes(16), b"\x01" * 16)
    )
    ledger.settle(first, invoice, resolver, now=5)
    paid = ledger.canonical_bytes()
    # Another nonce is another payment of the invoice; the same nonce is a replay.
    for header, reason in ((second, SettleReason.ALREADY_PAID), (first, SettleReason.DUPLICATE_NONCE)):
        with pytest.raises(SettleError) as err:
            ledger.settle(header, invoice, resolver, now=5)
        assert err.value.reason is reason
        assert ledger.canonical_bytes() == paid
    assert ledger.balance(payee) == 100 and len(ledger.receipts) == 1


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
    """Encode the ledger from scratch: balances by DID, then the SHA-256 of
    the receipts' encodings concatenated in settlement order."""
    balances = b"".join(enc_str(did) + enc_u64(ledger.balances[did]) for did in sorted(ledger.balances))
    receipts = b"".join(
        r.invoice_id + enc_str(str(r.payer)) + enc_str(str(r.payee)) + enc_u64(r.amount) + r.nonce + enc_u64(r.settled_at)
        for r in ledger.receipts
    )
    return balances + sha256(receipts)


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


def test_refused_settle_does_not_spend_its_nonce():
    # refused for funds, then paid once the payer is credited
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=200, balance=100)
    with pytest.raises(SettleError) as err:
        ledger.settle(header, invoice, resolver, now=5)
    assert err.value.reason is SettleReason.INSUFFICIENT_FUNDS
    ledger.credit(payer, 100)
    ledger.settle(header, invoice, resolver, now=5)
    assert ledger.balance(payer) == 0 and ledger.balance(payee) == 200
    # refused for the payee's overflow, then paid once the payee is lower
    ledger, header, invoice, resolver, payer, payee, _line = _setup(amount=5, balance=100)
    ledger.credit(payee, MAX_U64)
    with pytest.raises(SettleError) as err:
        ledger.settle(header, invoice, resolver, now=5)
    assert err.value.reason is SettleReason.BALANCE_OVERFLOW
    ledger.balances[str(payee)] -= 5
    ledger.settle(header, invoice, resolver, now=5)
    assert ledger.balance(payer) == 95 and ledger.balance(payee) == MAX_U64


_REPLAY_PAYERS = [generate_keypair(sha256(b"replay-payer-%d" % i)) for i in range(3)]
_REPLAY_PAYEE = derive_did(generate_keypair(sha256(b"replay-payee")).public_key)
_REPLAY_RESOLVER = {str(derive_did(kp.public_key)): kp.public_key for kp in _REPLAY_PAYERS}
_REPLAY_EPHEMERALS = [make_ephemeral(kp, sha256(kp.public_key), 0, 10_000) for kp in _REPLAY_PAYERS]
_replay_ops = st.one_of(
    # a fresh header: payer, amount, invoice expiry relative to now, and a
    # nonce from a pool of four, so payers share nonces and reuse their own
    st.tuples(
        st.just("fresh"),
        st.integers(0, 2),
        st.sampled_from([10, 400, 3_000]),
        st.integers(-2, 8),
        st.integers(0, 3),
    ),
    st.tuples(st.just("retry"), st.integers(0, 99)),  # any earlier header, settled or refused
    st.tuples(st.just("wrong_amount"), st.integers(0, 99)),
    st.tuples(st.just("credit"), st.integers(0, 2), st.sampled_from([100, 3_000])),
)


@given(steps=st.lists(st.tuples(_replay_ops, st.integers(-4, 4)), max_size=24))
@example(
    steps=[
        (("fresh", 0, 3_000, 5, 0), 0),  # refused for funds
        (("credit", 0, 3_000), 0),
        (("retry", 0), 0),  # the same header now settles
        (("retry", 0), 1),  # and then never again
        (("fresh", 1, 10, 5, 0), 0),  # another payer may use the same nonce
    ]
)
def test_a_header_settles_at_most_once_and_only_a_receipt_spends_its_nonce(steps):
    ledger = Ledger({did: 1_000 for did in _REPLAY_RESOLVER})
    rng = random.Random(0)
    attempts = []
    now = 50
    for op, step in steps:
        now = max(0, now + step)  # time may go backwards
        if op[0] == "credit":
            ledger.credit(derive_did(_REPLAY_PAYERS[op[1]].public_key), op[2])
            continue
        if op[0] == "fresh":
            _kind, payer, amount, expiry, nonce = op
            invoice = create_invoice(_REPLAY_PAYEE, amount, "t", expires_at=max(0, now + expiry), rng=rng)
            line = build_payment_header(
                invoice, _REPLAY_PAYERS[payer], _REPLAY_EPHEMERALS[payer], bytes([nonce]) * 16, now
            )
            attempts.append((parse_payment_header(line), invoice))
        elif not attempts:
            continue
        header, invoice = attempts[-1] if op[0] == "fresh" else attempts[op[1] % len(attempts)]
        if op[0] == "wrong_amount":
            invoice = dataclasses.replace(invoice, amount=invoice.amount + 1)
        spent = {(r.payer, r.nonce) for r in ledger.receipts}
        try:
            ledger.settle(header, invoice, _REPLAY_RESOLVER, now)
        except SettleError as exc:
            if exc.reason is SettleReason.DUPLICATE_NONCE:
                assert (header.payer, header.nonce) in spent
            else:
                assert exc.reason in {
                    SettleReason.AMOUNT_MISMATCH,
                    SettleReason.EXPIRED,
                    SettleReason.INSUFFICIENT_FUNDS,
                }
        else:
            assert (header.payer, header.nonce) not in spent
        assert ledger.canonical_bytes() == _reference_canonical_bytes(ledger)


def test_ledger_balances_stay_within_u64():
    max_u64 = (1 << 64) - 1
    with pytest.raises(MicropayError, match="opening balance"):
        Ledger({"did:a": max_u64 + 1})
    ledger = Ledger({"did:a": max_u64 - 1})
    ledger.credit("did:a", 1)
    ledger.credit("did:b", max_u64)
    before = ledger.canonical_bytes()
    for did, amount in (("did:a", 1), ("did:b", 1), ("did:c", max_u64 + 1)):
        with pytest.raises(MicropayError, match="past u64"):
            ledger.credit(did, amount)
    assert ledger.canonical_bytes() == before


def test_ledger_export_shape():
    ledger, header, invoice, resolver, payer, payee, _line = _setup()
    ledger.settle(header, invoice, resolver, now=5)
    obj = ledger.export_json_obj()
    assert set(obj) == {"balances", "receipts"}
    assert obj["receipts"][0]["amount"] == 40


# -- settle against the flat-field settle ------------------------------------
#
# `Ledger.settle` as it read when the header held the delegation as four
# loose fields, copied verbatim, as the oracle for the settle over one
# `Delegation`: the same checks in the same order, so the same receipt or
# the same refusal, and the same ledger bytes.


@dataclasses.dataclass(frozen=True)
class _FlatHeader:
    invoice_id: bytes
    payer: AgentDid
    ephemeral_pub: bytes
    nonce: bytes
    amount: int
    delegation_sig: bytes
    delegation_issued_at: int
    delegation_expires_at: int
    signature: bytes


def _flat(header: PaymentHeader) -> _FlatHeader:
    d = header.delegation
    return _FlatHeader(
        header.invoice_id,
        header.payer,
        d.ephemeral_pub,
        header.nonce,
        header.amount,
        d.signature,
        d.issued_at,
        d.expires_at,
        header.signature,
    )


def _delegation_message(ephemeral_pub: bytes, issued_at: int, expires_at: int) -> bytes:
    return ephemeral_pub + enc_u64(issued_at) + enc_u64(expires_at)


def _payment_signing_bytes(invoice, payer: AgentDid, nonce: bytes) -> bytes:
    return (
        invoice.invoice_id
        + enc_str(payer)
        + enc_str(invoice.payee)
        + enc_u64(invoice.amount)
        + enc_u64(invoice.expires_at)
        + nonce
    )


def _flat_settle(self: Ledger, header: _FlatHeader, invoice, resolver, now: int) -> Receipt:
    if header.invoice_id != invoice.invoice_id:
        raise SettleError(SettleReason.UNKNOWN_INVOICE)
    if header.amount != invoice.amount:
        raise SettleError(SettleReason.AMOUNT_MISMATCH)
    if now > invoice.expires_at:
        raise SettleError(SettleReason.EXPIRED)

    owner_key = resolver.get(header.payer)
    if owner_key is None or derive_did(owner_key) != header.payer:
        raise SettleError(SettleReason.BAD_DELEGATION)
    if not (header.delegation_issued_at <= now <= header.delegation_expires_at):
        raise SettleError(SettleReason.BAD_DELEGATION)
    delegation_msg = _delegation_message(
        header.ephemeral_pub, header.delegation_issued_at, header.delegation_expires_at
    )
    if not verify(owner_key, delegation_msg, header.delegation_sig):
        raise SettleError(SettleReason.BAD_DELEGATION)

    payment_msg = _payment_signing_bytes(invoice, header.payer, header.nonce)
    if not verify(header.ephemeral_pub, payment_msg, header.signature):
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


def _outcome(settle, *args):
    try:
        return settle(*args)
    except SettleError as exc:
        return exc.reason


_REPLAY_DIDS = [derive_did(kp.public_key) for kp in _REPLAY_PAYERS]
_UNKNOWN_PAYER = derive_did(generate_keypair(sha256(b"unresolved-payer")).public_key)
_WINDOW_BOUND = st.integers(44, 64) | _U64
# (kind, *arguments); the window arguments are clamped to a nonempty window
# when the owner signs them again
_mutations = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("window"), _WINDOW_BOUND, _WINDOW_BOUND),
    st.tuples(st.just("rewindow"), _WINDOW_BOUND, _WINDOW_BOUND),
    st.tuples(st.just("eph"), st.integers(0, 3)),
    st.tuples(st.just("deleg_sig"), st.integers(0, 63)),
    st.tuples(st.just("payer"), st.integers(0, 3)),
    st.tuples(st.just("nonce"), st.integers(0, 3)),
)


def _mutate(header: PaymentHeader, mutation) -> PaymentHeader:
    kind, *args = mutation
    delegation = header.delegation
    if kind == "window":
        delegation = dataclasses.replace(delegation, issued_at=args[0], expires_at=args[1])
    elif kind == "rewindow":  # a window the owner did sign
        owner = _REPLAY_PAYERS[_REPLAY_DIDS.index(header.payer)]
        unsigned = Delegation(delegation.ephemeral_pub, min(args), max(args), b"")
        delegation = dataclasses.replace(unsigned, signature=sign(owner.secret_key, unsigned.message()))
    elif kind == "eph":  # another payer's ephemeral key, or 32 zero bytes
        pubs = [e.delegation.ephemeral_pub for e in _REPLAY_EPHEMERALS] + [bytes(32)]
        delegation = dataclasses.replace(delegation, ephemeral_pub=pubs[args[0]])
    elif kind == "deleg_sig":
        signature = bytearray(delegation.signature)
        signature[args[0]] ^= 1
        delegation = dataclasses.replace(delegation, signature=bytes(signature))
    elif kind == "payer":  # any of the three payers, or one the resolver lacks
        header = dataclasses.replace(header, payer=(_REPLAY_DIDS + [_UNKNOWN_PAYER])[args[0]])
    elif kind == "nonce":
        header = dataclasses.replace(header, nonce=bytes([args[0]]) * 16)
    return dataclasses.replace(header, delegation=delegation)


@given(
    steps=st.lists(
        # (payer, amount, nonce, mutation, now - 50)
        st.tuples(
            st.integers(0, 2), st.sampled_from([10, 400, 3_000]), st.integers(0, 3), _mutations, st.integers(-3, 12)
        ),
        max_size=12,
    ),
    replays=st.lists(st.integers(0, 99), max_size=4),
)
@example(steps=[(0, 10, 0, ("none",), 0), (0, 10, 0, ("none",), 0)], replays=[0])
# a signed window that opens, or closes, at the settle's now
@example(steps=[(1, 10, 0, ("rewindow", 55, 70), 5), (1, 10, 1, ("rewindow", 40, 52), 2)], replays=[])
@example(steps=[(2, 10, 0, ("window", 40, 60), 0)], replays=[])
def test_settle_over_a_delegation_matches_the_flat_field_settle(steps, replays):
    ledger = Ledger({did: 1_000 for did in _REPLAY_RESOLVER})
    oracle = Ledger({did: 1_000 for did in _REPLAY_RESOLVER})
    rng = random.Random(0)
    attempts = []
    for payer, amount, nonce, mutation, step in steps:
        invoice = create_invoice(_REPLAY_PAYEE, amount, "t", expires_at=60, rng=rng)
        line = build_payment_header(invoice, _REPLAY_PAYERS[payer], _REPLAY_EPHEMERALS[payer], bytes([nonce]) * 16, 50)
        attempts.append((_mutate(parse_payment_header(line), mutation), invoice, 50 + step))
    attempts += [attempts[i % len(attempts)] for i in replays if attempts]
    for header, invoice, now in attempts:
        got = _outcome(ledger.settle, header, invoice, _REPLAY_RESOLVER, now)
        expected = _outcome(_flat_settle, oracle, _flat(header), invoice, _REPLAY_RESOLVER, now)
        assert got == expected
        assert ledger.canonical_bytes() == oracle.canonical_bytes()
