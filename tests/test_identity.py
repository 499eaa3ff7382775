from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import re

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from hypothesis import given, settings, strategies as st

from agentmesh import identity, micropay
from agentmesh.cards import AgentFactCard, card_digest
from agentmesh.identity import (
    AgentDid,
    Attestation,
    AttestationCheck,
    AttestationIssuer,
    Claim,
    ClaimType,
    MonotonicityViolation,
    derive_did,
    generate_keypair,
    sha256,
    sign,
    verify,
    verify_attestation,
)
from agentmesh.registry import RegistryRecord, make_record
from agentmesh.wire import dumps
from _helpers import count_ed25519_checks, did_for, keypair_for


def test_keygen_deterministic():
    k0 = generate_keypair(bytes(32))
    k1 = generate_keypair(bytes(32))
    assert k0 == k1
    assert len(k0.public_key) == 32 and len(k0.secret_key) == 32


def test_keygen_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        generate_keypair(b"short")


def test_distinct_seeds_distinct_keys_and_dids():
    rng = random.Random(0)
    seen_keys = set()
    seen_dids = set()
    for _ in range(10_000):
        kp = generate_keypair(rng.randbytes(32))
        seen_keys.add(kp.public_key)
        seen_dids.add(str(derive_did(kp.public_key)))
    assert len(seen_keys) == 10_000
    assert len(seen_dids) == 10_000


def test_did_round_trip():
    kp = generate_keypair(sha256(b"roundtrip"))
    did = derive_did(kp.public_key)
    assert AgentDid(str(did)) == did
    assert type(AgentDid(str(did))) is AgentDid
    assert did.startswith("did:nanda:")
    assert len(did) == len("did:nanda:") + 64


_HEX64 = "0123456789abcdef" * 4
_GARBAGE = (
    "did:nanda:XYZ",
    "did:other:" + "0" * 64,
    "did:nanda:" + "0" * 63,
    "",
    "did:nanda:" + _HEX64 + "\n",  # refused only by a full match: re.match's `$` lets it through
    "did:nanda:" + _HEX64.upper(),
    "did:nanda:" + _HEX64[:63],
    "did:nanda:" + _HEX64 + "0",
    "did:web:" + _HEX64,
    _HEX64,
)


def test_did_parse_rejects_garbage():
    assert AgentDid("did:nanda:" + _HEX64) == "did:nanda:" + _HEX64
    for bad in _GARBAGE:
        with pytest.raises(ValueError):
            AgentDid(bad)


def test_did_is_its_text_through_every_codec():
    payer_kp, payee_kp = keypair_for("codec-payer"), keypair_for("codec-payee")
    payer, payee = derive_did(payer_kp.public_key), derive_did(payee_kp.public_key)
    text = str(payer)
    assert type(text) is str
    # A DID equals and hashes as its text, so text keys find DID keys.
    assert payer == text and hash(payer) == hash(text)
    assert {text: 1}[payer] == 1 and {payer: 1}[text] == 1
    assert repr(payer) == repr(text)
    for copied in (pickle.loads(pickle.dumps(payer)), copy.copy(payer), copy.deepcopy(payer)):
        assert type(copied) is AgentDid and copied == payer

    def json_field(obj: dict, field: str) -> object:
        return json.loads(dumps(obj))[field]

    att = AttestationIssuer(payer_kp).issue(payee, ClaimType.TASK_COMPLETED, sha256(b"codec"), 1)
    back = Attestation.from_json_obj(json.loads(dumps(att.to_json_obj())))
    assert json_field(att.to_json_obj(), "issuer") == text and back == att and type(back.issuer) is AgentDid
    card = AgentFactCard(payer, "codec", "a codec card", ("codec",), "https://x/codec", credentials=(att,))
    back = AgentFactCard.from_json_obj(json.loads(dumps(card.to_json_obj())))
    assert json_field(card.to_json_obj(), "did") == text and back == card and type(back.did) is AgentDid
    assert card_digest(back) == card_digest(card)
    record = make_record(payer, "https://x/meta", card_digest(card), payer_kp.secret_key, payer, 1)
    back = RegistryRecord.from_json_obj(json.loads(dumps(record.to_json_obj())))
    assert json_field(record.to_json_obj(), "owner") == text and back == record and type(back.owner) is AgentDid
    assert back.canonical_bytes() == record.canonical_bytes()

    rng = random.Random(0)
    invoice = micropay.create_invoice(payee, 40, "codec", expires_at=9, rng=rng)
    ephemeral = micropay.make_ephemeral(payer_kp, rng.randbytes(32), 1, 9)
    line = micropay.build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), 1)
    assert f";payer={text};" in line
    header = micropay.parse_payment_header(line)
    assert header.payer == payer and type(header.payer) is AgentDid
    assert header.render() == line
    ledger = micropay.Ledger({text: 100})
    receipt = ledger.settle(header, invoice, {text: payer_kp.public_key}, 1)
    assert (json_field(receipt.to_json_obj(), "payer"), json_field(receipt.to_json_obj(), "payee")) == (text, payee)
    assert receipt.payer == payer and receipt.payee == payee
    assert ledger.balance(payer) == ledger.balance(text) == 60 and ledger.balance(str(payee)) == 40

    # Each refused DID text is refused in a header at the payer value.
    at = line.index(";payer=") + 7
    for bad in _GARBAGE:
        if ";" in bad:
            continue
        with pytest.raises(micropay.HeaderParseError) as err:
            micropay.parse_payment_header(line.replace(f";payer={text};", f";payer={bad};", 1))
        assert (err.value.reason, err.value.position) == ("BadDid", at)


def test_sign_verify_round_trip():
    kp = keypair_for("sv")
    sig = sign(kp.secret_key, b"message")
    assert verify(kp.public_key, b"message", sig)
    # deterministic signatures
    assert sign(kp.secret_key, b"message") == sig


def test_single_bit_flips_first_64_positions():
    kp = keypair_for("flips")
    message = bytearray(b"the quick brown fox jumps over the lazy dog")
    sig = sign(kp.secret_key, bytes(message))
    for bit in range(64):
        tampered = bytearray(message)
        tampered[bit // 8] ^= 1 << (bit % 8)
        assert not verify(kp.public_key, bytes(tampered), sig)


def test_verify_with_different_key_false():
    a, b = keypair_for("a"), keypair_for("b")
    sig = sign(a.secret_key, b"msg")
    assert not verify(b.public_key, b"msg", sig)


def test_malformed_inputs_never_raise():
    kp = keypair_for("malformed")
    sig = sign(kp.secret_key, b"m")
    assert not verify(kp.public_key[:-1], b"m", sig)
    assert not verify(kp.public_key, b"m", sig[:-1])
    assert not verify(b"", b"m", b"")
    assert not verify(bytes(32), b"m", bytes(64))


def test_signature_soundness_1000_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        kp = generate_keypair(rng.randbytes(32))
        message = rng.randbytes(rng.randrange(1, 64))
        sig = sign(kp.secret_key, message)
        assert verify(kp.public_key, message, sig)
        m_bit = rng.randrange(len(message) * 8)
        tampered = bytearray(message)
        tampered[m_bit // 8] ^= 1 << (m_bit % 8)
        assert not verify(kp.public_key, bytes(tampered), sig)
        s_bit = rng.randrange(len(sig) * 8)
        bad_sig = bytearray(sig)
        bad_sig[s_bit // 8] ^= 1 << (s_bit % 8)
        assert not verify(kp.public_key, message, bytes(bad_sig))


@given(secret_key=st.binary(min_size=32, max_size=32), message=st.binary(max_size=200), repeat=st.integers(1, 3))
def test_sign_equals_a_freshly_parsed_key(secret_key, message, repeat):
    expected = Ed25519PrivateKey.from_private_bytes(secret_key).sign(message)
    for _ in range(repeat):
        assert sign(secret_key, message) == expected


@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_sign_refuses_a_key_of_the_wrong_length(length):
    with pytest.raises(ValueError, match="secret key must be 32 bytes"):
        sign(bytes(length), b"m")


@pytest.mark.parametrize("form", [bytes, bytearray, memoryview])
def test_keys_and_seeds_may_be_any_bytes_like_object(form):
    seed = sha256(b"bytes-like")
    keypair = generate_keypair(form(seed))
    assert keypair == generate_keypair(seed)
    signature = sign(form(keypair.secret_key), form(b"m"))
    assert signature == sign(keypair.secret_key, b"m")
    assert verify(form(keypair.public_key), form(b"m"), form(signature))


@pytest.mark.parametrize(
    "call",
    [lambda: generate_keypair(32), lambda: sign(32, b"m"), lambda: verify(32, b"m", 64)],
    ids=["seed", "key", "verify"],
)
def test_an_int_is_not_read_as_that_many_zero_bytes(call):
    with pytest.raises(TypeError):
        call()


def test_a_generated_key_is_parsed_once():
    seed = sha256(b"parsed-once")
    before = identity._private_key.cache_info()
    kp = generate_keypair(seed)
    sign(kp.secret_key, b"m")
    after = identity._private_key.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_parsed_key_cache_is_bounded():
    maxsize = identity._private_key.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


def _uncached_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """The oracle: one bare Ed25519 check, with no cache in front of it."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


@st.composite
def _triples(draw):
    """(public key, message, signature): a signer's own triple, or one whose
    key, message or signature is another's, random or of the wrong length."""
    seed = draw(st.binary(min_size=32, max_size=32))
    keypair = generate_keypair(seed)
    message = draw(st.binary(max_size=120))
    signature = sign(keypair.secret_key, message)
    public_key = draw(
        st.sampled_from(
            [
                keypair.public_key,
                generate_keypair(sha256(seed)).public_key,
                sha256(b"random key" + seed),
                keypair.public_key[:31],
                keypair.public_key + b"\x00",
            ]
        )
    )
    message = draw(st.sampled_from([message, message + b"!", sha256(message)]))
    signature = draw(st.sampled_from([signature, sha256(signature) * 2, signature[:63], signature + b"\x00"]))
    return public_key, message, signature


def _cached() -> int:
    return identity._verified.cache_info().currsize


_HELD = keypair_for("held")


@settings(max_examples=200)
@given(_triples())
def test_verify_equals_an_uncached_check_on_first_and_repeated_calls(triple):
    expected = _uncached_verify(*triple)
    for form in (bytes, bytearray, memoryview):
        identity._verified.cache_clear()
        assert verify(_HELD.public_key, b"held", sign(_HELD.secret_key, b"held"))
        for _ in range(2):
            held = _cached()
            assert verify(*map(form, triple)) is expected
            if not expected:
                # A failed check leaves the cache as it was.
                assert _cached() == held
        assert _cached() == 1 + expected
    # A triple cached from another form is answered for bytes the same.
    assert verify(*triple) is expected


@settings(max_examples=20)
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(min_size=1, max_size=60),
    mask=st.integers(min_value=1, max_value=255),
)
def test_a_cached_triple_with_any_one_byte_changed_does_not_verify(seed, message, mask):
    keypair = generate_keypair(seed)
    triple = (keypair.public_key, message, sign(keypair.secret_key, message))
    assert verify(*triple)
    for part, value in enumerate(triple):
        for at in range(len(value)):
            changed = bytearray(value)
            changed[at] ^= mask
            tampered = list(triple)
            tampered[part] = bytes(changed)
            assert not verify(*tampered)
            assert not _uncached_verify(*tampered)
    assert verify(*triple)


def test_a_buffer_of_wider_items_cannot_borrow_a_cached_triple():
    keypair = keypair_for("wide")
    message = bytes(range(160))
    signature = sign(keypair.secret_key, message)
    assert verify(keypair.public_key, message, signature)
    # 32 four-byte items and 64 bytes hash to the cached triple's bytes.
    joined = keypair.public_key + signature + message
    wide_key = memoryview(joined[:128]).cast("I")
    assert len(wide_key) == 32
    assert not verify(wide_key, joined[192:], joined[128:192])


def test_verified_cache_is_bounded_and_keeps_the_most_recently_used(monkeypatch):
    maxsize = identity._verified.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024
    keypair = keypair_for("bounded")
    triples = []
    for i in range(maxsize + 1):
        message = i.to_bytes(2, "big")
        triples.append((keypair.public_key, message, sign(keypair.secret_key, message)))
    identity._verified.cache_clear()
    checked = count_ed25519_checks(monkeypatch)
    assert all(verify(*triple) for triple in triples[:maxsize])
    assert len(checked) == _cached() == maxsize
    # A hit needs no check and makes its triple the most recently used, so
    # one more triple evicts the second, not the first.
    assert verify(*triples[0]) and len(checked) == maxsize
    assert verify(*triples[maxsize]) and len(checked) == maxsize + 1
    assert _cached() == maxsize
    assert verify(*triples[0]) and len(checked) == maxsize + 1
    assert verify(*triples[1]) and len(checked) == maxsize + 2
    assert _cached() == maxsize


def _issue_one(issuer: AttestationIssuer, at: int = 5) -> Attestation:
    return issuer.issue(did_for("subject"), ClaimType.TASK_COMPLETED, sha256(b"payload"), at)


def test_attestation_issue_then_verify_valid():
    issuer = AttestationIssuer(keypair_for("issuer"))
    att = _issue_one(issuer)
    resolver = {str(issuer.did): issuer.keypair.public_key}
    assert verify_attestation(att, resolver) is AttestationCheck.VALID


def test_attestation_tampered_subject_invalid():
    issuer = AttestationIssuer(keypair_for("issuer"))
    att = _issue_one(issuer)
    resolver = {str(issuer.did): issuer.keypair.public_key}
    tampered = Attestation(
        issuer=att.issuer,
        subject=did_for("someone-else"),
        claim_type=att.claim_type,
        payload_digest=att.payload_digest,
        issued_at=att.issued_at,
        signature=att.signature,
    )
    assert verify_attestation(tampered, resolver) is AttestationCheck.INVALID_SIGNATURE


def test_attestation_corrupted_signature_invalid():
    issuer = AttestationIssuer(keypair_for("issuer"))
    att = _issue_one(issuer)
    resolver = {str(issuer.did): issuer.keypair.public_key}
    bad = bytearray(att.signature)
    bad[3] ^= 0xFF
    corrupted = Attestation(att.issuer, att.subject, att.claim_type, att.payload_digest, att.issued_at, bytes(bad))
    assert verify_attestation(corrupted, resolver) is AttestationCheck.INVALID_SIGNATURE


def test_attestation_unknown_issuer():
    issuer = AttestationIssuer(keypair_for("issuer"))
    att = _issue_one(issuer)
    assert verify_attestation(att, {}) is AttestationCheck.UNKNOWN_ISSUER


def test_attestation_timestamps_strictly_increase():
    """Over claims, attestations and seals alike: one clock per issuer."""
    issuer = AttestationIssuer(keypair_for("issuer"))
    made = [issuer.claim(did_for("subject"), ClaimType.SLA_MET, sha256(b"p"), 5)]
    for stale in (5, 4):
        with pytest.raises(MonotonicityViolation):
            issuer.claim(did_for("subject"), ClaimType.SLA_MET, sha256(b"p"), stale)
        with pytest.raises(MonotonicityViolation):
            _issue_one(issuer, at=stale)
        with pytest.raises(MonotonicityViolation):
            issuer.seal(made, stale)
    issuer.seal(made, 6)
    with pytest.raises(MonotonicityViolation):
        issuer.claim(did_for("subject"), ClaimType.SLA_MET, sha256(b"p"), 6)
    with pytest.raises(MonotonicityViolation):
        issuer.seal(made, 6)
    _issue_one(issuer, at=7)


def test_a_claim_signs_as_the_attestation_with_its_five_fields():
    issuer = AttestationIssuer(keypair_for("issuer"))
    att = _issue_one(issuer)
    claim = Claim(att.issuer, att.subject, att.claim_type, att.payload_digest, att.issued_at)
    assert claim.signing_bytes() == att.signing_bytes()
    assert att.canonical_bytes() == claim.signing_bytes() + att.signature
    assert claim != att


def _seal_layout(claims) -> bytes:
    """The seal's payload digest, spelled out: SHA-256 of the 0x04 domain tag
    and each claim's signing bytes behind its 4-byte big-endian length."""
    body = b"".join(len(c.signing_bytes()).to_bytes(4, "big") + c.signing_bytes() for c in claims)
    return sha256(b"\x04" + body)


def test_a_seal_is_one_signature_over_its_issuers_claims_in_issue_order():
    issuer = AttestationIssuer(keypair_for("issuer"))
    claims = [
        issuer.claim(did_for(f"subject-{t % 2}"), ClaimType(t % 2), sha256(bytes([t])), t + 1) for t in range(3)
    ]
    seal = issuer.seal(claims, 10)
    assert (seal.issuer, seal.subject, seal.claim_type, seal.issued_at) == (
        issuer.did,
        issuer.did,
        ClaimType.ROUND_SEAL,
        10,
    )
    assert seal.payload_digest == _seal_layout(claims)
    assert identity.seal_covers(seal, claims)
    resolver = {str(issuer.did): issuer.keypair.public_key}
    assert verify_attestation(seal, resolver) is AttestationCheck.VALID
    # An empty batch has a seal of its own, which covers no other batch.
    empty = issuer.seal([], 11)
    assert identity.seal_covers(empty, []) and not identity.seal_covers(empty, claims[:1])


def test_an_issuer_seals_only_its_own_claims_and_a_seal_covers_only_its_issuers():
    issuer, other = AttestationIssuer(keypair_for("issuer")), AttestationIssuer(keypair_for("other"))
    mine = issuer.claim(did_for("subject"), ClaimType.SLA_MET, sha256(b"p"), 1)
    theirs = other.claim(did_for("subject"), ClaimType.SLA_MET, sha256(b"p"), 1)
    with pytest.raises(ValueError, match="seals only its own claims"):
        issuer.seal([mine, theirs], 2)
    issuer.seal([mine], 2)  # the refused seal did not move the clock
    # A dishonest issuer's seal over another's claims, with the right digest:
    # refused, as is a seal whose subject is not its issuer and an
    # attestation of another claim type that carries a seal's digest.
    forged = other.issue(other.did, ClaimType.ROUND_SEAL, _seal_layout([mine]), 2)
    assert not identity.seal_covers(forged, [mine])
    about_other = issuer.issue(did_for("subject"), ClaimType.ROUND_SEAL, _seal_layout([mine]), 3)
    assert not identity.seal_covers(about_other, [mine])
    typed = issuer.issue(issuer.did, ClaimType.TASK_COMPLETED, _seal_layout([mine]), 4)
    assert not identity.seal_covers(typed, [mine])
    assert identity.seal_covers(issuer.seal([mine], 5), [mine])


_CLAIM_FIELDS = ("subject", "claim_type", "payload_digest", "issued_at")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(1, 5))
def test_a_seal_covers_no_batch_with_one_claim_altered_dropped_added_or_moved(data, size):
    issuer = AttestationIssuer(keypair_for("issuer"))
    claims = [
        issuer.claim(did_for(f"subject-{t}"), ClaimType(t % 4), sha256(bytes([t])), 2 * t + 1) for t in range(size)
    ]
    seal = issuer.seal(claims, 2 * size + 1)
    assert identity.seal_covers(seal, claims)
    i = data.draw(st.integers(0, size - 1), label="claim")
    changes = ["drop", "add", "alter"] + (["swap"] if size > 1 else [])
    change = data.draw(st.sampled_from(changes), label="change")
    tampered = list(claims)
    if change == "drop":
        del tampered[i]
    elif change == "add":
        tampered.insert(data.draw(st.integers(0, size), label="at"), claims[i])
    elif change == "swap":
        j = data.draw(st.integers(0, size - 1).filter(lambda j: j != i), label="with")
        tampered[i], tampered[j] = tampered[j], tampered[i]
    else:
        field = data.draw(st.sampled_from(_CLAIM_FIELDS), label="field")
        value = {
            "subject": did_for("someone-else"),
            "claim_type": ClaimType((claims[i].claim_type + 1) % 4),
            "payload_digest": sha256(claims[i].payload_digest),
            "issued_at": claims[i].issued_at + 1,
        }[field]
        tampered[i] = dataclasses.replace(claims[i], **{field: value})
    assert not identity.seal_covers(seal, tampered)


@pytest.mark.parametrize("length", [0, 31, 33])
def test_attestation_refuses_a_payload_digest_of_the_wrong_length(length):
    issuer = AttestationIssuer(keypair_for("issuer"))
    with pytest.raises(ValueError, match=f"^payload digest must be 32 bytes, got {length}$"):
        issuer.issue(did_for("subject"), ClaimType.SLA_MET, bytes(length), 1)
    obj = {**_issue_one(issuer).to_json_obj(), "payload_digest": "ab" * length}
    with pytest.raises(ValueError, match=f"^payload digest must be 32 bytes, got {length}$"):
        Attestation.from_json_obj(obj)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("signature", "AB" * 64, "must be lowercase hex, two digits a byte"),
        ("signature", "ab" * 63, "must be 64 bytes, got 63"),
        ("signature", "", "must be 64 bytes, got 0"),
        ("payload_digest", "0x" + "ab" * 31, "must be lowercase hex, two digits a byte"),
        ("payload_digest", " ".join(["ab"] * 32), "must be lowercase hex, two digits a byte"),
    ],
)
def test_credential_byte_field_not_written_as_its_hex_is_refused_by_name(field, value, message):
    obj = {**_issue_one(AttestationIssuer(keypair_for("issuer"))).to_json_obj(), field: value}
    with pytest.raises(ValueError, match=f"^{re.escape(f'credential field {field!r} {message}')}$"):
        Attestation.from_json_obj(obj)


def test_attestation_json_round_trip():
    issuer = AttestationIssuer(keypair_for("issuer"))
    for at, claim in enumerate(ClaimType, start=1):
        att = issuer.issue(did_for("subject"), claim, sha256(b"payload"), at)
        assert att.to_json_obj()["claim_type"] == claim.name.lower()
        assert Attestation.from_json_obj(att.to_json_obj()) == att


# Each spelling upper-cases to PAYMENT_SETTLED; the long s (U+017F) does too.
@pytest.mark.parametrize("spelling", ["PAYMENT_SETTLED", "Payment_Settled", "payment_\u017fettled"])
def test_credential_claim_type_is_read_only_as_written(spelling):
    obj = {**_issue_one(AttestationIssuer(keypair_for("issuer"))).to_json_obj(), "claim_type": spelling}
    message = f"credential field 'claim_type' is not a claim type: {spelling!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Attestation.from_json_obj(obj)
