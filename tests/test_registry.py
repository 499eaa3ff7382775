from __future__ import annotations

import dataclasses
import json
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from agentmesh.identity import derive_did, sha256
from agentmesh.registry import (
    EMPTY_ROOT,
    BadSignatureError,
    KeyAbsentError,
    MerkleRadixIndex,
    RegistryRecord,
    SnapshotRootMismatch,
    StaleVersionError,
    make_record,
    verify_proof,
)
from _helpers import json_values, json_with, keypair_for, signed_record


def _owner():
    kp = keypair_for("registry-owner")
    return kp, derive_did(kp.public_key), {str(derive_did(kp.public_key)): kp.public_key}


def _record(key: str, version: int = 1, url: str = "https://x/meta"):
    kp, owner, _resolver = _owner()
    return make_record(key, url, sha256(key.encode()), kp.secret_key, owner, version)


def test_empty_tree_sentinel():
    index = MerkleRadixIndex()
    assert index.root_digest == sha256(b"\x00") == EMPTY_ROOT
    assert index.recompute_root() == EMPTY_ROOT
    assert index.resolve("missing") is None


def test_single_record_root_is_leaf_hash():
    _kp, _owner_did, resolver = _owner()
    record = _record("alpha")
    index = MerkleRadixIndex()
    index.insert(record, resolver)
    assert index.resolve("alpha") == record
    assert index.root_digest == sha256(b"\x01" + record.canonical_bytes())


def test_insert_order_independence():
    _kp, _owner_did, resolver = _owner()
    records = [_record(f"name-{i}") for i in range(40)]
    records += [_record(str(derive_did(keypair_for(f"k{i}").public_key))) for i in range(10)]
    a, b = MerkleRadixIndex(), MerkleRadixIndex()
    for r in records:
        a.insert(r, resolver)
    for r in reversed(records):
        b.insert(r, resolver)
    rng = random.Random(5)
    c = MerkleRadixIndex()
    shuffled = list(records)
    rng.shuffle(shuffled)
    for r in shuffled:
        c.insert(r, resolver)
    assert a.root_digest == b.root_digest == c.root_digest


def test_stale_version_rejected_index_unchanged():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    index.insert(_record("key", version=2), resolver)
    root = index.root_digest
    with pytest.raises(StaleVersionError):
        index.insert(_record("key", version=2, url="https://new"), resolver)
    with pytest.raises(StaleVersionError):
        index.insert(_record("key", version=1), resolver)
    assert index.root_digest == root
    index.insert(_record("key", version=3, url="https://new"), resolver)
    assert index.resolve("key").version == 3


def test_bad_signature_rejected():
    _kp, _owner_did, resolver = _owner()
    record = _record("key")
    forged = dataclasses.replace(record, metadata_url="https://evil")
    index = MerkleRadixIndex()
    with pytest.raises(BadSignatureError):
        index.insert(forged, resolver)
    with pytest.raises(BadSignatureError):
        index.insert(record, {})  # unknown owner
    assert len(index) == 0


def test_resolution_matches_hash_map_oracle():
    _kp, _owner_did, resolver = _owner()
    rng = random.Random(11)
    index = MerkleRadixIndex()
    oracle: dict[str, int] = {}
    keys = [f"agent-{i}" for i in range(300)]
    for _ in range(1000):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < 0.6:
            version = oracle.get(key, 0) + 1
            index.insert(_record(key, version=version), resolver)
            oracle[key] = version
        else:
            record = index.resolve(key)
            if key in oracle:
                assert record is not None and record.version == oracle[key]
            else:
                assert record is None
    for key, version in oracle.items():
        assert index.resolve(key).version == version


def test_incremental_root_equals_recompute():
    _kp, _owner_did, resolver = _owner()
    rng = random.Random(13)
    index = MerkleRadixIndex()
    versions: dict[str, int] = {}
    for step in range(100):
        key = f"k-{rng.randrange(40)}"
        versions[key] = versions.get(key, 0) + 1
        index.insert(_record(key, version=versions[key]), resolver)
        assert index.root_digest == index.recompute_root(), f"divergence at step {step}"


def test_traversal_depth_bounded_by_nibble_length():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    for i in range(200):
        index.insert(_record(f"agent-{i}"), resolver)
    for i in range(200):
        key = f"agent-{i}"
        _record_found, visits = index.resolve_with_depth(key)
        nibble_len = 2 * (1 + 2 + len(key.encode()))
        assert visits <= nibble_len


def test_traversal_depth_logarithmic_on_large_index():
    import math

    from agentmesh.registry import RegistryRecord

    _kp, owner_did, _resolver = _owner()
    rng = random.Random(10_000)
    index = MerkleRadixIndex()
    keys = []
    for _ in range(10_000):
        key = "did:nanda:" + rng.randbytes(32).hex()
        keys.append(key)
        index.insert_trusted(RegistryRecord(key, "https://m", sha256(key.encode()), owner_did, 1, b"\x00" * 64))
    visits = [index.resolve_with_depth(k)[1] for k in keys[::10]]
    # hex-digest keys spend two nibble levels per character, hence the factor 2;
    # the slack covers the shared-prefix segment, the leaf, and branching variance
    bound = 2 * math.log(len(keys), 16) + 6
    assert max(visits) <= bound


def test_prove_and_verify_inclusion():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    for i in range(50):
        index.insert(_record(f"agent-{i}"), resolver)
    proof = index.prove_inclusion("agent-17")
    assert verify_proof(index.root_digest, proof)

    tampered_record = dataclasses.replace(proof.record, metadata_url="https://evil")
    tampered = dataclasses.replace(proof, record=tampered_record)
    assert not verify_proof(index.root_digest, tampered)

    if proof.steps and proof.steps[0].siblings:
        step = proof.steps[0]
        bad_sibs = (b"\x00" * 32,) + step.siblings[1:]
        bad_step = dataclasses.replace(step, siblings=bad_sibs)
        mutated = dataclasses.replace(proof, steps=(bad_step,) + proof.steps[1:])
        assert not verify_proof(index.root_digest, mutated)

    assert not verify_proof(sha256(b"other root"), proof)


def test_prove_absent_key_raises():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    index.insert(_record("present"), resolver)
    with pytest.raises(KeyAbsentError):
        index.prove_inclusion("absent")


def test_snapshot_round_trip():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    for i in range(30):
        index.insert(_record(f"agent-{i}"), resolver)
    snapshot = index.export_snapshot()
    rebuilt = MerkleRadixIndex.import_snapshot(snapshot)
    assert rebuilt.root_digest == index.root_digest
    assert rebuilt.resolve("agent-7") == index.resolve("agent-7")


def test_snapshot_root_mismatch_detected():
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    index.insert(_record("agent"), resolver)
    snapshot = index.export_snapshot()
    snapshot["root_digest"] = sha256(b"wrong").hex()
    with pytest.raises(SnapshotRootMismatch):
        MerkleRadixIndex.import_snapshot(snapshot)


@pytest.mark.parametrize(
    "field, value",
    [
        ("version", json.loads("1e400")),
        ("version", 2.0),
        ("version", True),
        ("version", -1),
        ("version", 1 << 64),
        ("version", "1"),
        ("key", 7),
        ("metadata_url", None),
        ("card_digest", 5),
        ("owner", ["did"]),
        ("signature", {}),
    ],
)
def test_snapshot_record_with_mistyped_field_is_value_error(field, value):
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    index.insert(_record("agent"), resolver)
    snapshot = index.export_snapshot()
    snapshot["records"][0][field] = value
    with pytest.raises(ValueError, match=field):
        MerkleRadixIndex.import_snapshot(snapshot)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("card_digest", "AB" * 32, "must be lowercase hex, two digits a byte"),
        ("card_digest", " ".join(["ab"] * 32), "must be lowercase hex, two digits a byte"),
        ("card_digest", "zz" * 32, "must be lowercase hex, two digits a byte"),
        ("card_digest", "a" * 63, "must be lowercase hex, two digits a byte"),
        ("card_digest", "ab", "must be 32 bytes, got 1"),
        ("signature", "", "must be 64 bytes, got 0"),
        ("signature", "ab" * 65, "must be 64 bytes, got 65"),
    ],
)
def test_record_byte_field_not_written_as_its_hex_is_refused_by_name(field, value, message):
    obj = {**_record("agent").to_json_obj(), field: value}
    with pytest.raises(ValueError, match=f"^{re.escape(f'record field {field!r} {message}')}$"):
        RegistryRecord.from_json_obj(obj)


def _one_record_snapshot() -> dict:
    _kp, _owner_did, resolver = _owner()
    index = MerkleRadixIndex()
    index.insert(_record("agent"), resolver)
    return index.export_snapshot()


_SNAPSHOT = _one_record_snapshot()
_RECORD = _SNAPSHOT["records"][0]
_RECORDS = st.lists(
    st.one_of(
        json_values,
        st.just(_RECORD),
        st.tuples(st.sampled_from(sorted(_RECORD)), json_values).map(lambda edit: json_with(_RECORD, (edit[0],), edit[1])),
        st.sampled_from(sorted(_RECORD)).map(lambda name: {k: v for k, v in _RECORD.items() if k != name}),
    ),
    max_size=3,
)
_SNAPSHOTS = json_values | st.fixed_dictionaries(
    {},
    optional={
        "records": json_values | _RECORDS,
        "root_digest": json_values | st.just(_SNAPSHOT["root_digest"]) | st.text("0123456789abcdefX", max_size=66),
    },
)


@given(_SNAPSHOTS)
@example([1])
@example("x")
@example(None)
@example({})
@example({"records": 5, "root_digest": "00"})
@example({"records": [], "root_digest": 5})
@example({"records": [{}], "root_digest": _SNAPSHOT["root_digest"]})
@example(_SNAPSHOT)
@example({**_SNAPSHOT, "root_digest": _SNAPSHOT["root_digest"].upper()})
@example({**_SNAPSHOT, "root_digest": " ".join(re.findall("..", _SNAPSHOT["root_digest"]))})
def test_import_snapshot_is_total_on_any_json_value(obj):
    try:
        index = MerkleRadixIndex.import_snapshot(obj)
    except ValueError:
        return
    assert index.root_digest.hex() == obj["root_digest"]


def test_did_and_name_keys_share_one_tree():
    record_a, resolver_a = signed_record("alice")
    record_b, resolver_b = signed_record(str(derive_did(keypair_for("bob").public_key)), owner_label="bob2")
    index = MerkleRadixIndex()
    index.insert(record_a, resolver_a)
    index.insert(record_b, resolver_b)
    assert index.resolve(record_a.key) == record_a
    assert index.resolve(record_b.key) == record_b
    assert len(index) == 2


# -- children in nibble order: the incremental root against the hash rules ------


def _reference_root(records: dict[str, RegistryRecord]) -> bytes:
    """The root from the module's hash rules alone, built from scratch over
    the storage paths, each branching node's children sorted by nibble."""
    by_path = {}
    for key, record in records.items():
        data = key.encode("utf-8")
        namespace = b"D" if key.startswith("did:") else b"N"
        by_path[(namespace + len(data).to_bytes(2, "big") + data).hex()] = record

    def subtree(paths: list[str], depth: int) -> bytes:
        if len(paths) == 1:
            return sha256(b"\x01" + by_path[paths[0]].canonical_bytes())
        while len({path[depth] for path in paths}) == 1:  # a compressed prefix is not hashed
            depth += 1
        groups: dict[int, list[str]] = {}
        for path in paths:
            groups.setdefault(int(path[depth], 16), []).append(path)
        bitmap = sum(1 << nibble for nibble in groups)
        children = b"".join(subtree(groups[nibble], depth + 1) for nibble in sorted(groups))
        return sha256(b"\x02" + bitmap.to_bytes(2, "big") + children)

    return EMPTY_ROOT if not by_path else subtree(sorted(by_path), 0)


_radix_keys = st.text(alphabet="0123456789:abdié", max_size=5) | st.text(alphabet="0123456789abcdef", max_size=4).map(
    lambda tail: "did:" + tail
)


@given(inserts=st.lists(st.tuples(_radix_keys, st.integers(1, 3)), max_size=40))
def test_incremental_root_equals_the_hash_rules_and_every_proof_verifies(inserts):
    index = MerkleRadixIndex()
    stored: dict[str, RegistryRecord] = {}
    for key, version in inserts:
        record = RegistryRecord(key, f"https://r/{version}", sha256(key.encode()), derive_did(b"\x07" * 32), version, b"s" * 64)
        index.insert_trusted(record)
        stored[key] = record
        assert index.root_digest == index.recompute_root() == _reference_root(stored)
    assert len(index) == len(stored)
    for key, record in stored.items():
        proof = index.prove_inclusion(key)
        assert proof.record == record
        assert verify_proof(index.root_digest, proof)
