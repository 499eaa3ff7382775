"""The radix index's observable walk, pinned across versions, and a
model-based check of the index against a dict.

``test_observable_walk_is_pinned`` feeds one SHA-256 with everything a
caller can see of the tree's shape: the root after every insert,
``resolve_with_depth`` visit counts for present and absent keys, every
proof's steps and ``records()``. A refactor of the tree walk must keep it
byte-identical; a change that moves it must say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
import struct

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from agentmesh.registry import KeyAbsentError, MerkleRadixIndex, RegistryRecord, verify_proof
from _helpers import did_for

WALK_DIGEST = "4efe7bc9acaf3594a91577e5d366c90a8735ceb1e7a29442181bd160e1d1c45d"

_OWNER = did_for("walk-owner")


def _record(key: str, version: int, rng: random.Random) -> RegistryRecord:
    return RegistryRecord(key, f"https://m/{rng.randrange(1 << 20)}", rng.randbytes(32), _OWNER, version, rng.randbytes(64))


def _walk_keys(rng: random.Random) -> tuple[list[str], list[str]]:
    """(keys to insert, absent probes): DIDs, DIDs sharing long prefixes,
    names, short and empty keys, and non-ASCII keys."""
    shared = "did:nanda:" + rng.randbytes(20).hex()
    keys = ["", "a", "b", "ab", "did:", "did:x", "é", "ÿÿ", "\U0001f600"]
    keys += ["did:nanda:" + rng.randbytes(32).hex() for _ in range(250)]
    keys += [shared + rng.randbytes(4).hex() for _ in range(60)]
    keys += [f"agent-{i}" for i in range(150)]
    keys += ["".join(rng.choice("abcxyz-.") for _ in range(rng.randrange(1, 6))) for _ in range(120)]
    keys = list(dict.fromkeys(keys))
    absent = ["c", "did", "did:y", "agent-", "agent-1000", shared, "did:nanda:" + "0" * 64, "þ"]
    absent += [shared + rng.randbytes(4).hex() for _ in range(30)]
    absent += ["did:nanda:" + rng.randbytes(32).hex() for _ in range(30)]
    absent += [k[:-1] for k in rng.sample(keys, 40) if k]
    present = set(keys)
    return keys, [k for k in dict.fromkeys(absent) if k not in present]


def _feed_probe(h, index: MerkleRadixIndex, key: str) -> None:
    record, visits = index.resolve_with_depth(key)
    h.update(struct.pack(">I", visits))
    h.update(b"-" if record is None else record.canonical_bytes())
    try:
        proof = index.prove_inclusion(key)
    except KeyAbsentError:
        h.update(b"absent")
        return
    h.update(struct.pack(">H", len(proof.steps)))
    for step in proof.steps:
        h.update(struct.pack(">HBB", step.bitmap, step.position, len(step.siblings)) + b"".join(step.siblings))


def _walk_digest(seed: int) -> str:
    rng = random.Random(seed)
    keys, absent = _walk_keys(rng)
    index = MerkleRadixIndex()
    h = hashlib.sha256()
    h.update(index.root_digest)
    _feed_probe(h, index, "a")
    versions: dict[str, int] = {}
    order = keys + rng.sample(keys, 200)  # the tail replaces stored records
    rng.shuffle(order)
    for key in order:
        versions[key] = versions.get(key, 0) + 1
        index.insert_trusted(_record(key, versions[key], rng))
        h.update(index.root_digest)
        h.update(struct.pack(">I", len(index)))
    for key in keys + absent:
        _feed_probe(h, index, key)
    for record in index.records():
        h.update(record.canonical_bytes())
    return h.hexdigest()


def test_observable_walk_is_pinned():
    assert _walk_digest(20261018) == WALK_DIGEST


_KEYS = st.one_of(
    st.text(alphabet="abé", max_size=4),
    st.text(alphabet="0f", min_size=1, max_size=3).map(lambda s: "did:" + s),
)


class IndexAgainstDict(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.index = MerkleRadixIndex()
        self.model: dict[str, RegistryRecord] = {}
        self.rng = random.Random(0)

    @rule(key=_KEYS)
    def insert(self, key: str) -> None:
        current = self.model.get(key)
        record = _record(key, 1 if current is None else current.version + 1, self.rng)
        self.index.insert_trusted(record)
        self.model[key] = record

    @rule(key=_KEYS)
    def probe(self, key: str) -> None:
        record, visits = self.index.resolve_with_depth(key)
        assert record == self.model.get(key)
        assert visits <= len(self.model) + 1
        if record is None:
            try:
                self.index.prove_inclusion(key)
            except KeyAbsentError:
                return
            raise AssertionError(f"proof for absent key {key!r}")
        assert verify_proof(self.index.root_digest, self.index.prove_inclusion(key))

    @invariant()
    def matches_model(self) -> None:
        assert len(self.index) == len(self.model)
        assert self.index.root_digest == self.index.recompute_root()
        assert self.index.records() == [self.model[k] for k in sorted(self.model)]


IndexAgainstDict.TestCase.settings = settings(max_examples=60, stateful_step_count=30)
test_index_against_dict = IndexAgainstDict.TestCase
