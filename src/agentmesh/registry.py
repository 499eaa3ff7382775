"""Fast-resolving authenticated index: DID or name -> signed registry record,
backed by a path-compressed radix-16 tree with Merkle digests and inclusion
proofs.

Hash rules:
  empty tree root  = SHA-256(0x00)
  leaf digest      = SHA-256(0x01 || canonical record bytes)
  internal digest  = SHA-256(0x02 || u16 child-presence bitmap || child digests
                     in ascending nibble order)

Keys are namespaced (0x44 'D' for DIDs, 0x4E 'N' for names) and length-
prefixed, which makes the stored key set prefix-free: every record lives in a
leaf and internal nodes never carry values. A key's path through the tree is
its storage bytes in hex, one character per nibble ('0'-'f' sort as the
nibbles do); node prefixes are substrings of it and are not hashed. The root
digest is a function of the record set alone, independent of insert order.

One descent, `MerkleRadixIndex._walk`, serves insert, resolve and prove, and
one function, `_digest`, hashes a node for both the cached digests and the
from-scratch `recompute_root`. An internal node keeps its children in
ascending nibble order, sorted once when a child is added, so hashing a node
and proving through it read the children as they are kept. An insert costs
one walk of O(key nibbles) plus one SHA-256 per node on the path.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .identity import DIGEST_LEN, SIG_LEN, AgentDid, KeyResolver, sha256, sign, verify
from .wire import enc_str, enc_u16, enc_u64, json_hex, json_list, json_object, json_str, json_u64

__all__ = [
    "EMPTY_ROOT",
    "RegistryRecord",
    "InclusionProof",
    "ProofStep",
    "MerkleRadixIndex",
    "BadSignatureError",
    "StaleVersionError",
    "KeyAbsentError",
    "SnapshotRootMismatch",
    "make_record",
    "verify_proof",
]

EMPTY_ROOT = sha256(b"\x00")

_LEAF_DOMAIN = b"\x01"
_INTERNAL_DOMAIN = b"\x02"
_NS_DID = 0x44
_NS_NAME = 0x4E


class BadSignatureError(ValueError):
    """Record signature does not verify under the owner's key."""


class StaleVersionError(ValueError):
    """Record version does not advance the stored version for its key."""


class KeyAbsentError(KeyError):
    """Proof requested for a key that is not in the index."""


class SnapshotRootMismatch(ValueError):
    """Imported snapshot does not reproduce its declared root digest."""


@dataclass(frozen=True)
class RegistryRecord:
    key: str
    metadata_url: str
    card_digest: bytes
    owner: AgentDid
    version: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        return (
            enc_str(self.key)
            + enc_str(self.metadata_url)
            + self.card_digest
            + enc_str(self.owner)
            + enc_u64(self.version)
        )

    def canonical_bytes(self) -> bytes:
        return self.signing_bytes() + self.signature

    @cached_property
    def wire_size(self) -> int:
        """Bytes of the keyed record on the wire, `enc_str(key)` then
        `canonical_bytes()`; computed once, since records are frozen."""
        return len(enc_str(self.key)) + len(self.canonical_bytes())

    def to_json_obj(self) -> dict:
        return {
            "key": self.key,
            "metadata_url": self.metadata_url,
            "card_digest": self.card_digest.hex(),
            "owner": self.owner,
            "version": self.version,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegistryRecord":
        obj = json_object(obj, "record")
        key, metadata_url, owner = (
            json_str(obj.get(name), f"record field {name!r}") for name in ("key", "metadata_url", "owner")
        )
        return cls(
            key=key,
            metadata_url=metadata_url,
            card_digest=json_hex(obj.get("card_digest"), "record field 'card_digest'", DIGEST_LEN),
            owner=AgentDid(owner),
            version=json_u64(obj.get("version"), "record field 'version'"),
            signature=json_hex(obj.get("signature"), "record field 'signature'", SIG_LEN),
        )


def make_record(
    key: str,
    metadata_url: str,
    card_digest: bytes,
    owner_secret_key: bytes,
    owner: AgentDid,
    version: int,
) -> RegistryRecord:
    """Build and sign a record with the owner's key."""
    unsigned = RegistryRecord(key, metadata_url, card_digest, owner, version, b"")
    return RegistryRecord(
        key, metadata_url, card_digest, owner, version, sign(owner_secret_key, unsigned.signing_bytes())
    )


@dataclass(frozen=True)
class ProofStep:
    bitmap: int
    position: int
    siblings: tuple[bytes, ...]


@dataclass(frozen=True)
class InclusionProof:
    key: str
    record: RegistryRecord
    steps: tuple[ProofStep, ...]  # root-most first


def _storage_key(key: str) -> bytes:
    data = key.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ValueError("key too long")
    ns = _NS_DID if key.startswith("did:") else _NS_NAME
    return bytes([ns]) + struct.pack(">H", len(data)) + data


def _leaf_digest(record: RegistryRecord) -> bytes:
    return sha256(_LEAF_DOMAIN + record.canonical_bytes())


def _internal_digest(bitmap: int, child_digests: list[bytes]) -> bytes:
    return sha256(_INTERNAL_DOMAIN + enc_u16(bitmap) + b"".join(child_digests))


_NIBBLE_BIT = {f"{n:x}": 1 << n for n in range(16)}


def _bitmap(children: dict[str, _Node]) -> int:
    return sum(map(_NIBBLE_BIT.__getitem__, children))


class _Node:
    __slots__ = ("prefix", "record", "children", "digest")

    def __init__(self, prefix: str, record: RegistryRecord | None = None) -> None:
        self.prefix = prefix  # hex nibbles of the storage key below the parent
        self.record = record
        # First nibble of each child's prefix -> child, in ascending nibble order.
        self.children: dict[str, _Node] = {}
        self.digest = b""

    def add_child(self, child: "_Node") -> None:
        """Add a child under a nibble that has none, keeping nibble order."""
        self.children[child.prefix[0]] = child
        self.children = dict(sorted(self.children.items()))

    def refresh_digest(self) -> None:
        self.digest = _digest(self, lambda child: child.digest)


def _digest(node: _Node, child_digest: Callable[[_Node], bytes]) -> bytes:
    """The node's digest, given a digest for each of its children."""
    if node.record is not None:
        return _leaf_digest(node.record)
    children = node.children
    return _internal_digest(_bitmap(children), [child_digest(child) for child in children.values()])


class MerkleRadixIndex:
    """Single-writer authenticated map. Mutations keep the root digest
    incrementally consistent with a full recomputation."""

    def __init__(self) -> None:
        self._root: _Node | None = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def root_digest(self) -> bytes:
        return EMPTY_ROOT if self._root is None else self._root.digest

    def _walk(self, path: str) -> tuple[list[tuple[_Node, int]], _Node | None]:
        """Descend along `path`: the nodes examined, root first, each with
        the offset in `path` where its prefix starts, and the leaf holding
        the key, or None."""
        trail: list[tuple[_Node, int]] = []
        node = self._root
        offset = 0
        while node is not None:
            trail.append((node, offset))
            if not path.startswith(node.prefix, offset):
                break
            offset += len(node.prefix)
            if node.record is not None:
                # Prefix-free paths: a leaf matched in full holds this key.
                return trail, node
            node = node.children.get(path[offset])
        return trail, None

    # -- mutation ---------------------------------------------------------

    def insert(self, record: RegistryRecord, resolver: KeyResolver) -> None:
        public_key = resolver.get(record.owner)
        if public_key is None or not verify(public_key, record.signing_bytes(), record.signature):
            raise BadSignatureError(f"record for {record.key!r} fails owner signature check")
        existing = self.resolve(record.key)
        if existing is not None and record.version <= existing.version:
            raise StaleVersionError(
                f"version {record.version} does not advance stored {existing.version} for {record.key!r}"
            )
        self.insert_trusted(record)

    def insert_trusted(self, record: RegistryRecord) -> None:
        """Insert without signature/version checks: for records that were
        already verified (snapshot restore, replicated stores)."""
        path = _storage_key(record.key).hex()
        trail, leaf = self._walk(path)
        if leaf is not None:
            leaf.record = record
        elif not trail:
            self._root = _Node(path, record)
            trail.append((self._root, 0))
        else:
            node, offset = trail[-1]
            rest = path[offset:]
            if rest.startswith(node.prefix):
                # An internal node with no child for the next nibble: add one.
                new = _Node(rest[len(node.prefix) :], record)
                node.add_child(new)
            else:
                # Diverge inside this node's compressed prefix: split it.
                common = len(os.path.commonprefix([rest, node.prefix]))
                top = _Node(node.prefix[:common])
                node.prefix = node.prefix[common:]
                new = _Node(rest[common:], record)
                top.add_child(node)
                top.add_child(new)
                if len(trail) == 1:
                    self._root = top
                else:
                    # Replaces `node` under the same nibble, in its place.
                    trail[-2][0].children[top.prefix[0]] = top
                trail[-1] = (top, offset)
            trail.append((new, 0))
        for node, _offset in reversed(trail):
            node.refresh_digest()
        if leaf is None:
            self._count += 1

    # -- lookup -----------------------------------------------------------

    def resolve(self, key: str) -> RegistryRecord | None:
        return self.resolve_with_depth(key)[0]

    def resolve_with_depth(self, key: str) -> tuple[RegistryRecord | None, int]:
        """Resolve and report the number of nodes visited."""
        trail, leaf = self._walk(_storage_key(key).hex())
        return (None if leaf is None else leaf.record), len(trail)

    def records(self) -> list[RegistryRecord]:
        """All records, sorted by key."""
        out: list[RegistryRecord] = []
        stack = [] if self._root is None else [self._root]
        while stack:
            node = stack.pop()
            if node.record is not None:
                out.append(node.record)
            else:
                stack.extend(node.children.values())
        return sorted(out, key=lambda r: r.key)

    # -- proofs -----------------------------------------------------------

    def prove_inclusion(self, key: str) -> InclusionProof:
        path = _storage_key(key).hex()
        trail, leaf = self._walk(path)
        if leaf is None:
            raise KeyAbsentError(key)
        steps = []
        for node, offset in trail[:-1]:
            nib = path[offset + len(node.prefix)]
            children = node.children
            siblings = tuple(child.digest for n, child in children.items() if n != nib)
            steps.append(ProofStep(bitmap=_bitmap(children), position=int(nib, 16), siblings=siblings))
        return InclusionProof(key=key, record=leaf.record, steps=tuple(steps))

    # -- oracle / export --------------------------------------------------

    def recompute_root(self) -> bytes:
        """Full from-scratch recomputation, ignoring cached digests."""

        def walk(node: _Node) -> bytes:
            return _digest(node, walk)

        return EMPTY_ROOT if self._root is None else walk(self._root)

    def export_snapshot(self) -> dict:
        return {
            "root_digest": self.root_digest.hex(),
            "records": [r.to_json_obj() for r in self.records()],
        }

    @classmethod
    def import_snapshot(cls, obj: object) -> "MerkleRadixIndex":
        """Rebuild from a snapshot. This is a trusted restore path: record
        signatures were checked at original insert time, and integrity is
        enforced by requiring the rebuilt root to match the declared one.
        Any JSON value that is not such a snapshot raises ValueError."""
        obj = json_object(obj, "snapshot")
        index = cls()
        for rec_obj in json_list(obj.get("records"), "snapshot field 'records'"):
            index.insert_trusted(RegistryRecord.from_json_obj(rec_obj))
        declared = json_hex(obj.get("root_digest"), "snapshot field 'root_digest'", DIGEST_LEN)
        if index.root_digest != declared:
            raise SnapshotRootMismatch(
                f"rebuilt root {index.root_digest.hex()} != declared {declared.hex()}"
            )
        return index


def verify_proof(root_digest: bytes, proof: InclusionProof) -> bool:
    """Recompute the root from the leaf upward; any tampering breaks it."""
    try:
        if proof.record.key != proof.key:
            return False
        digest = _leaf_digest(proof.record)
        for step in reversed(proof.steps):
            positions = [n for n in range(16) if step.bitmap & (1 << n)]
            if step.position not in positions:
                return False
            if len(step.siblings) != len(positions) - 1:
                return False
            ordered: list[bytes] = []
            sib = iter(step.siblings)
            for n in positions:
                ordered.append(digest if n == step.position else next(sib))
            digest = _internal_digest(step.bitmap, ordered)
        return digest == root_digest
    except Exception:
        return False
