"""Fast-resolving authenticated index: DID or name -> signed registry record,
backed by a path-compressed radix-16 tree with Merkle digests and inclusion
proofs.

Hash rules:
  empty tree root  = SHA-256(0x00)
  leaf digest      = SHA-256(0x01 || canonical record bytes)
  internal digest  = SHA-256(0x02 || u16 child-presence bitmap || child digests
                     in ascending nibble order)

Keys are namespaced (0x44 'D' for DIDs, 0x4E 'N' for names) and length-
prefixed before nibble expansion, which makes the stored key set prefix-free:
every record lives in a leaf and internal nodes never carry values. The root
digest is a function of the record set alone, independent of insert order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .identity import AgentDid, KeyResolver, resolve_key, sha256, sign, verify
from .wire import enc_str, enc_u16, enc_u64

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
            + enc_str(str(self.owner))
            + enc_u64(self.version)
        )

    def canonical_bytes(self) -> bytes:
        return self.signing_bytes() + self.signature

    def to_json_obj(self) -> dict:
        return {
            "key": self.key,
            "metadata_url": self.metadata_url,
            "card_digest": self.card_digest.hex(),
            "owner": str(self.owner),
            "version": self.version,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegistryRecord":
        for name in ("key", "metadata_url", "card_digest", "owner", "signature"):
            if not isinstance(obj[name], str):
                raise ValueError(f"record field {name!r} must be a string")
        version = obj["version"]
        if not isinstance(version, int) or isinstance(version, bool) or not 0 <= version < 1 << 64:
            raise ValueError("record field 'version' must be an integer in [0, 2**64)")
        return cls(
            key=obj["key"],
            metadata_url=obj["metadata_url"],
            card_digest=bytes.fromhex(obj["card_digest"]),
            owner=AgentDid.parse(obj["owner"]),
            version=version,
            signature=bytes.fromhex(obj["signature"]),
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


def _nibbles(data: bytes) -> tuple[int, ...]:
    out = []
    for b in data:
        out.append(b >> 4)
        out.append(b & 0xF)
    return tuple(out)


def _leaf_digest(record: RegistryRecord) -> bytes:
    return sha256(_LEAF_DOMAIN + record.canonical_bytes())


def _internal_digest(bitmap: int, child_digests: list[bytes]) -> bytes:
    return sha256(_INTERNAL_DOMAIN + enc_u16(bitmap) + b"".join(child_digests))


class _Node:
    __slots__ = ("prefix", "record", "children", "digest")

    def __init__(
        self,
        prefix: tuple[int, ...],
        record: RegistryRecord | None = None,
        children: dict[int, "_Node"] | None = None,
    ) -> None:
        self.prefix = prefix
        self.record = record
        self.children: dict[int, _Node] = children if children is not None else {}
        self.digest = b""

    def refresh_digest(self) -> None:
        if self.record is not None:
            self.digest = _leaf_digest(self.record)
            return
        bitmap = 0
        digests = []
        for nib in sorted(self.children):
            bitmap |= 1 << nib
            digests.append(self.children[nib].digest)
        self.digest = _internal_digest(bitmap, digests)


def _common_len(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


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

    # -- mutation ---------------------------------------------------------

    def insert(self, record: RegistryRecord, resolver: KeyResolver) -> None:
        public_key = resolve_key(resolver, str(record.owner))
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
        key_nibs = _nibbles(_storage_key(record.key))
        is_replacement = False

        if self._root is None:
            self._root = _Node(key_nibs, record=record)
            self._root.refresh_digest()
            self._count = 1
            return

        path: list[_Node] = []
        node = self._root
        offset = 0
        while True:
            rel = key_nibs[offset:]
            common = _common_len(rel, node.prefix)
            if common == len(node.prefix):
                if node.record is not None:
                    # Prefix-free keys: a full prefix match on a leaf is the
                    # same key, replacing the stored record.
                    node.record = record
                    is_replacement = True
                    path.append(node)
                    break
                offset += common
                nib = key_nibs[offset]
                child = node.children.get(nib)
                if child is None:
                    leaf = _Node(key_nibs[offset:], record=record)
                    leaf.refresh_digest()
                    node.children[nib] = leaf
                    path.append(node)
                    break
                path.append(node)
                node = child
            else:
                # Diverge inside this node's compressed prefix: split it.
                top = _Node(node.prefix[:common])
                node.prefix = node.prefix[common:]
                leaf = _Node(rel[common:], record=record)
                leaf.refresh_digest()
                top.children = {node.prefix[0]: node, leaf.prefix[0]: leaf}
                parent = path[-1] if path else None
                if parent is None:
                    self._root = top
                else:
                    parent.children[top.prefix[0]] = top
                path.append(top)
                break

        for n in reversed(path):
            n.refresh_digest()
        if not is_replacement:
            self._count += 1

    # -- lookup -----------------------------------------------------------

    def resolve(self, key: str) -> RegistryRecord | None:
        return self.resolve_with_depth(key)[0]

    def resolve_with_depth(self, key: str) -> tuple[RegistryRecord | None, int]:
        """Resolve and report the number of nodes visited."""
        key_nibs = _nibbles(_storage_key(key))
        node = self._root
        offset = 0
        visits = 0
        while node is not None:
            visits += 1
            end = offset + len(node.prefix)
            if key_nibs[offset:end] != node.prefix:
                return None, visits
            offset = end
            if offset == len(key_nibs):
                return node.record, visits
            if node.record is not None:
                return None, visits
            node = node.children.get(key_nibs[offset])
        return None, visits

    def records(self) -> list[RegistryRecord]:
        """All records, sorted by key."""
        out: list[RegistryRecord] = []

        def walk(node: _Node) -> None:
            if node.record is not None:
                out.append(node.record)
                return
            for nib in sorted(node.children):
                walk(node.children[nib])

        if self._root is not None:
            walk(self._root)
        return sorted(out, key=lambda r: r.key)

    # -- proofs -----------------------------------------------------------

    def prove_inclusion(self, key: str) -> InclusionProof:
        key_nibs = _nibbles(_storage_key(key))
        node = self._root
        offset = 0
        steps: list[ProofStep] = []
        while node is not None:
            end = offset + len(node.prefix)
            if key_nibs[offset:end] != node.prefix:
                break
            offset = end
            if offset == len(key_nibs):
                if node.record is None:
                    break
                return InclusionProof(key=key, record=node.record, steps=tuple(steps))
            if node.record is not None:
                break
            nib = key_nibs[offset]
            child = node.children.get(nib)
            if child is None:
                break
            bitmap = 0
            siblings = []
            for n in sorted(node.children):
                bitmap |= 1 << n
                if n != nib:
                    siblings.append(node.children[n].digest)
            steps.append(ProofStep(bitmap=bitmap, position=nib, siblings=tuple(siblings)))
            node = child
        raise KeyAbsentError(key)

    # -- oracle / export --------------------------------------------------

    def recompute_root(self) -> bytes:
        """Full from-scratch recomputation, ignoring cached digests."""

        def walk(node: _Node) -> bytes:
            if node.record is not None:
                return _leaf_digest(node.record)
            bitmap = 0
            digests = []
            for nib in sorted(node.children):
                bitmap |= 1 << nib
                digests.append(walk(node.children[nib]))
            return _internal_digest(bitmap, digests)

        if self._root is None:
            return EMPTY_ROOT
        return walk(self._root)

    def export_snapshot(self) -> dict:
        return {
            "root_digest": self.root_digest.hex(),
            "records": [r.to_json_obj() for r in self.records()],
        }

    @classmethod
    def import_snapshot(cls, obj: dict) -> "MerkleRadixIndex":
        """Rebuild from a snapshot. This is a trusted restore path: record
        signatures were checked at original insert time, and integrity is
        enforced by requiring the rebuilt root to match the declared one."""
        index = cls()
        for rec_obj in obj["records"]:
            index.insert_trusted(RegistryRecord.from_json_obj(rec_obj))
        declared = bytes.fromhex(obj["root_digest"])
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
