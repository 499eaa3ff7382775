"""Eventually consistent replication of registry records across a mesh.

State-based last-writer-wins map with version-vector delta sync and
push-pull gossip (fanout 1 per round). Merge is commutative, associative,
and idempotent; a replica's version vector summarizes which writes its
store already dominates, so exchanging deltas against the peer's vector is
equivalent to merging full states. Each replica also keeps a per-writer log
of its live entries sorted by sequence, so a delta costs one comparison per
writer, plus O(log S) for each writer with entries the peer lacks, plus
O(|delta|), with S the number of live keys, not a scan of the store; its size
sums the wire sizes each record computes once. A delta against a digest equal
to the replica's own vector is empty and costs one dict comparison. Tags are
tuples, so each LWW comparison runs in C. A reachable replica's store is the
LWW fold of exactly the writes its vector covers, so two replicas with equal
vectors hold equal stores: convergence is a vector comparison, O(writers) per
replica.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .identity import KeyResolver, verify
from .registry import BadSignatureError, RegistryRecord
from .wire import enc_str, enc_u32, enc_u64

__all__ = [
    "LwwTag",
    "mesh_target",
    "converged_count",
    "DeltaSet",
    "ReplicaState",
    "RoundStats",
    "Topology",
    "merge",
    "gossip_round",
    "gossip_to_convergence",
    "default_round_cap",
]


class LwwTag(NamedTuple):
    """Total order over writes: (logical_time, writer_id, sequence), compared
    as a tuple, so each LWW comparison runs in C."""

    logical_time: int
    writer_id: int
    sequence: int


@dataclass
class DeltaSet:
    """Entries the sender holds that the receiver's vector lacks, plus the
    sender's full version vector."""

    entries: list[tuple[str, RegistryRecord, LwwTag]]
    version_vector: dict[int, int]

    def encoded_size(self) -> int:
        # An entry's key is its record's key, so an entry is the record's wire
        # size plus a 20-byte tag; the vector is 12 bytes a writer.
        sizes = sum(record.wire_size for _key, record, _tag in self.entries)
        return 12 * len(self.version_vector) + 20 * len(self.entries) + sizes


def _digest_size(version_vector: dict[int, int]) -> int:
    return 12 * len(version_vector)


class ReplicaState:
    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.store: dict[str, tuple[RegistryRecord, LwwTag]] = {}
        self.version_vector: dict[int, int] = {}
        # writer_id -> (sequences, keys): parallel lists, one slot per live
        # store entry that writer wrote, in ascending sequence order.
        self._log: dict[int, tuple[list[int], list[str]]] = {}

    # -- local writes -------------------------------------------------------

    def local_put(self, record: RegistryRecord, logical_time: int, resolver: KeyResolver) -> LwwTag:
        public_key = resolver.get(record.owner)
        if public_key is None or not verify(public_key, record.signing_bytes(), record.signature):
            raise BadSignatureError(f"record for {record.key!r} fails owner signature check")
        sequence = self.version_vector.get(self.replica_id, 0) + 1
        self.version_vector[self.replica_id] = sequence
        tag = LwwTag(logical_time, self.replica_id, sequence)
        self._apply_entry(record.key, record, tag)
        return tag

    def _apply_entry(self, key: str, record: RegistryRecord, tag: LwwTag) -> None:
        current = self.store.get(key)
        if current is not None:
            old = current[1]
            if not tag > old:
                return
            seqs, keys = self._log[old.writer_id]
            slot = bisect.bisect_left(seqs, old.sequence)
            del seqs[slot]
            del keys[slot]
        self.store[key] = (record, tag)
        seqs, keys = self._log.setdefault(tag.writer_id, ([], []))
        slot = bisect.bisect_right(seqs, tag.sequence)
        seqs.insert(slot, tag.sequence)
        keys.insert(slot, key)

    # -- sync ---------------------------------------------------------------

    def digest(self) -> dict[int, int]:
        return dict(self.version_vector)

    def delta_for(self, remote_digest: dict[int, int]) -> DeltaSet:
        """Live entries whose sequence exceeds `remote_digest` for their
        writer, writer-major and in ascending sequence order. A writer whose
        newest live entry the peer has seen costs one comparison. A digest
        equal to this replica's vector lacks nothing, since the vector covers
        every live entry: one dict comparison answers it. That cover holds in
        every state that local puts, `merge` and deltas from `delta_for`
        reach; a hand-made delta whose vector omits its own entries' sequences
        leaves a state outside it."""
        if remote_digest == self.version_vector:
            return DeltaSet(entries=[], version_vector=dict(self.version_vector))
        store = self.store
        entries = []
        for writer, (seqs, keys) in self._log.items():
            seen = remote_digest.get(writer, 0)
            if not seqs or seqs[-1] <= seen:
                continue
            for key in keys[bisect.bisect_right(seqs, seen) :]:
                record, tag = store[key]
                entries.append((key, record, tag))
        return DeltaSet(entries=entries, version_vector=dict(self.version_vector))

    def apply_delta(self, delta: DeltaSet) -> None:
        if not delta.entries and delta.version_vector == self.version_vector:
            return  # nothing to merge, and the vector fold would change nothing
        for key, record, tag in delta.entries:
            self._apply_entry(key, record, tag)
        for writer, seq in delta.version_vector.items():
            if seq > self.version_vector.get(writer, 0):
                self.version_vector[writer] = seq

    # -- equality and fingerprints -------------------------------------------

    def copy(self) -> "ReplicaState":
        out = ReplicaState(self.replica_id)
        out.store = dict(self.store)
        out.version_vector = dict(self.version_vector)
        out._log = {writer: (list(seqs), list(keys)) for writer, (seqs, keys) in self._log.items()}
        return out

    def state_equal(self, other: "ReplicaState") -> bool:
        return self.store == other.store and self.version_vector == other.version_vector

    def canonical_store_bytes(self) -> bytes:
        parts = []
        for key in sorted(self.store):
            record, tag = self.store[key]
            parts.append(enc_str(key))
            parts.append(enc_u64(tag.logical_time) + enc_u32(tag.writer_id) + enc_u64(tag.sequence))
            parts.append(record.canonical_bytes())
        return b"".join(parts)

    def store_fingerprint(self) -> bytes:
        return hashlib.sha256(self.canonical_store_bytes()).digest()


def merge(a: ReplicaState, b: ReplicaState) -> ReplicaState:
    """Pure join: per-key LWW maximum, pointwise-max version vectors.
    The result keeps `a`'s replica_id; compare results with state_equal."""
    out = a.copy()
    out.apply_delta(DeltaSet(entries=[(k, r, t) for k, (r, t) in b.store.items()], version_vector=b.version_vector))
    return out


# ---------------------------------------------------------------------------
# Topologies
# ---------------------------------------------------------------------------

def _steger_wormald(n: int, k: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """Edges (a < b) of a simple k-regular graph on n nodes, by Steger and
    Wormald's pairing in rounds: shuffle the unpaired stubs, pair them off,
    and keep each pair that is neither a self-loop nor an edge already made;
    the stubs of the rest go to the next round. None when the stubs left can
    form no new edge."""
    edges: set[tuple[int, int]] = set()
    stubs = [i for i in range(n) for _ in range(k)]
    while stubs:
        rng.shuffle(stubs)
        left: list[int] = []
        for a, b in zip(stubs[::2], stubs[1::2]):
            edge = (a, b) if a < b else (b, a)
            if a != b and edge not in edges:
                edges.add(edge)
            else:
                left += edge
        nodes = sorted(set(left))
        if left and all((a, b) in edges for i, a in enumerate(nodes) for b in nodes[i + 1 :]):
            return None
        stubs = left
    return edges


@dataclass
class Topology:
    kind: str
    n: int
    neighbor_lists: list[list[int]] | None  # None: complete, every other node

    @classmethod
    def complete(cls, n: int) -> "Topology":
        return cls("complete", n, None)

    @classmethod
    def ring(cls, n: int) -> "Topology":
        if n <= 1:
            return cls("ring", n, [[] for _ in range(n)])
        return cls("ring", n, [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)])

    @classmethod
    def random_regular(cls, n: int, k: int, seed: int) -> "Topology":
        """Connected k-regular graph by Steger-Wormald pairing, drawn again
        until it is connected. For k > n/2 it draws an (n-1-k)-regular graph
        and takes its complement, which is connected: two nodes that are not
        adjacent share a neighbour."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        if n * k % 2 != 0 or k >= n:
            raise ValueError(f"no {k}-regular graph on {n} nodes")
        if k == 1 and n > 2:
            raise ValueError(f"no connected 1-regular graph on {n} nodes")
        rng = random.Random(seed)
        complement = 2 * k > n
        while True:
            edges = _steger_wormald(n, n - 1 - k if complement else k, rng)
            if edges is None:
                continue
            if complement:
                edges = {(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges}
            lists: list[list[int]] = [[] for _ in range(n)]
            for a, b in edges:
                lists[a].append(b)
                lists[b].append(a)
            topo = cls("random_regular", n, [sorted(l) for l in lists])
            if topo.is_connected():
                return topo

    def sample_neighbor(self, i: int, rng: random.Random) -> int | None:
        if self.neighbor_lists is None:
            if self.n <= 1:
                return None
            # The same draw and pick as indexing the list of all j != i.
            r = rng.randrange(self.n - 1)
            return r + (r >= i)
        options = self.neighbor_lists[i]
        if not options:
            return None
        return options[rng.randrange(len(options))]

    def is_connected(self) -> bool:
        if self.n <= 1 or self.neighbor_lists is None:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in self.neighbor_lists[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == self.n


# ---------------------------------------------------------------------------
# Gossip
# ---------------------------------------------------------------------------


@dataclass
class RoundStats:
    messages: int
    bytes_sent: int
    converged: int


def converged_count(mesh: list[ReplicaState], target_vv: dict[int, int]) -> int:
    """Replicas whose vector equals the join's: equal vectors imply equal
    stores for reachable states, so no store is compared."""
    return sum(1 for replica in mesh if replica.version_vector == target_vv)


def mesh_target(mesh: list[ReplicaState]) -> dict[int, int]:
    """Version vector of the join of every replica's state, folded through
    apply_delta with entry-less deltas so that one rule takes vector maxima."""
    acc = ReplicaState(-1)
    for replica in mesh:
        acc.apply_delta(DeltaSet([], replica.version_vector))
    return acc.version_vector


def gossip_round(
    mesh: list[ReplicaState],
    topology: Topology,
    rng: random.Random,
    target: dict[int, int],
) -> RoundStats:
    """One synchronous push-pull round: every replica contacts one uniform-
    random neighbor, both sides exchange deltas computed against start-of-
    round state, and all deltas apply at the end of the round (the classic
    epidemic model whose spread time is logarithmic in mesh size). Replicas
    whose vector is `target` count as converged."""
    n = len(mesh)
    digests = [replica.digest() for replica in mesh]
    messages = 0
    bytes_sent = 0
    inbox: list[list[DeltaSet]] = [[] for _ in range(n)]
    for i in range(n):
        j = topology.sample_neighbor(i, rng)
        if j is None:
            continue
        delta_from_j = mesh[j].delta_for(digests[i])
        delta_from_i = mesh[i].delta_for(digests[j])
        inbox[i].append(delta_from_j)
        inbox[j].append(delta_from_i)
        messages += 3  # digest request, delta+digest response, delta push
        bytes_sent += (
            _digest_size(digests[i])
            + _digest_size(digests[j])
            + delta_from_j.encoded_size()
            + delta_from_i.encoded_size()
        )
    for i in range(n):
        for delta in inbox[i]:
            mesh[i].apply_delta(delta)
    return RoundStats(messages=messages, bytes_sent=bytes_sent, converged=converged_count(mesh, target))


def default_round_cap(n: int) -> int:
    return 64 * max(1, math.ceil(math.log2(max(2, n)))) + 64


def gossip_to_convergence(
    mesh: list[ReplicaState],
    topology: Topology,
    rng: random.Random,
    rounds_cap: int | None,
) -> tuple[int | None, list[RoundStats]]:
    """Gossip until every replica holds the join of the mesh's state at the
    call, or until `rounds_cap` rounds (default `default_round_cap`) have run.
    Returns the rounds used (0 for a mesh already converged, None at the cap)
    and the stats of each round run."""
    n = len(mesh)
    cap = rounds_cap if rounds_cap is not None else default_round_cap(n)
    target = mesh_target(mesh)
    stats: list[RoundStats] = []
    if converged_count(mesh, target) == n:
        return 0, stats
    while len(stats) < cap:
        stats.append(gossip_round(mesh, topology, rng, target=target))
        if stats[-1].converged == n:
            return len(stats), stats
    return None, stats
