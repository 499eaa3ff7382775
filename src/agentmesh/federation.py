"""Eventually consistent replication of registry records across a mesh.

State-based last-writer-wins map with version-vector delta sync and
push-pull gossip (fanout 1 per round). Merge is commutative, associative,
and idempotent; a replica's version vector summarizes which writes its
store already dominates, so exchanging deltas against the peer's vector is
equivalent to merging full states. Each replica also keeps a per-writer log
of its live entries sorted by sequence, so a delta is read off in
O(writers·log S + |delta|), with S the number of live keys, not by a scan of
the store.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field

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
    "ConvergenceSummary",
    "merge",
    "gossip_round",
    "rounds_to_convergence",
    "default_round_cap",
]


@dataclass(frozen=True, order=True)
class LwwTag:
    """Total order over writes: (logical_time, writer_id, sequence)."""

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
        size = 12 * len(self.version_vector)
        for key, record, _tag in self.entries:
            size += len(enc_str(key)) + 20 + len(record.canonical_bytes())
        return size


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
        public_key = resolver.get(str(record.owner))
        if public_key is None or not verify(public_key, record.signing_bytes(), record.signature):
            raise BadSignatureError(f"record for {record.key!r} fails owner signature check")
        sequence = self.version_vector.get(self.replica_id, 0) + 1
        self.version_vector[self.replica_id] = sequence
        tag = LwwTag(logical_time, self.replica_id, sequence)
        self._apply_entry(record.key, record, tag)
        return tag

    def get(self, key: str) -> RegistryRecord | None:
        entry = self.store.get(key)
        return entry[0] if entry else None

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

    def _entries_after(self, digest: dict[int, int]) -> list[tuple[str, RegistryRecord, LwwTag]]:
        """Live entries whose sequence exceeds `digest` for their writer,
        writer-major and in ascending sequence order."""
        store = self.store
        entries = []
        for writer, (seqs, keys) in self._log.items():
            for key in keys[bisect.bisect_right(seqs, digest.get(writer, 0)) :]:
                record, tag = store[key]
                entries.append((key, record, tag))
        return entries

    def delta_for(self, remote_digest: dict[int, int]) -> DeltaSet:
        return DeltaSet(entries=self._entries_after(remote_digest), version_vector=dict(self.version_vector))

    def apply_delta(self, delta: DeltaSet) -> None:
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

    def store_tags(self) -> dict[str, LwwTag]:
        return {key: tag for key, (_record, tag) in self.store.items()}

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


@dataclass
class Topology:
    kind: str
    n: int
    neighbor_lists: list[list[int]]

    @classmethod
    def complete(cls, n: int) -> "Topology":
        return cls("complete", n, [[j for j in range(n) if j != i] for i in range(n)])

    @classmethod
    def ring(cls, n: int) -> "Topology":
        if n <= 1:
            return cls("ring", n, [[] for _ in range(n)])
        if n == 2:
            return cls("ring", n, [[1], [0]])
        return cls("ring", n, [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)])

    @classmethod
    def random_regular(cls, n: int, k: int, seed: int, max_tries: int = 200) -> "Topology":
        """Connected k-regular graph via the pairing model, retrying bounded
        times on self-loops, multi-edges, or disconnection."""
        if n * k % 2 != 0 or k >= n:
            raise ValueError(f"no {k}-regular graph on {n} nodes")
        rng = random.Random(seed)
        for _ in range(max_tries):
            stubs = [i for i in range(n) for _ in range(k)]
            rng.shuffle(stubs)
            edges = set()
            ok = True
            for a, b in zip(stubs[::2], stubs[1::2]):
                if a == b or (a, b) in edges or (b, a) in edges:
                    ok = False
                    break
                edges.add((a, b))
            if not ok:
                continue
            lists: list[list[int]] = [[] for _ in range(n)]
            for a, b in edges:
                lists[a].append(b)
                lists[b].append(a)
            topo = cls("random_regular", n, [sorted(l) for l in lists])
            if topo.is_connected():
                return topo
        raise ValueError(f"no connected {k}-regular graph found in {max_tries} tries")

    @classmethod
    def from_neighbors(cls, neighbor_lists: list[list[int]]) -> "Topology":
        return cls("custom", len(neighbor_lists), [sorted(l) for l in neighbor_lists])

    def neighbors(self, i: int) -> list[int]:
        return self.neighbor_lists[i]

    def sample_neighbor(self, i: int, rng: random.Random) -> int | None:
        options = self.neighbor_lists[i]
        if not options:
            return None
        return options[rng.randrange(len(options))]

    def is_connected(self) -> bool:
        if self.n <= 1:
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


def converged_count(mesh: list[ReplicaState], target_tags: dict[str, LwwTag], target_vv: dict[int, int]) -> int:
    count = 0
    for replica in mesh:
        if replica.version_vector == target_vv and replica.store_tags() == target_tags:
            count += 1
    return count


def mesh_target(mesh: list[ReplicaState]) -> tuple[dict[str, LwwTag], dict[int, int]]:
    """Join of every replica's state. Each replica contributes only what the
    running join's vector lacks: a reachable store dominates its own vector,
    so the writes it skips are already dominated by the join."""
    acc = ReplicaState(-1)
    for replica in mesh:
        acc.apply_delta(DeltaSet(replica._entries_after(acc.version_vector), replica.version_vector))
    return acc.store_tags(), acc.version_vector


def gossip_round(
    mesh: list[ReplicaState],
    topology: Topology,
    rng: random.Random,
    target: tuple[dict[str, LwwTag], dict[int, int]] | None = None,
) -> RoundStats:
    """One synchronous push-pull round: every replica contacts one uniform-
    random neighbor, both sides exchange deltas computed against start-of-
    round state, and all deltas apply at the end of the round (the classic
    epidemic model whose spread time is logarithmic in mesh size)."""
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
    target_tags, target_vv = target if target is not None else mesh_target(mesh)
    return RoundStats(messages=messages, bytes_sent=bytes_sent, converged=converged_count(mesh, target_tags, target_vv))


def default_round_cap(n: int) -> int:
    return 64 * max(1, math.ceil(math.log2(max(2, n)))) + 64


@dataclass
class ConvergenceSummary:
    n: int
    topology: str
    trials: int
    rounds: list[int | None]  # None marks a non-convergent trial
    median_rounds: float | None
    p95_rounds: float | None
    nonconvergent: int
    stats_rows: list[dict] = field(default_factory=list)


def _derive_trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"gossip-trial:{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rounds_to_convergence(
    n: int,
    topology: Topology,
    trials: int,
    seed: int,
    record_source,
    rounds_cap: int | None = None,
) -> ConvergenceSummary:
    """Distribution of rounds until a single fresh record reaches every
    replica. `record_source(trial)` must return (record, resolver)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cap = rounds_cap if rounds_cap is not None else default_round_cap(n)
    per_trial: list[int | None] = []
    stats_rows: list[dict] = []
    for trial in range(trials):
        rng = random.Random(_derive_trial_seed(seed, trial))
        mesh = [ReplicaState(i) for i in range(n)]
        record, resolver = record_source(trial)
        mesh[0].local_put(record, logical_time=1, resolver=resolver)
        target = mesh_target(mesh)
        rounds_used: int | None = 0
        if converged_count(mesh, *target) < n:
            rounds_used = None
            for round_idx in range(1, cap + 1):
                stats = gossip_round(mesh, topology, rng, target=target)
                stats_rows.append(
                    {
                        "trial": trial,
                        "round": round_idx,
                        "converged_count": stats.converged,
                        "messages": stats.messages,
                        "bytes": stats.bytes_sent,
                    }
                )
                if stats.converged == n:
                    rounds_used = round_idx
                    break
        per_trial.append(rounds_used)
    converged_rounds = [r for r in per_trial if r is not None]
    median_rounds = float(statistics.median(converged_rounds)) if converged_rounds else None
    p95 = None
    if converged_rounds:
        ordered = sorted(converged_rounds)
        p95 = float(ordered[min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)])
    return ConvergenceSummary(
        n=n,
        topology=topology.kind,
        trials=trials,
        rounds=per_trial,
        median_rounds=median_rounds,
        p95_rounds=p95,
        nonconvergent=sum(1 for r in per_trial if r is None),
        stats_rows=stats_rows,
    )
