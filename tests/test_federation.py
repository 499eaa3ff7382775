from __future__ import annotations

import bisect
import dataclasses
import random
import statistics

import pytest
from hypothesis import example, given, strategies as st

from agentmesh import federation
from agentmesh.federation import (
    DeltaSet,
    LwwTag,
    ReplicaState,
    Topology,
    converged_count,
    default_round_cap,
    gossip_round,
    gossip_to_convergence,
    merge,
    mesh_target,
)
from agentmesh.registry import BadSignatureError, MerkleRadixIndex
from agentmesh.wire import enc_str, enc_u32, enc_u64
from _helpers import signed_record, state_from_pool, unsigned_record, write_pool


def _seeded_record():
    return signed_record("seed-key", owner_label="fed-owner")


def test_local_put_visible_and_signature_checked():
    record, resolver = signed_record("k1")
    state = ReplicaState(0)
    state.local_put(record, logical_time=5, resolver=resolver)
    assert state.store["k1"][0] == record
    with pytest.raises(BadSignatureError):
        state.local_put(record, logical_time=6, resolver={})


def test_lww_later_logical_time_wins():
    record_v1, resolver = signed_record("k", version=1)
    record_v2, _ = signed_record("k", version=2)
    state = ReplicaState(0)
    state.local_put(record_v1, logical_time=5, resolver=resolver)
    state.local_put(record_v2, logical_time=9, resolver=resolver)
    assert state.store["k"][0].version == 2
    # an older write arriving later loses
    stale = ReplicaState(1)
    stale.local_put(record_v1, logical_time=2, resolver=resolver)
    merged = merge(state, stale)
    assert merged.store["k"][0].version == 2


def test_lww_tie_breaks_on_higher_writer_id():
    record_a, resolver = signed_record("k", version=1)
    record_b, _ = signed_record("k", version=2)
    low = ReplicaState(1)
    high = ReplicaState(7)
    low.local_put(record_a, logical_time=5, resolver=resolver)
    high.local_put(record_b, logical_time=5, resolver=resolver)
    assert merge(low, high).store["k"][0] == record_b
    assert merge(high, low).store["k"][0] == record_b


def test_merge_semilattice_laws():
    rng = random.Random(21)
    for _ in range(100):
        pool = write_pool(rng)
        a = state_from_pool(pool, rng, 0)
        b = state_from_pool(pool, rng, 1)
        c = state_from_pool(pool, rng, 2)
        assert merge(a, a).state_equal(a)
        assert merge(a, b).state_equal(merge(b, a))
        assert merge(merge(a, b), c).state_equal(merge(a, merge(b, c)))


def test_version_vectors_never_decrease_under_merge():
    rng = random.Random(22)
    for _ in range(50):
        pool = write_pool(rng)
        a = state_from_pool(pool, rng, 0)
        b = state_from_pool(pool, rng, 1)
        merged = merge(a, b)
        for writer, seq in a.version_vector.items():
            assert merged.version_vector.get(writer, 0) >= seq
        for writer, seq in b.version_vector.items():
            assert merged.version_vector.get(writer, 0) >= seq


def test_delta_apply_equals_full_merge():
    rng = random.Random(23)
    for _ in range(100):
        pool = write_pool(rng)
        a = state_from_pool(pool, rng, 0)
        b = state_from_pool(pool, rng, 1)
        via_delta = a.copy()
        via_delta.apply_delta(b.delta_for(a.digest()))
        assert via_delta.state_equal(merge(a, b))


def test_an_empty_delta_folds_its_vector_unless_the_vectors_are_equal():
    state = ReplicaState(0)
    state.apply_delta(DeltaSet(entries=[], version_vector={3: 4, 5: 1}))
    assert state.version_vector == {3: 4, 5: 1}
    state.apply_delta(DeltaSet(entries=[], version_vector={3: 4, 5: 1}))
    state.apply_delta(DeltaSet(entries=[], version_vector={3: 2, 5: 7}))
    assert state.version_vector == {3: 4, 5: 7}
    assert state.store == {}


# -- the per-writer log behind delta_for, and the convergence target ---------


def _colliding_states(rng: random.Random, count: int):
    """Reachable replicas over a pool with few keys, so that most writes
    supersede an earlier one; merges give states built by apply_delta too."""
    pool = write_pool(rng, writers=5, per_writer=10, keys=4)
    states = [state_from_pool(pool, rng, i) for i in range(count)]
    return pool, states + [merge(states[i], states[(i + 1) % count]) for i in range(count)]


def _random_digest(rng: random.Random) -> dict[int, int]:
    # Writers 0-6: two of them never appear in the pool.
    return {w: rng.randrange(0, 12) for w in range(7) if rng.random() < 0.7}


def _scan_delta(state: ReplicaState, digest: dict[int, int]) -> set:
    return {
        (key, record, tag)
        for key, (record, tag) in state.store.items()
        if tag.sequence > digest.get(tag.writer_id, 0)
    }


def _tags(state: ReplicaState) -> dict[str, LwwTag]:
    return {key: tag for key, (_record, tag) in state.store.items()}


def _full_store_fold(mesh: list[ReplicaState]):
    """(tag map, version vector) of the join of every replica's full store:
    the convergence target compared store by store."""
    acc = ReplicaState(-1)
    for replica in mesh:
        entries = [(k, r, t) for k, (r, t) in replica.store.items()]
        acc.apply_delta(DeltaSet(entries=entries, version_vector=replica.version_vector))
    return _tags(acc), acc.version_vector


def test_delta_for_matches_a_store_scan():
    rng = random.Random(31)
    for _ in range(100):
        _pool, states = _colliding_states(rng, 3)
        for state in states:
            for _ in range(5):
                digest = _random_digest(rng)
                entries = state.delta_for(digest).entries
                assert len(entries) == len(set(entries))
                assert set(entries) == _scan_delta(state, digest)



# Signed records over three keys, so that puts supersede one another.
_PUTS = [signed_record(f"k{i % 3}", version=i + 1, owner_label="sync-owner") for i in range(9)]
_PUT_RESOLVER = _PUTS[0][1]
_mesh_ops = st.lists(
    st.tuples(st.just("put"), st.integers(0, 4), st.integers(0, len(_PUTS) - 1), st.integers(1, 6))
    | st.tuples(st.just("gossip"), st.integers(0, 2**32)),
    max_size=20,
)


def _reference_delta(state: ReplicaState, digest: dict[int, int]) -> list:
    """Entries a full store scan finds, writer by writer, sequences ascending."""
    found = [(k, r, t) for k, (r, t) in state.store.items() if t.sequence > digest.get(t.writer_id, 0)]
    return sorted(found, key=lambda entry: (entry[2].writer_id, entry[2].sequence))


def _old_encoded_size(delta: DeltaSet) -> int:
    size = 12 * len(delta.version_vector)
    for key, record, _tag in delta.entries:
        size += len(enc_str(key)) + 20 + len(record.canonical_bytes())
    return size


@given(n=st.integers(2, 5), ops=_mesh_ops, extra=st.dictionaries(st.integers(0, 6), st.integers(0, 8), max_size=4))
def test_delta_for_and_its_size_match_a_store_scan_through_puts_and_gossip(n, ops, extra):
    mesh = [ReplicaState(i) for i in range(n)]
    for op in ops:
        if op[0] == "put":
            _name, replica, record, logical_time = op
            mesh[replica % n].local_put(_PUTS[record][0], logical_time, _PUT_RESOLVER)
        else:
            gossip_round(mesh, Topology.complete(n), random.Random(op[1]), mesh_target(mesh))
        digests = [replica.digest() for replica in mesh] + [{}, extra]
        for state in mesh:
            for digest in digests:
                delta = state.delta_for(digest)
                writers = [tag.writer_id for _key, _record, tag in delta.entries]
                # Writer-major: each writer's entries form one block.
                assert sum(i == 0 or writers[i - 1] != w for i, w in enumerate(writers)) == len(set(writers))
                assert sorted(delta.entries, key=lambda e: e[2].writer_id) == _reference_delta(state, digest)
                assert delta.encoded_size() == _old_encoded_size(delta)
                assert all(key == record.key for key, record, _tag in delta.entries)

# -- the dataclass-ordered tag, bisect-placed log and writer-by-writer delta of
# the replica before LwwTag became a NamedTuple, kept as an oracle ----------------


@dataclasses.dataclass(frozen=True, order=True)
class _DataclassTag:
    logical_time: int
    writer_id: int
    sequence: int


class _OracleReplica:
    def __init__(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self.store = {}
        self.version_vector = {}
        self._log = {}

    def local_put(self, record, logical_time: int) -> None:
        sequence = self.version_vector.get(self.replica_id, 0) + 1
        self.version_vector[self.replica_id] = sequence
        self._apply_entry(record.key, record, _DataclassTag(logical_time, self.replica_id, sequence))

    def _apply_entry(self, key, record, tag) -> None:
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

    def digest(self) -> dict:
        return dict(self.version_vector)

    def delta_for(self, remote_digest) -> DeltaSet:
        entries = []
        for writer, (seqs, keys) in self._log.items():
            seen = remote_digest.get(writer, 0)
            if not seqs or seqs[-1] <= seen:
                continue
            for key in keys[bisect.bisect_right(seqs, seen) :]:
                record, tag = self.store[key]
                entries.append((key, record, tag))
        return DeltaSet(entries=entries, version_vector=dict(self.version_vector))

    def apply_delta(self, delta: DeltaSet) -> None:
        if not delta.entries and delta.version_vector == self.version_vector:
            return
        for key, record, tag in delta.entries:
            self._apply_entry(key, record, tag)
        for writer, seq in delta.version_vector.items():
            if seq > self.version_vector.get(writer, 0):
                self.version_vector[writer] = seq

    def copy(self) -> "_OracleReplica":
        out = _OracleReplica(self.replica_id)
        out.store = dict(self.store)
        out.version_vector = dict(self.version_vector)
        out._log = {writer: (list(seqs), list(keys)) for writer, (seqs, keys) in self._log.items()}
        return out

    def canonical_store_bytes(self) -> bytes:
        parts = []
        for key in sorted(self.store):
            record, tag = self.store[key]
            parts.append(enc_str(key))
            parts.append(enc_u64(tag.logical_time) + enc_u32(tag.writer_id) + enc_u64(tag.sequence))
            parts.append(record.canonical_bytes())
        return b"".join(parts)


def _oracle_merge(a: _OracleReplica, b: _OracleReplica) -> _OracleReplica:
    out = a.copy()
    out.apply_delta(DeltaSet(entries=[(k, r, t) for k, (r, t) in b.store.items()], version_vector=b.version_vector))
    return out


def _oracle_gossip_round(mesh: list[_OracleReplica], topology: Topology, rng: random.Random) -> tuple:
    n = len(mesh)
    digests = [replica.digest() for replica in mesh]
    messages = bytes_sent = 0
    inbox = [[] for _ in range(n)]
    for i in range(n):
        j = topology.sample_neighbor(i, rng)
        if j is None:
            continue
        delta_from_j = mesh[j].delta_for(digests[i])
        delta_from_i = mesh[i].delta_for(digests[j])
        inbox[i].append(delta_from_j)
        inbox[j].append(delta_from_i)
        messages += 3
        bytes_sent += 12 * len(digests[i]) + 12 * len(digests[j])
        bytes_sent += delta_from_j.encoded_size() + delta_from_i.encoded_size()
    for i in range(n):
        for delta in inbox[i]:
            mesh[i].apply_delta(delta)
    acc = _OracleReplica(-1)
    for replica in mesh:
        acc.apply_delta(DeltaSet([], replica.version_vector))
    converged = sum(1 for replica in mesh if replica.version_vector == acc.version_vector)
    return messages, bytes_sent, converged


def _plain(entries) -> list:
    return [(key, record, (tag.logical_time, tag.writer_id, tag.sequence)) for key, record, tag in entries]


def _assert_same_replica(replica: ReplicaState, oracle: _OracleReplica) -> None:
    assert _plain((k, r, t) for k, (r, t) in replica.store.items()) == _plain(
        (k, r, t) for k, (r, t) in oracle.store.items()
    )
    assert replica.version_vector == oracle.version_vector
    assert list(replica._log.items()) == list(oracle._log.items())
    assert replica.canonical_store_bytes() == oracle.canonical_store_bytes()


_oracle_ops = st.lists(
    st.tuples(st.just("put"), st.integers(0, 4), st.integers(0, len(_PUTS) - 1), st.integers(1, 6))
    | st.tuples(st.just("merge"), st.integers(0, 4), st.integers(0, 4))
    | st.tuples(st.just("gossip"), st.integers(0, 2**32)),
    max_size=24,
)


@given(n=st.integers(2, 5), ops=_oracle_ops, extra=st.dictionaries(st.integers(0, 6), st.integers(0, 8), max_size=4))
# Writer 0 rewrites k0 after k1, so the merge, which reads the store in key
# order, brings that writer's sequences 3 then 2: the log places 2 before 3.
@example(n=2, ops=[("put", 0, 0, 1), ("put", 0, 1, 2), ("put", 0, 3, 3), ("merge", 1, 0)], extra={})
def test_replicas_equal_the_dataclass_tag_bisect_log_full_scan_oracle(n, ops, extra):
    """Stores, vectors, per-writer logs, round stats, store bytes and every
    delta equal those of the replica before the NamedTuple tag and the
    equal-vector answer in delta_for."""
    mesh = [ReplicaState(i) for i in range(n)]
    oracle = [_OracleReplica(i) for i in range(n)]
    topology = Topology.complete(n)
    for op in ops:
        if op[0] == "put":
            _name, at, record, logical_time = op
            mesh[at % n].local_put(_PUTS[record][0], logical_time, _PUT_RESOLVER)
            oracle[at % n].local_put(_PUTS[record][0], logical_time)
        elif op[0] == "merge":
            _name, a, b = op
            mesh[a % n] = merge(mesh[a % n], mesh[b % n])
            oracle[a % n] = _oracle_merge(oracle[a % n], oracle[b % n])
        else:
            stats = gossip_round(mesh, topology, random.Random(op[1]), mesh_target(mesh))
            assert dataclasses.astuple(stats) == _oracle_gossip_round(oracle, topology, random.Random(op[1]))
        for replica, expected in zip(mesh, oracle):
            _assert_same_replica(replica, expected)
            # The equal-vector answer in delta_for rests on this cover.
            assert all(tag.sequence <= replica.version_vector[tag.writer_id] for _record, tag in replica.store.values())
        for digest in [replica.digest() for replica in mesh] + [{}, extra]:
            for replica, expected in zip(mesh, oracle):
                delta, expected_delta = replica.delta_for(digest), expected.delta_for(digest)
                assert _plain(delta.entries) == _plain(expected_delta.entries)
                assert delta.version_vector == expected_delta.version_vector
                assert delta.encoded_size() == expected_delta.encoded_size()


def test_lww_tags_order_as_the_dataclass_tags():
    values = [(t, w, s) for t in (0, 1, 2) for w in (0, 1, 2) for s in (1, 2)]
    for a in values:
        for b in values:
            assert (LwwTag(*a) > LwwTag(*b)) == (_DataclassTag(*a) > _DataclassTag(*b))
            assert (LwwTag(*a) == LwwTag(*b)) == (_DataclassTag(*a) == _DataclassTag(*b))


def test_mesh_target_is_the_vector_of_the_full_store_fold():
    rng = random.Random(32)
    for _ in range(100):
        _pool, states = _colliding_states(rng, rng.randrange(1, 6))
        mesh = rng.sample(states, rng.randrange(1, len(states) + 1))
        assert mesh_target(mesh) == _full_store_fold(mesh)[1]


@given(seed=st.integers(min_value=0, max_value=2**32), count=st.integers(min_value=1, max_value=4))
def test_a_replica_at_the_joined_vector_holds_the_joined_store(seed, count):
    """The invariant behind converged_count, checked on every round of gossip
    over reachable states: a replica whose vector equals the join's holds the
    full-store fold's tag map, so counting equal vectors counts the replicas
    whose vector and store both match. (The converse does not hold: a
    replica can hold every winning write yet miss a superseded one.)"""
    rng = random.Random(seed)
    _pool, mesh = _colliding_states(rng, count)
    rng.shuffle(mesh)
    topology = Topology.complete(len(mesh))
    for _ in range(8):
        target_tags, target_vv = _full_store_fold(mesh)
        for replica in mesh:
            if replica.version_vector == target_vv:
                assert _tags(replica) == target_tags
        by_store = sum(1 for r in mesh if r.version_vector == target_vv and _tags(r) == target_tags)
        assert converged_count(mesh, mesh_target(mesh)) == by_store
        if by_store == len(mesh):
            break
        gossip_round(mesh, topology, rng, target_vv)


def _joined(state: ReplicaState, *deltas: DeltaSet) -> ReplicaState:
    out = state.copy()
    for delta in deltas:
        out.apply_delta(delta)
    return out


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_apply_delta_is_an_idempotent_commutative_associative_join(seed):
    """The CRDT join laws on apply_delta itself, over deltas read off
    reachable states that share most keys."""
    rng = random.Random(seed)
    _pool, states = _colliding_states(rng, 2)
    base, *others = states
    d1, d2, d3 = (s.delta_for(_random_digest(rng)) for s in rng.sample(others, 3))
    assert _joined(base, d1, d1).state_equal(_joined(base, d1))
    assert _joined(base, d1, d2).state_equal(_joined(base, d2, d1))
    empty = ReplicaState(-1)
    d12 = _joined(empty, d1, d2).delta_for({})
    d23 = _joined(empty, d2, d3).delta_for({})
    assert _joined(base, d12, d3).state_equal(_joined(base, d1, d23))


def test_mutating_a_copy_leaves_the_original_deltas_unchanged():
    rng = random.Random(33)
    for _ in range(50):
        pool, (original, other, *_rest) = _colliding_states(rng, 2)
        digests = [{}] + [_random_digest(rng) for _ in range(4)]
        before = [original.delta_for(d).entries for d in digests]
        clone = original.copy()
        clone.apply_delta(other.delta_for(clone.digest()))
        for writer, entries in pool.items():
            for key, _record, tag in entries:
                newer = LwwTag(tag.logical_time + 100, writer, tag.sequence + 100)
                clone.apply_delta(DeltaSet([(key, unsigned_record(key, rng), newer)], {writer: newer.sequence}))
        assert [original.delta_for(d).entries for d in digests] == before


def test_log_holds_one_slot_per_live_key_after_many_overwrites():
    rng = random.Random(34)
    state = ReplicaState(0)
    sequences = {1: 0, 2: 0}
    for step in range(1000):
        writer = 1 + step % 2
        sequences[writer] += 1
        tag = LwwTag(step + 1, writer, sequences[writer])
        state.apply_delta(DeltaSet([("hot", unsigned_record("hot", rng), tag)], {writer: tag.sequence}))
    assert len(state.store) == 1
    slots = sum(len(seqs) for seqs, _keys in state._log.values())
    assert slots == sum(len(keys) for _seqs, keys in state._log.values()) == len(state.store)
    (entry,) = state.delta_for({}).entries
    assert entry[2] == LwwTag(1000, 2, 500)


def test_gossip_n16_seed42_regression_pin():
    record, resolver = _seeded_record()
    mesh = [ReplicaState(i) for i in range(16)]
    mesh[0].local_put(record, logical_time=1, resolver=resolver)
    topology = Topology.complete(16)
    rng = random.Random(42)
    target = mesh_target(mesh)
    rounds = 0
    while True:
        stats = gossip_round(mesh, topology, rng, target)
        rounds += 1
        if stats.converged == 16:
            break
        assert rounds <= 12, "exceeded the documented bound"
    assert rounds == 4  # pinned from the first seeded run of this simulation
    fingerprints = {m.store_fingerprint() for m in mesh}
    assert len(fingerprints) == 1
    roots = set()
    for replica in mesh:
        index = MerkleRadixIndex()
        for key in sorted(replica.store):
            index.insert_trusted(replica.store[key][0])
        roots.add(index.root_digest)
    assert len(roots) == 1


def test_gossip_round_stats_accounting():
    record, resolver = _seeded_record()
    mesh = [ReplicaState(i) for i in range(4)]
    mesh[0].local_put(record, logical_time=1, resolver=resolver)
    stats = gossip_round(mesh, Topology.complete(4), random.Random(0), mesh_target(mesh))
    assert stats.messages == 12  # 3 messages per contact, 4 contacts
    assert stats.bytes_sent > 0
    assert 0 <= stats.converged <= 4


def _mesh_with_one_write(n: int) -> list[ReplicaState]:
    record, resolver = _seeded_record()
    mesh = [ReplicaState(i) for i in range(n)]
    mesh[0].local_put(record, logical_time=1, resolver=resolver)
    return mesh


def test_gossip_to_convergence_on_a_converged_mesh_runs_no_round():
    rng = random.Random(4)
    state = rng.getstate()
    assert gossip_to_convergence([ReplicaState(i) for i in range(5)], Topology.complete(5), rng, None) == (0, [])
    assert gossip_to_convergence(_mesh_with_one_write(1), Topology.complete(1), rng, None) == (0, [])
    assert rng.getstate() == state


def test_single_replica_converges_in_zero_rounds():
    rounds = []
    for trial in range(3):
        rounds_used, stats = gossip_to_convergence(_mesh_with_one_write(1), Topology.complete(1), random.Random(trial), None)
        assert stats == []
        rounds.append(rounds_used)
    assert rounds == [0, 0, 0]
    assert statistics.median(rounds) == 0


def test_gossip_to_convergence_at_a_zero_cap_is_not_converged():
    mesh = _mesh_with_one_write(6)
    assert gossip_to_convergence(mesh, Topology.complete(6), random.Random(0), 0) == (None, [])
    assert [len(replica.store) for replica in mesh] == [1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(("n", "cap"), [(16, None), (64, None), (64, 2), (8, 1)])
def test_gossip_to_convergence_matches_a_hand_written_round_loop(n, cap):
    topology = Topology.ring(n)
    loop_mesh, loop_rng = _mesh_with_one_write(n), random.Random(n)
    target = mesh_target(loop_mesh)
    expected_rounds, expected_stats = None, []
    for round_idx in range(1, (default_round_cap(n) if cap is None else cap) + 1):
        expected_stats.append(gossip_round(loop_mesh, topology, loop_rng, target=target))
        if expected_stats[-1].converged == n:
            expected_rounds = round_idx
            break

    mesh, rng = _mesh_with_one_write(n), random.Random(n)
    assert gossip_to_convergence(mesh, topology, rng, cap) == (expected_rounds, expected_stats)
    assert rng.getstate() == loop_rng.getstate()
    assert [m.store_fingerprint() for m in mesh] == [m.store_fingerprint() for m in loop_mesh]


def test_disconnected_topology_reports_nonconvergent():
    mesh = _mesh_with_one_write(2)
    rounds, stats = gossip_to_convergence(mesh, Topology("custom", 2, [[], []]), random.Random(0), 10)
    assert rounds is None
    assert [(s.messages, s.bytes_sent, s.converged) for s in stats] == [(0, 0, 1)] * 10
    assert [len(replica.store) for replica in mesh] == [1, 0]


def test_random_regular_topology_connected():
    topology = Topology.random_regular(20, 4, seed=3)
    assert topology.is_connected()
    assert all(len(neigh) == 4 for neigh in topology.neighbor_lists)
    with pytest.raises(ValueError):
        Topology.random_regular(5, 3, seed=0)  # odd n*k
    with pytest.raises(ValueError):
        Topology.random_regular(4, 1, seed=0)  # every 1-regular graph on 4 nodes is disconnected


@pytest.mark.parametrize("n, k", [(1, 0), (4, 0), (4, -2)])
def test_random_regular_refuses_a_degree_below_1_before_drawing(n, k):
    with pytest.raises(ValueError, match=r"^k must be >= 1"):
        Topology.random_regular(n, k, seed=0)


@pytest.mark.parametrize(
    "n, k, message",
    [(5, 3, "no 3-regular graph on 5 nodes"), (4, 4, "no 4-regular graph on 4 nodes"), (6, 7, "no 7-regular graph on 6 nodes")]
    + [(n, 1, f"no connected 1-regular graph on {n} nodes") for n in (4, 6, 16)],
)
def test_random_regular_refuses_the_infeasible_shapes(n, k, message, monkeypatch):
    monkeypatch.setattr(federation, "random", None)  # refused before any draw
    with pytest.raises(ValueError, match=f"^{message}$"):
        Topology.random_regular(n, k, seed=0)


@pytest.mark.parametrize("n", range(2, 17))
def test_random_regular_draws_every_feasible_shape(n):
    """Every feasible degree on n <= 16 nodes, seeds 0-39, gives a connected
    simple k-regular graph."""
    for k in [k for k in range(1, n) if n * k % 2 == 0 and (k > 1 or n == 2)]:
        for seed in range(40):
            topology = Topology.random_regular(n, k, seed)
            lists = topology.neighbor_lists
            assert topology.kind == "random_regular" and topology.is_connected()
            assert all(len(set(l)) == k == len(l) and i not in l for i, l in enumerate(lists))
            assert all(i in lists[j] for i, l in enumerate(lists) for j in l)


def test_complete_topology_draws_and_picks_as_indexing_its_lists():
    for n in range(1, 41):
        implicit = Topology.complete(n)
        listed = Topology("custom", n, [[j for j in range(n) if j != i] for i in range(n)])
        assert implicit.is_connected()
        for seed in range(4):
            rng_implicit, rng_listed = random.Random(seed), random.Random(seed)
            for step in range(3 * n):
                i = step % n
                assert implicit.sample_neighbor(i, rng_implicit) == listed.sample_neighbor(i, rng_listed)
            assert rng_implicit.getstate() == rng_listed.getstate()
    assert Topology.complete(1).sample_neighbor(0, random.Random(0)) is None


def test_round_cap_formula():
    assert default_round_cap(2) == 64 * 1 + 64
    assert default_round_cap(64) == 64 * 6 + 64
