"""The benchmark's four workloads.

Each is a closed loop with one client in one process. A workload builds its
state in ``setup`` from the seed, runs one step of work in ``step`` (timed by
the caller's meter, see perfbench/run.py), and judges the step in ``check``
outside the timed interval. A step is one op except on ``marketplace``, where
a step is one scenario run and each of its tasks is an op. ``check`` and
``setup_record`` use no traced agentmesh function, so correctness gates add
nothing to per-layer counts.

Why each workload exists:

- marketplace: the paper's full feedback loop (discover, invoice, header,
  settle, attest) and the only one that settles payments.
- discovery: the read path. Ranking, dedup and inclusion proofs per query;
  no signature checks, gossip, trust or payments per op.
- registry_sync: the write path on the same registry: sign, verify, gossip
  to convergence, reader-index update.
- sybil: the only workload where trust propagation dominates.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from agentmesh import cards, discovery, federation, registry, simnet, trust


def derive_seed(seed: int, label: str) -> int:
    """56-bit seed for one named input stream of a run."""
    digest = hashlib.sha256(f"perfbench|{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(derive_seed(seed, label))


@dataclass
class Step:
    failed: int
    record: bytes  # hashed into the run digest while the step is in the digest prefix
    problems: list[str] = field(default_factory=list)
    # The step's meter marks run from one before the step (index 0) to one
    # after it; op k spans the marks from op_starts[k] to the next op's start
    # or the last mark. Time before the first op's start falls in no op's
    # latency; throughput charges it to the step's ops.
    op_starts: list[int] = field(default_factory=lambda: [0])


class Workload:
    name = ""
    why = ""
    ops_per_step = 1
    digest_steps = 1  # steps hashed into the digest; also the traced run's length
    # A run measures at least tail_ops ops, and latency_tail_ms is their
    # percentile 100 * (1 - 10 / tail_ops), so at least ten ops lie beyond it.
    # 200 (the 95th percentile) fits every workload's run of 20 seconds;
    # marketplace's tasks are short and its slowest are the one task in 32
    # that closes a round, so it takes 1000 (the 99th).
    tail_ops = 200

    def setup(self, seed: int):
        raise NotImplementedError

    def setup_record(self, state) -> bytes:
        raise NotImplementedError

    def step(self, state, i: int, meter):
        """One step of work. The caller marks ``meter`` just before and just
        after it; a step of many ops calls ``meter.mark()`` between them."""
        raise NotImplementedError

    def check(self, state, i: int, raw) -> Step:
        raise NotImplementedError

    def final_problems(self, state) -> list[str]:
        return []

    def notes(self, state) -> dict:
        return {}


# ---------------------------------------------------------------------------
# marketplace
# ---------------------------------------------------------------------------


@dataclass
class _ScenarioState:
    seed: int
    warmup_report: bytes


def _report_bytes(report: simnet.ScenarioReport) -> bytes:
    return report.to_json_bytes() + report.to_csv_text().encode()


class Marketplace(Workload):
    name = "marketplace"
    why = "full feedback loop, n=32 agents x 10 rounds: discovery, invoice, header, settle, attest per task"
    n = 32
    rounds = 10
    ops_per_step = n * rounds
    digest_steps = 1
    tail_ops = 1000

    def _config(self, seed: int, label: str, n: int, rounds: int) -> simnet.ScenarioConfig:
        return simnet.ScenarioConfig(scenario="marketplace", n=n, rounds=rounds, seed=derive_seed(seed, label))

    def setup(self, seed: int) -> _ScenarioState:
        # Warm-up: one small scenario fills lazy caches before timing.
        report = simnet.run_scenario(self._config(seed, "marketplace/warmup", 8, 4))
        return _ScenarioState(seed, _report_bytes(report))

    def setup_record(self, state: _ScenarioState) -> bytes:
        return state.warmup_report

    def step(self, state: _ScenarioState, i: int, meter):
        # Every task starts with one discovery.rank call; a mark there splits
        # the scenario into tasks. The scenario's work before its first task
        # (agents, keys, ranker training) falls in no task; throughput charges
        # it to the scenario's tasks.
        first = len(meter.marks) - 1  # the caller's mark before the step
        starts: list[int] = []
        inner = discovery.rank

        def stamped(*args, **kwargs):
            starts.append(len(meter.marks) - first)
            meter.mark()
            return inner(*args, **kwargs)

        discovery.rank = stamped
        try:
            report = simnet.run_scenario(self._config(state.seed, f"marketplace/{i}", self.n, self.rounds))
        finally:
            discovery.rank = inner
        return report, starts

    def check(self, state, i, raw) -> Step:
        report, starts = raw
        payload = report.payload
        per_round = self.n
        problems = []
        failed = 0
        for row in payload["rounds"]:
            if not (row["conservation_ok"] and row["payments_attested"]):
                failed += per_round
                problems.append(f"marketplace step {i} round {row['round']}: conservation or attestation gate failed")
        if len(payload["rounds"]) != self.rounds:
            failed = self.ops_per_step
            problems.append(f"marketplace step {i}: {len(payload['rounds'])} rounds reported")
        if len(starts) != self.ops_per_step:
            problems.append(f"marketplace step {i}: {len(starts)} task starts seen, expected {self.ops_per_step}")
        return Step(failed, _report_bytes(report), problems, starts)


# ---------------------------------------------------------------------------
# sybil
# ---------------------------------------------------------------------------


class Sybil(Workload):
    name = "sybil"
    why = "trust propagation and the dense solve dominate: one Sybil-resistance analysis per op at n=200"
    n = 200
    digest_steps = 16

    def setup(self, seed: int) -> _ScenarioState:
        config = simnet.ScenarioConfig(scenario="sybil", n=150, seed=derive_seed(seed, "sybil/warmup"))
        return _ScenarioState(seed, _report_bytes(simnet.run_scenario(config)))

    def setup_record(self, state: _ScenarioState) -> bytes:
        return state.warmup_report

    def step(self, state: _ScenarioState, i: int, meter):
        config = simnet.ScenarioConfig(scenario="sybil", n=self.n, seed=derive_seed(state.seed, f"sybil/{i}"))
        return simnet.run_scenario(config)

    def check(self, state, i, report) -> Step:
        payload = report.payload
        problems = []
        if not payload["sybil_mass_invariant_to_internal_weights"]:
            problems.append(f"sybil step {i}: mass not invariant to internal weights")
        if not payload["honest_edge_strictly_increases_mass"]:
            problems.append(f"sybil step {i}: honest edge did not increase mass")
        worst = max(run["power_vs_solve_max_diff"] for run in payload["runs"])
        if not worst <= 1e-9:
            problems.append(f"sybil step {i}: power iteration differs from the solve by {worst}")
        return Step(1 if problems else 0, _report_bytes(report), problems)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------


def _training_pairs(rng: random.Random, count: int = 200):
    """Preference pairs whose preferred side has higher similarity and trust."""
    pairs = []
    for _ in range(count):
        other = discovery.RankFeatures(
            cos_sim=rng.uniform(-0.2, 0.7),
            trust=rng.uniform(0.0, 0.7),
            log_usage=rng.uniform(0.0, 5.0),
            recency=rng.uniform(0.0, 1.0),
        )
        preferred = discovery.RankFeatures(
            cos_sim=min(1.0, other.cos_sim + rng.uniform(0.05, 0.3)),
            trust=min(1.0, other.trust + rng.uniform(0.05, 0.3)),
            log_usage=other.log_usage,
            recency=other.recency,
        )
        pairs.append((preferred, other))
    return pairs


def _signed_records(agent: simnet.SimAgent, card: cards.AgentFactCard, keys) -> list[registry.RegistryRecord]:
    digest = cards.card_digest(card)
    return [
        registry.make_record(key, card.endpoint_url, digest, agent.keypair.secret_key, agent.did, card.version)
        for key in keys
    ]


@dataclass
class _DiscoveryState:
    seed: int
    cards: list
    index: registry.MerkleRadixIndex
    root: bytes
    trust_report: dict
    model: discovery.L2RModel
    vocabulary: list
    now: int
    embeddings: dict
    queries: set = field(default_factory=set)
    query_count: int = 0


class Discovery(Workload):
    name = "discovery"
    why = "read path: embed, rank k=5 over 256 cards with 20% near-duplicates, prove and verify every hit"
    n = 256
    k = 5
    tau = discovery.DEFAULT_TAU
    digest_steps = 32

    def setup(self, seed: int) -> _DiscoveryState:
        agents = simnet.synthetic_agents(self.n, derive_seed(seed, "discovery/corpus"), duplicate_every=5)
        resolver = {str(a.did): a.keypair.public_key for a in agents}
        index = registry.MerkleRadixIndex()
        for agent in agents:
            for record in _signed_records(agent, agent.card, (str(agent.did), agent.name)):
                index.insert(record, resolver)
        rng = rng_for(seed, "discovery/trust")
        edges: dict[tuple[int, int], float] = {}
        for i in range(self.n):
            for _ in range(2):
                j = rng.randrange(self.n)
                if j != i:
                    edges.setdefault((i, j), round(rng.uniform(0.2, 1.0), 6))
        graph = trust.TrustGraph(
            nodes=[str(a.did) for a in agents], edges=[(i, j, w) for (i, j), w in sorted(edges.items())]
        )
        values = trust.propagate_trust(graph, alpha=0.85).values
        trust_report = {str(a.did): float(np.clip(values[a.index], 0.0, 1.0)) for a in agents}
        model = discovery.train(_training_pairs(rng_for(seed, "discovery/l2r")), learning_rate=0.5, iters=300)
        return _DiscoveryState(
            seed=seed,
            cards=[a.card for a in agents],
            index=index,
            root=index.root_digest,
            trust_report=trust_report,
            model=model,
            vocabulary=sorted({w for a in agents for w in a.card.description.split()}),
            now=max(a.card.last_active for a in agents) + 1,
            embeddings={str(a.did): np.asarray(a.card.embedding) for a in agents},
        )

    def setup_record(self, state: _DiscoveryState) -> bytes:
        parts = [state.root, repr(sorted(state.trust_report.items())).encode(), repr(list(state.model.theta)).encode()]
        return b"".join(parts)

    def query(self, state: _DiscoveryState, i: int) -> str:
        rng = rng_for(state.seed, f"discovery/query/{i}")
        return " ".join(rng.choice(state.vocabulary) for _ in range(rng.randint(3, 6)))

    def step(self, state: _DiscoveryState, i: int, meter):
        text = self.query(state, i)
        hits = discovery.rank(
            discovery.embed_text(text), state.cards, state.trust_report, state.model, k=self.k, now=state.now, tau=self.tau
        )
        verified = [registry.verify_proof(state.root, state.index.prove_inclusion(did)) for did, _score in hits]
        return text, hits, verified

    def check(self, state, i, raw) -> Step:
        text, hits, verified = raw
        state.queries.add(text)
        state.query_count += 1
        problems = []
        if not hits:
            problems.append(f"discovery query {i}: no hits")
        if not all(verified):
            problems.append(f"discovery query {i}: a proof does not verify against the root")
        scores = [score for _did, score in hits]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"discovery query {i}: scores increase down the list")
        vectors = [state.embeddings[did] for did, _score in hits]
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                va, vb = vectors[a], vectors[b]
                cos = float(np.dot(va, vb)) / (float(np.linalg.norm(va)) * float(np.linalg.norm(vb)))
                if cos >= self.tau:
                    problems.append(f"discovery query {i}: hits {a} and {b} have cosine {cos} >= tau")
        record = repr((text, [(did, score) for did, score in hits], verified)).encode()
        return Step(1 if problems else 0, record, problems)

    def notes(self, state: _DiscoveryState) -> dict:
        return {"distinct_query_share": len(state.queries) / max(1, state.query_count)}


# ---------------------------------------------------------------------------
# registry_sync
# ---------------------------------------------------------------------------


@dataclass
class _SyncState:
    seed: int
    agents: list
    cards: list
    resolver: dict
    replicas: list
    topology: federation.Topology
    rng: random.Random
    index: registry.MerkleRadixIndex
    clock: int
    setup_rounds: int
    latest: dict = field(default_factory=dict)  # key -> version written last


class RegistrySync(Workload):
    name = "registry_sync"
    why = "write path: batches of 8 signed card updates gossiped to convergence over 16 replicas, then indexed"
    n = 512
    replicas = 16
    batch = 8
    digest_steps = 16

    def _converge(self, state: _SyncState) -> int:
        target = federation.mesh_target(state.replicas)
        cap = federation.default_round_cap(self.replicas)
        for rounds in range(1, cap + 1):
            stats = federation.gossip_round(state.replicas, state.topology, state.rng, target=target)
            if stats.converged == self.replicas:
                return rounds
        raise RuntimeError(f"no convergence in {cap} rounds")

    def setup(self, seed: int) -> _SyncState:
        agents = simnet.synthetic_agents(self.n, derive_seed(seed, "registry_sync/corpus"))
        resolver = {str(a.did): a.keypair.public_key for a in agents}
        replicas = [federation.ReplicaState(i) for i in range(self.replicas)]
        clock = 0
        for agent in agents:
            for record in _signed_records(agent, agent.card, (str(agent.did), agent.name)):
                clock += 1
                replicas[clock % self.replicas].local_put(record, logical_time=clock, resolver=resolver)
        state = _SyncState(
            seed=seed,
            agents=agents,
            cards=[a.card for a in agents],
            resolver=resolver,
            replicas=replicas,
            topology=federation.Topology.complete(self.replicas),
            rng=rng_for(seed, "registry_sync/gossip"),
            index=registry.MerkleRadixIndex(),
            clock=clock,
            setup_rounds=0,
        )
        state.setup_rounds = self._converge(state)
        store = replicas[0].store
        for key in sorted(store):
            state.index.insert_trusted(store[key][0])
        return state

    def setup_record(self, state: _SyncState) -> bytes:
        return state.index.root_digest + state.setup_rounds.to_bytes(4, "big")

    def step(self, state: _SyncState, i: int, meter):
        rng = rng_for(state.seed, f"registry_sync/batch/{i}")
        written = []
        for a in rng.sample(range(self.n), self.batch):
            agent = state.agents[a]
            state.clock += 1
            card = state.cards[a].bump(usage_count=state.cards[a].usage_count + 1, last_active=state.clock)
            state.cards[a] = card
            (record,) = _signed_records(agent, card, (str(agent.did),))
            state.replicas[rng.randrange(self.replicas)].local_put(record, logical_time=state.clock, resolver=state.resolver)
            written.append(record)
        rounds = self._converge(state)
        reader = state.replicas[0]
        for record in written:
            state.index.insert_trusted(reader.store[record.key][0])
        return written, rounds

    def check(self, state, i, raw) -> Step:
        written, rounds = raw
        problems = []
        for record in written:
            state.latest[record.key] = record.version
            if any(replica.store.get(record.key, (None,))[0] != record for replica in state.replicas):
                problems.append(f"registry_sync batch {i}: {record.key} missing from a replica")
        record = state.index.root_digest + rounds.to_bytes(4, "big")
        return Step(1 if problems else 0, record, problems)

    def final_problems(self, state: _SyncState) -> list[str]:
        problems = []
        if len({replica.store_fingerprint() for replica in state.replicas}) != 1:
            problems.append("registry_sync: replica store fingerprints differ")
        fresh = registry.MerkleRadixIndex()
        store = state.replicas[0].store
        for key in sorted(store):
            fresh.insert_trusted(store[key][0])
        if fresh.root_digest != state.index.root_digest:
            problems.append("registry_sync: reader index root differs from a rebuilt index")
        for key, version in state.latest.items():
            found = state.index.resolve(key)
            if found is None or found.version != version:
                problems.append(f"registry_sync: {key} does not resolve to version {version}")
        return problems

    def notes(self, state: _SyncState) -> dict:
        return {"setup_gossip_rounds": state.setup_rounds, "updated_keys": len(state.latest)}


WORKLOADS = {w.name: w for w in (Marketplace(), Discovery(), RegistrySync(), Sybil())}
