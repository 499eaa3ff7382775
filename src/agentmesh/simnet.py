"""Deterministic simulated-network harness composing registry, federation,
trust, discovery, payments, and DP aggregates into runnable scenarios.

Everything is driven by logical time and per-subsystem RNG streams derived
by hashing (root seed, subsystem label), so an identical config always
produces a byte-identical report.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import cards as cards_mod
from . import discovery, federation, micropay, privacy, registry, trust
from .cards import AgentFactCard
from .identity import (
    AgentDid,
    AttestationIssuer,
    ClaimType,
    KeyPair,
    derive_did,
    generate_keypair,
    sha256,
    verify_attestation,
    AttestationCheck,
)

__all__ = [
    "CODE_VERSION",
    "ScenarioConfig",
    "ScenarioReport",
    "SimAgent",
    "subsystem_rng",
    "synthetic_agents",
    "run_convergence",
    "run_sybil",
    "run_marketplace",
    "run_discovery_e2e",
    "run_scenario",
    "run_scenario_payload",
    "write_report",
]

CODE_VERSION = "agentmesh-0.1.0"

_SCENARIOS = ("convergence", "sybil", "marketplace", "discovery_e2e")
_TOPOLOGIES = ("complete", "ring", "random_regular")

_DOMAINS: list[tuple[str, str, list[str]]] = [
    ("weather", "weather forecasting and storm alert service", ["weather.forecast", "weather.alerts"]),
    ("payments", "invoice payment and settlement processing service", ["payments.invoice", "payments.settle"]),
    ("translate", "document translation service between many languages", ["text.translate"]),
    ("imaging", "satellite imagery tiling and change detection service", ["imaging.tiles", "imaging.diff"]),
    ("logistics", "freight route planning and fleet dispatch service", ["logistics.routes"]),
]
_ODDBALL_DOMAIN = ("telegraphy", "antique telegraph restoration and museum supply", ["telegraphy.restore"])
_STYLE_WORDS = ["reliable", "fast", "low-cost", "managed", "expert", "scalable"]

_DEFAULT_QUERIES = [
    "weather forecast for tomorrow morning",
    "settle an invoice payment for a completed task",
    "translate a legal document to another language",
]


def subsystem_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass
class ScenarioConfig:
    scenario: str
    n: int = 16
    seed: int = 0
    rounds: int = 20
    rounds_cap: int | None = None
    trials: int = 100
    topology: str = "complete"
    regular_degree: int = 4
    replicas: int = 4
    alpha: float = 0.85
    tau: float = 0.95
    epsilon: float = 1.0
    k: int = 5
    corpus: str | None = None
    queries: list[str] | None = None
    trust_overrides: dict[str, float] | None = None
    tasks_per_round: int = 1
    task_price: int = 1000
    max_payment: int = 5000
    max_requests_per_round: int = 3
    sybil_fraction: float = 0.2
    sybil_internal_weights: tuple[float, float] = (0.1, 0.9)
    orientation: str = "transpose"

    def __post_init__(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {_SCENARIOS}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}; expected one of {_TOPOLOGIES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0,1)")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must be in (0,1]")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not (0.0 <= self.sybil_fraction < 0.5):
            raise ValueError("sybil_fraction must be in [0, 0.5)")
        if self.orientation not in ("literal", "transpose"):
            raise ValueError("orientation must be 'literal' or 'transpose'")

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "seed": self.seed,
            "rounds": self.rounds,
            "rounds_cap": self.rounds_cap,
            "trials": self.trials,
            "topology": self.topology,
            "regular_degree": self.regular_degree,
            "replicas": self.replicas,
            "alpha": self.alpha,
            "tau": self.tau,
            "epsilon": self.epsilon,
            "k": self.k,
            "corpus": self.corpus,
            "queries": self.queries,
            "trust_overrides": self.trust_overrides,
            "tasks_per_round": self.tasks_per_round,
            "task_price": self.task_price,
            "max_payment": self.max_payment,
            "max_requests_per_round": self.max_requests_per_round,
            "sybil_fraction": self.sybil_fraction,
            "sybil_internal_weights": list(self.sybil_internal_weights),
            "orientation": self.orientation,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if "sybil_internal_weights" in kwargs and kwargs["sybil_internal_weights"] is not None:
            kwargs["sybil_internal_weights"] = tuple(kwargs["sybil_internal_weights"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ScenarioReport:
    payload: dict
    csv_fields: list[str] = field(default_factory=list)
    csv_rows: list[dict] = field(default_factory=list)

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"

    def to_csv_text(self) -> str:
        lines = [",".join(self.csv_fields)]
        for row in self.csv_rows:
            lines.append(",".join(str(row[f]) for f in self.csv_fields))
        return "\n".join(lines) + "\n"


def write_report(report: ScenarioReport, out_path: str | Path) -> list[str]:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    written = []
    out_path.write_bytes(report.to_json_bytes())
    written.append(str(out_path))
    if report.csv_rows:
        csv_path = out_path.with_suffix(".csv")
        csv_path.write_text(report.to_csv_text(), encoding="utf-8")
        written.append(str(csv_path))
    return written


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


@dataclass
class SimAgent:
    index: int
    keypair: KeyPair
    did: AgentDid
    name: str
    domain: str
    card: AgentFactCard


def synthetic_agents(
    n: int,
    seed: int,
    duplicate_every: int = 0,
    oddball_last: bool = False,
) -> list[SimAgent]:
    """Deterministic agent corpus. `duplicate_every=k` makes every k-th agent
    a description/capability clone of its predecessor (for dedup runs);
    `oddball_last` gives the final agent a domain nobody queries."""
    rng = subsystem_rng(seed, "corpus")
    agents: list[SimAgent] = []
    for i in range(n):
        key_seed = sha256(b"agent-seed" + seed.to_bytes(8, "big", signed=True) + i.to_bytes(4, "big"))
        keypair = generate_keypair(key_seed)
        did = derive_did(keypair.public_key)
        if oddball_last and i == n - 1:
            domain, base_desc, caps = _ODDBALL_DOMAIN
        else:
            domain, base_desc, caps = _DOMAINS[i % len(_DOMAINS)]
        style = _STYLE_WORDS[rng.randrange(len(_STYLE_WORDS))]
        description = f"{style} {base_desc}"
        capabilities = list(caps)
        if duplicate_every and i % duplicate_every == duplicate_every - 1 and i > 0:
            description = agents[i - 1].card.description
            capabilities = list(agents[i - 1].card.capabilities)
            domain = agents[i - 1].domain
        embedding = tuple(float(x) for x in discovery.embed_text(description))
        card = AgentFactCard(
            did=did,
            display_name=f"agent-{i:03d}",
            description=description,
            capabilities=tuple(capabilities),
            endpoint_url=f"https://agents.example/{i:03d}",
            embedding=embedding,
            usage_count=rng.randrange(0, 2000),
            last_active=rng.randrange(0, 500),
            version=1,
        )
        agents.append(SimAgent(index=i, keypair=keypair, did=did, name=f"agent-{i:03d}", domain=domain, card=card))
    return agents


def _resolver_for(agents: list[SimAgent]) -> dict[str, bytes]:
    return {str(a.did): a.keypair.public_key for a in agents}


def _records_for(agents: list[SimAgent]) -> list[registry.RegistryRecord]:
    records = []
    for agent in agents:
        digest = cards_mod.card_digest(agent.card)
        records.append(
            registry.make_record(
                key=str(agent.did),
                metadata_url=agent.card.endpoint_url,
                card_digest=digest,
                owner_secret_key=agent.keypair.secret_key,
                owner=agent.did,
                version=1,
            )
        )
        records.append(
            registry.make_record(
                key=agent.name,
                metadata_url=agent.card.endpoint_url,
                card_digest=digest,
                owner_secret_key=agent.keypair.secret_key,
                owner=agent.did,
                version=1,
            )
        )
    return records


def _training_pairs(rng: random.Random, count: int = 200) -> list[tuple[discovery.RankFeatures, discovery.RankFeatures]]:
    """Preference pairs where the preferred side has strictly higher
    similarity and trust; trained weights on those features come out
    positive."""
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


def _trained_model(seed: int) -> discovery.L2RModel:
    pairs = _training_pairs(subsystem_rng(seed, "l2r"))
    return discovery.train(pairs, learning_rate=0.5, iters=300, seed=seed)


def _load_or_generate_agents(config: ScenarioConfig, duplicate_every: int = 0, oddball_last: bool = False) -> list[SimAgent]:
    if config.corpus is None:
        return synthetic_agents(config.n, config.seed, duplicate_every=duplicate_every, oddball_last=oddball_last)
    loaded = cards_mod.load_cards(config.corpus)
    agents = []
    for i, card in enumerate(loaded):
        # External corpora carry no keys; mint deterministic stand-in keys so
        # records and payments stay verifiable inside the simulation.
        key_seed = sha256(b"corpus-agent" + config.seed.to_bytes(8, "big", signed=True) + i.to_bytes(4, "big"))
        keypair = generate_keypair(key_seed)
        agents.append(
            SimAgent(
                index=i,
                keypair=keypair,
                did=card.did,
                name=card.display_name,
                domain=card.capabilities[0].split(".")[0] if card.capabilities else "unknown",
                card=card,
            )
        )
    return agents


# ---------------------------------------------------------------------------
# Scenario: gossip convergence
# ---------------------------------------------------------------------------


def _topology_for(config: ScenarioConfig) -> federation.Topology:
    if config.topology == "complete":
        return federation.Topology.complete(config.n)
    if config.topology == "ring":
        return federation.Topology.ring(config.n)
    return federation.Topology.random_regular(config.n, config.regular_degree, seed=config.seed)


def run_convergence(config: ScenarioConfig) -> ScenarioReport:
    topology = _topology_for(config)

    def record_source(trial: int):
        key_seed = sha256(b"conv-record" + config.seed.to_bytes(8, "big", signed=True) + trial.to_bytes(4, "big"))
        keypair = generate_keypair(key_seed)
        did = derive_did(keypair.public_key)
        record = registry.make_record(
            key=str(did),
            metadata_url="https://mesh.example/meta",
            card_digest=sha256(b"card" + trial.to_bytes(4, "big")),
            owner_secret_key=keypair.secret_key,
            owner=did,
            version=1,
        )
        return record, {str(did): keypair.public_key}

    summary = federation.rounds_to_convergence(
        n=config.n,
        topology=topology,
        trials=config.trials,
        seed=config.seed,
        record_source=record_source,
        rounds_cap=config.rounds_cap,
    )
    bound = 3.0 * math.log2(config.n) if config.n > 1 else 0.0
    payload = {
        "scenario": "convergence",
        "code_version": CODE_VERSION,
        "config": config.to_dict(),
        "topology": topology.kind,
        "rounds_per_trial": summary.rounds,
        "median_rounds": summary.median_rounds,
        "p95_rounds": summary.p95_rounds,
        "nonconvergent_trials": summary.nonconvergent,
        "log2_bound": bound,
        "median_within_bound": (summary.median_rounds is not None and summary.median_rounds <= bound)
        if config.n > 1
        else True,
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=["trial", "round", "converged_count", "messages", "bytes"],
        csv_rows=summary.stats_rows,
    )


# ---------------------------------------------------------------------------
# Scenario: Sybil resistance
# ---------------------------------------------------------------------------


def _honest_graph_edges(n: int, rng: random.Random, hubs: int) -> dict[tuple[int, int], float]:
    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            edges[(i, j)] = 0.6
    for i in range(n):
        j = (i + 3) % n
        if i != j:
            edges.setdefault((i, j), round(rng.uniform(0.3, 1.0), 6))
    for i in range(n):
        hub = i % max(1, hubs)
        if hub != i:
            edges[(i, hub)] = max(edges.get((i, hub), 0.0), 0.9)
    return edges


def _sybil_graph(
    n_honest: int,
    n_sybil: int,
    internal_weight: float,
    honest_edges: dict[tuple[int, int], float],
    honest_to_sybil: float | None = None,
) -> trust.TrustGraph:
    nodes = [f"honest-{i}" for i in range(n_honest)] + [f"sybil-{i}" for i in range(n_sybil)]
    edges = dict(honest_edges)
    for a in range(n_sybil):
        for b in range(n_sybil):
            if a != b:
                edges[(n_honest + a, n_honest + b)] = internal_weight
    if honest_to_sybil is not None and n_sybil > 0:
        edges[(0, n_honest)] = honest_to_sybil
    edge_list = [(i, j, w) for (i, j), w in sorted(edges.items())]
    return trust.TrustGraph(nodes=nodes, edges=edge_list)


def run_sybil(config: ScenarioConfig) -> ScenarioReport:
    n = config.n
    n_sybil = int(n * config.sybil_fraction)
    rng = subsystem_rng(config.seed, "sybil-graph")
    hubs = max(1, n_sybil)
    honest_edges = _honest_graph_edges(n, rng, hubs)
    base_value = 0.5
    runs = []

    def masses(graph: trust.TrustGraph) -> dict:
        total = graph.n
        base = np.full(total, base_value)
        solved = trust.solve_trust_exact(graph, alpha=config.alpha, base=base, orientation=trust.Orientation.TRANSPOSE)
        powered = trust.propagate_trust(
            graph, alpha=config.alpha, base=base, orientation=trust.Orientation.TRANSPOSE, tol=1e-12
        ).values
        sybil_mass = float(solved[n:].sum())
        hub_mass = float(solved[:hubs].sum()) if n_sybil > 0 else 0.0
        return {
            "sybil_mass": sybil_mass,
            "hub_mass": hub_mass,
            "power_vs_solve_max_diff": float(np.max(np.abs(solved - powered))),
            "total_mass": float(solved.sum()),
        }

    if n_sybil > 0:
        for w_int in config.sybil_internal_weights:
            graph = _sybil_graph(n, n_sybil, w_int, honest_edges)
            result = masses(graph)
            result["internal_weight"] = w_int
            result["honest_to_sybil_edge"] = False
            runs.append(result)
        with_edge = masses(_sybil_graph(n, n_sybil, config.sybil_internal_weights[1], honest_edges, honest_to_sybil=1.0))
        with_edge["internal_weight"] = config.sybil_internal_weights[1]
        with_edge["honest_to_sybil_edge"] = True
        runs.append(with_edge)
        mass_a = runs[0]["sybil_mass"]
        mass_b = runs[1]["sybil_mass"]
        invariant = abs(mass_a - mass_b) <= 1e-9
        increase = runs[2]["sybil_mass"] > mass_b + 1e-12
        expected_base_mass = base_value * n_sybil
        sybil_below_hubs = mass_b < runs[1]["hub_mass"]
    else:
        graph = _sybil_graph(n, 0, 0.0, honest_edges)
        result = masses(graph)
        result["internal_weight"] = None
        result["honest_to_sybil_edge"] = False
        runs.append(result)
        invariant = True
        increase = True
        expected_base_mass = 0.0
        sybil_below_hubs = True

    payload = {
        "scenario": "sybil",
        "code_version": CODE_VERSION,
        "config": config.to_dict(),
        "n_honest": n,
        "n_sybil": n_sybil,
        "base_value": base_value,
        "expected_sybil_base_mass": expected_base_mass,
        "runs": runs,
        "sybil_mass_invariant_to_internal_weights": invariant,
        "honest_edge_strictly_increases_mass": increase,
        "sybil_mass_below_equal_size_honest_hubs": sybil_below_hubs,
    }
    csv_rows = [
        {
            "run": idx,
            "internal_weight": r["internal_weight"] if r["internal_weight"] is not None else "",
            "honest_to_sybil_edge": r["honest_to_sybil_edge"],
            "sybil_mass": r["sybil_mass"],
            "hub_mass": r["hub_mass"],
        }
        for idx, r in enumerate(runs)
    ]
    return ScenarioReport(
        payload=payload,
        csv_fields=["run", "internal_weight", "honest_to_sybil_edge", "sybil_mass", "hub_mass"],
        csv_rows=csv_rows,
    )


# ---------------------------------------------------------------------------
# Scenario: marketplace feedback loop
# ---------------------------------------------------------------------------


def _market_graph(n: int, successes: dict[tuple[int, int], int]) -> trust.TrustGraph:
    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        j = (i + 1) % n
        if i != j:
            edges[(i, j)] = 0.3
    for (i, j), count in successes.items():
        weight = 1.0 - 0.5**count
        edges[(i, j)] = max(edges.get((i, j), 0.0), weight)
    edge_list = [(i, j, w) for (i, j), w in sorted(edges.items())]
    return trust.TrustGraph(nodes=[str(i) for i in range(n)], edges=edge_list)


def run_marketplace(config: ScenarioConfig) -> ScenarioReport:
    """Task economy with a trust feedback loop: each round, agents discover a
    provider, pay its invoice through a header settlement, and successful
    payments mint attestations and strengthen trust edges that feed the next
    round's fusion. The last agent is a chronically underfunded outlier whose
    standing erodes."""
    if config.n < 2:
        raise ValueError("marketplace needs at least 2 agents")
    agents = _load_or_generate_agents(config, oddball_last=True)
    n = len(agents)
    deadbeat = n - 1
    resolver = _resolver_for(agents)
    model = _trained_model(config.seed)
    weights = trust.ContextWeights.for_context(trust.ContextKind.DEFAULT)

    ledger = micropay.Ledger()
    for agent in agents:
        ledger.credit(agent.did, config.task_price // 2 if agent.index == deadbeat else 1_000_000)
    initial_total = ledger.total()

    invoice_rng = subsystem_rng(config.seed, "invoice")
    nonce_rng = subsystem_rng(config.seed, "nonce")
    eph_rng = subsystem_rng(config.seed, "ephemeral")
    dp_rng = subsystem_rng(config.seed, "dp")

    issuers = {a.index: AttestationIssuer(a.keypair) for a in agents}
    # The first agent holding each DID; a loaded corpus may repeat a DID.
    by_did: dict[str, SimAgent] = {}
    for agent in agents:
        by_did.setdefault(str(agent.did), agent)
    candidates = {a.index: [b.card for b in agents if b.index != a.index] for a in agents}
    # Attestations minted since the last round close; each is verified once,
    # at the close of its round, and tallied against its subject.
    unverified: list = []
    valid_counts = {i: 0 for i in range(n)}
    payment_attestations = 0
    successes: dict[tuple[int, int], int] = {}
    events = {a.index: {"requests": 0.0, "successes": 0.0, "failures": 0.0, "spend": 0.0} for a in agents}
    actions = {a.index: {"total": 0, "compliant": 0} for a in agents}
    received = {a.index: 0 for a in agents}
    event_clock = 0

    fused: dict[int, float] = {a.index: 0.5 for a in agents}
    last_breakdown: dict[int, dict] = {
        a.index: {"propagated": 0.5, "policy": 1.0, "behavior": 1.0, "attest": 0.0} for a in agents
    }
    rows = []
    regular_domains = list(_DOMAINS)
    deadbeat_amount = config.max_payment + config.task_price

    for round_idx in range(1, config.rounds + 1):
        now = round_idx
        settle_ok = 0
        settle_fail = 0
        for agent in agents:
            trust_report = {str(a.did): fused[a.index] for a in agents if a.index != agent.index}
            for _task in range(config.tasks_per_round):
                _domain, domain_desc, _caps = regular_domains[(agent.index + round_idx) % len(regular_domains)]
                query = f"need a {domain_desc}"
                ranked = discovery.rank(
                    discovery.embed_text(query),
                    candidates[agent.index],
                    trust_report,
                    model,
                    k=1,
                    now=now,
                    tau=config.tau,
                )
                if not ranked:
                    continue
                provider = by_did[ranked[0][0]]
                amount = deadbeat_amount if agent.index == deadbeat else config.task_price
                task_id = f"task-r{round_idx}-a{agent.index}"
                invoice = micropay.create_invoice(provider.did, amount, task_id, expires_at=now + 2, rng=invoice_rng)
                ephemeral = micropay.make_ephemeral(agent.keypair, eph_rng.randbytes(32), now, now + 5)
                nonce = nonce_rng.randbytes(16)
                header_line = micropay.build_payment_header(invoice, agent.keypair, ephemeral, nonce, now)
                header = micropay.parse_payment_header(header_line)

                events[agent.index]["requests"] += 1.0
                actions[agent.index]["total"] += 1
                if amount <= config.max_payment and config.tasks_per_round <= config.max_requests_per_round:
                    actions[agent.index]["compliant"] += 1
                try:
                    ledger.settle(header, invoice, resolver, now)
                except micropay.SettleError:
                    events[agent.index]["failures"] += 1.0
                    settle_fail += 1
                    continue
                settle_ok += 1
                received[provider.index] += 1
                events[agent.index]["successes"] += 1.0
                events[agent.index]["spend"] += float(amount)
                pair = (agent.index, provider.index)
                successes[pair] = successes.get(pair, 0) + 1
                digest = sha256(task_id.encode())
                event_clock += 1
                unverified.append(
                    issuers[provider.index].issue(agent.did, ClaimType.PAYMENT_SETTLED, digest, event_clock)
                )
                payment_attestations += 1
                event_clock += 1
                unverified.append(
                    issuers[agent.index].issue(provider.did, ClaimType.TASK_COMPLETED, digest, event_clock)
                )

        graph = _market_graph(n, successes)
        propagated = trust.propagate_trust(
            graph,
            alpha=config.alpha,
            orientation=trust.Orientation.TRANSPOSE,
            tol=1e-10,
        ).values
        propagated = np.clip(propagated, 0.0, 1.0)
        population = [
            [events[i]["requests"], events[i]["successes"], events[i]["failures"], events[i]["spend"] / config.task_price]
            for i in range(n)
        ]
        for att in unverified:
            if verify_attestation(att, resolver) is AttestationCheck.VALID:
                valid_counts[by_did[str(att.subject)].index] += 1
        unverified.clear()
        new_fused = {}
        breakdown = {}
        for agent in agents:
            i = agent.index
            policy_rate = actions[i]["compliant"] / actions[i]["total"] if actions[i]["total"] else 1.0
            signals = trust.TrustSignals(
                policy_pass_rate=policy_rate,
                anomaly_score=trust.behavior_score(population[i], population),
                attestation_score=trust.attestation_score(valid_counts[i]),
            )
            new_fused[i] = trust.fuse_signals(signals, weights, float(propagated[i]))
            breakdown[i] = {
                "propagated": float(propagated[i]),
                "policy": policy_rate,
                "behavior": signals.anomaly_score,
                "attest": signals.attestation_score,
            }
        fused = new_fused
        last_breakdown = breakdown

        conservation_ok = ledger.total() == initial_total
        attested_ok = payment_attestations == len(ledger.receipts)
        rows.append(
            {
                "round": round_idx,
                "settlements_ok": settle_ok,
                "settlements_failed": settle_fail,
                "ledger_total": ledger.total(),
                "conservation_ok": conservation_ok,
                "payments_attested": attested_ok,
                "deadbeat_fused": fused[deadbeat],
            }
        )

    high_trust = privacy.dp_count(
        list(fused.values()), lambda v: v >= 0.5, config.epsilon, dp_rng, budget=privacy.PrivacyBudget()
    )
    payload = {
        "scenario": "marketplace",
        "code_version": CODE_VERSION,
        "config": config.to_dict(),
        "agents": [
            {
                "index": a.index,
                "did": str(a.did),
                "name": a.name,
                "domain": a.domain,
                "balance": ledger.balance(a.did),
                "propagated": last_breakdown[a.index]["propagated"],
                "policy": last_breakdown[a.index]["policy"],
                "behavior": last_breakdown[a.index]["behavior"],
                "attest": last_breakdown[a.index]["attest"],
                "fused": fused[a.index],
                "tier": trust.verification_tier(fused[a.index]).value,
                "received_payments": received[a.index],
            }
            for a in agents
        ],
        "rounds": rows,
        "receipts": len(ledger.receipts),
        "conservation_ok": all(r["conservation_ok"] for r in rows) if rows else True,
        "payments_attested": all(r["payments_attested"] for r in rows) if rows else True,
        "deadbeat_index": deadbeat,
        "deadbeat_received_payments": received[deadbeat],
        "fused_round_series": {"deadbeat": [float(r["deadbeat_fused"]) for r in rows]},
        "dp_aggregates": {"high_trust_noisy_count": high_trust, "epsilon": config.epsilon},
        "ledger": ledger.export_json_obj(),
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=[
            "round",
            "settlements_ok",
            "settlements_failed",
            "ledger_total",
            "conservation_ok",
            "payments_attested",
            "deadbeat_fused",
        ],
        csv_rows=rows,
    )


# ---------------------------------------------------------------------------
# Scenario: end-to-end discovery
# ---------------------------------------------------------------------------


def run_discovery_e2e(config: ScenarioConfig) -> ScenarioReport:
    agents = _load_or_generate_agents(config, duplicate_every=5)
    n = len(agents)
    resolver = _resolver_for(agents)
    records = _records_for(agents)
    model = _trained_model(config.seed)

    replicas = [federation.ReplicaState(i) for i in range(config.replicas)]
    for idx, record in enumerate(records):
        replicas[idx % config.replicas].local_put(record, logical_time=idx + 1, resolver=resolver)

    topology = federation.Topology.complete(config.replicas)
    gossip_rng = subsystem_rng(config.seed, "gossip")
    target = federation.mesh_target(replicas)
    cap = config.rounds_cap if config.rounds_cap is not None else federation.default_round_cap(config.replicas)
    converged_round = 0
    if federation.converged_count(replicas, *target) < config.replicas:
        converged_round = -1
        for round_idx in range(1, cap + 1):
            stats = federation.gossip_round(replicas, topology, gossip_rng, target=target)
            if stats.converged == config.replicas:
                converged_round = round_idx
                break

    indexes = []
    for replica in replicas:
        index = registry.MerkleRadixIndex()
        for key in sorted(replica.store):
            index.insert_trusted(replica.store[key][0])
        indexes.append(index)
    roots = [index.root_digest for index in indexes]
    roots_equal = len(set(roots)) == 1

    graph_rng = subsystem_rng(config.seed, "trust-graph")
    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        for _ in range(2):
            j = graph_rng.randrange(n)
            if j != i:
                edges.setdefault((i, j), round(graph_rng.uniform(0.2, 1.0), 6))
    graph = trust.TrustGraph(
        nodes=[str(a.did) for a in agents],
        edges=[(i, j, w) for (i, j), w in sorted(edges.items())],
    )
    propagated = trust.propagate_trust(graph, alpha=config.alpha, orientation=trust.Orientation.TRANSPOSE).values
    trust_report = {str(a.did): float(np.clip(propagated[a.index], 0.0, 1.0)) for a in agents}
    if config.trust_overrides:
        for index_str, value in config.trust_overrides.items():
            agent_index = int(index_str)
            trust_report[str(agents[agent_index].did)] = float(value)

    queries = config.queries if config.queries is not None else list(_DEFAULT_QUERIES)
    now = max(a.card.last_active for a in agents) + 1
    cards_by_did = {str(a.did): a.card for a in agents}
    query_results = []
    csv_rows = []
    all_proofs_ok = True
    dedup_ok = True
    for query in queries:
        ranked = discovery.rank(
            discovery.embed_text(query),
            [a.card for a in agents],
            trust_report,
            model,
            k=config.k,
            now=now,
            tau=config.tau,
        )
        embeddings = [discovery.card_embedding(cards_by_did[did]) for did, _score in ranked]
        max_pairwise = 0.0
        for a in range(len(embeddings)):
            for b in range(a + 1, len(embeddings)):
                max_pairwise = max(max_pairwise, discovery.cosine(embeddings[a], embeddings[b]))
        if len(embeddings) > 1 and max_pairwise >= config.tau:
            dedup_ok = False
        results = []
        for rank_pos, (did, score) in enumerate(ranked):
            proof = indexes[0].prove_inclusion(did)
            proof_ok = registry.verify_proof(roots[0], proof)
            all_proofs_ok = all_proofs_ok and proof_ok
            results.append({"did": did, "score": float(score), "proof_ok": proof_ok})
            csv_rows.append(
                {"query": query, "rank": rank_pos, "did": did, "score": float(score), "proof_ok": proof_ok}
            )
        query_results.append({"query": query, "results": results, "max_pairwise_cosine": float(max_pairwise)})

    dp_rng = subsystem_rng(config.seed, "dp")
    budget = privacy.PrivacyBudget()
    capability_counts = {}
    for domain, _desc, caps in _DOMAINS[:2]:
        capability_counts[caps[0]] = privacy.dp_count(
            [a.card for a in agents],
            lambda card, cap=caps[0]: cap in card.capabilities,
            config.epsilon,
            dp_rng,
            budget=budget,
        )

    payload = {
        "scenario": "discovery_e2e",
        "code_version": CODE_VERSION,
        "config": config.to_dict(),
        "n_agents": n,
        "converged_round": converged_round,
        "replica_roots_equal": roots_equal,
        "root_digest": roots[0].hex(),
        "queries": query_results,
        "all_proofs_verified": all_proofs_ok,
        "dedup_below_tau": dedup_ok,
        "trust_report": {did: trust_report[did] for did in sorted(trust_report)},
        "dp_aggregates": {
            "capability_noisy_counts": capability_counts,
            "epsilon": config.epsilon,
            "budget_spent": budget.spent,
        },
        "corpus": [a.card.to_json_obj() for a in agents],
        "snapshot": indexes[0].export_snapshot(),
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=["query", "rank", "did", "score", "proof_ok"],
        csv_rows=csv_rows,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    if config.scenario == "convergence":
        return run_convergence(config)
    if config.scenario == "sybil":
        return run_sybil(config)
    if config.scenario == "marketplace":
        return run_marketplace(config)
    return run_discovery_e2e(config)


def run_scenario_payload(config_dict: dict) -> dict:
    """Process-pool-friendly wrapper: plain dict in, plain dict out."""
    report = run_scenario(ScenarioConfig.from_dict(config_dict))
    return {"payload": report.payload, "csv_fields": report.csv_fields, "csv_rows": report.csv_rows}
