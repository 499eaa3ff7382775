"""Deterministic simulated-network harness composing registry, federation,
trust, discovery, payments, and DP aggregates into runnable scenarios.

Everything is driven by logical time and per-subsystem RNG streams derived
by hashing (root seed, subsystem label), so an identical config always
produces a byte-identical report.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import cards as cards_mod
from . import discovery, federation, micropay, privacy, registry, trust
from .cards import AgentFactCard
from .identity import (
    AgentDid,
    AttestationIssuer,
    Claim,
    ClaimType,
    KeyPair,
    derive_did,
    generate_keypair,
    seal_covers,
    sha256,
    verify_attestation,
    AttestationCheck,
)
from .wire import dumps, load_json

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
    "report_header",
    "write_report",
]

CODE_VERSION = "agentmesh-0.1.0"

# The type and range of every settable ScenarioConfig field, stated once and
# read by __post_init__ and by the tests' config generator. Rules of one
# scenario (marketplace's n >= 2, the DP budget) stay in its runner.
# Integers: (lowest, highest), both ends included.
INT_RANGES: dict[str, tuple[int, float]] = {
    "n": (1, math.inf),
    "seed": (-(1 << 63), (1 << 63) - 1),
    "rounds": (0, math.inf),
    "rounds_cap": (0, math.inf),
    "trials": (1, math.inf),
    "regular_degree": (1, math.inf),
    "replicas": (1, math.inf),
    "k": (1, math.inf),
    "tasks_per_round": (0, math.inf),
    # task_price + max_payment, the most an invoice asks, then fits a u64.
    "task_price": (1, (1 << 63) - 1),
    "max_payment": (0, (1 << 63) - 1),
    "max_requests_per_round": (0, math.inf),
}
# Finite numbers; a square bracket includes its end.
REAL_RANGES = {"alpha": "(0, 1)", "tau": "(0, 1]", "epsilon": "(0, inf)", "sybil_fraction": "[0, 0.5)"}
# Each value of trust_overrides (a trust score) and each sybil_internal_weight
# (at 0 the Sybil clique's rows sum to 0 and count as dangling: no clique).
ELEMENT_RANGES = {"trust_overrides": "[0, 1]", "sybil_internal_weights": "(0, 1]"}
CHOICES = {
    "scenario": ("convergence", "sybil", "marketplace", "discovery_e2e"),
    "topology": ("complete", "ring", "random_regular"),
    "orientation": ("transpose",),  # the one every scenario propagates trust in; reports echo it
}
NULLABLE = frozenset({"rounds_cap", "corpus", "queries", "trust_overrides"})
_INDEX_KEY = re.compile(r"0|[1-9][0-9]*")  # a trust_overrides key


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float; bools and NaN/inf are refused."""
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_int(value)


def _in_interval(value, interval: str) -> bool:
    """Whether value is a finite number in an interval such as "(0, 1]"."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above_low = _is_real(value) and (low < value or interval[0] == "[" and low == value)
    return above_low and (value < high or interval[-1] == "]" and value == high)


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
        for name, (low, high) in INT_RANGES.items():
            value = getattr(self, name)
            if not (value is None and name in NULLABLE or _is_int(value) and low <= value <= high):
                raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
        for name, interval in REAL_RANGES.items():
            if not _in_interval(getattr(self, name), interval):
                raise ValueError(f"{name} must be a finite number in {interval}, got {getattr(self, name)!r}")
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; expected one of {choices}")
        if self.corpus is not None and not isinstance(self.corpus, str):
            raise ValueError("corpus must be a path string or null")
        queries = self.queries
        if queries is not None and not (isinstance(queries, list) and all(isinstance(q, str) for q in queries)):
            raise ValueError("queries must be a list of strings or null")
        overrides, score = self.trust_overrides, ELEMENT_RANGES["trust_overrides"]
        if overrides is not None and not (
            isinstance(overrides, dict)
            and all(isinstance(k, str) and _INDEX_KEY.fullmatch(k) for k in overrides)
            and all(_in_interval(v, score) for v in overrides.values())
        ):
            raise ValueError(f"trust_overrides must map agent indexes such as 0 or 12 to scores in {score}, or be null")
        weights, weight = self.sybil_internal_weights, ELEMENT_RANGES["sybil_internal_weights"]
        if not (isinstance(weights, tuple) and len(weights) == 2 and all(_in_interval(w, weight) for w in weights)):
            raise ValueError(f"sybil_internal_weights must be two weights in {weight}")

    def to_dict(self) -> dict:
        obj = asdict(self)
        obj["sybil_internal_weights"] = list(self.sybil_internal_weights)
        return obj

    @classmethod
    def from_dict(cls, obj) -> "ScenarioConfig":
        if not (isinstance(obj, dict) and "scenario" in obj):
            raise ValueError("a scenario config must be a JSON object with a 'scenario' key")
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(obj)
        if isinstance(kwargs.get("sybil_internal_weights"), list):
            kwargs["sybil_internal_weights"] = tuple(kwargs["sybil_internal_weights"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(load_json(path))


@dataclass
class ScenarioReport:
    payload: dict
    csv_fields: list[str] = field(default_factory=list)
    csv_rows: list[dict] = field(default_factory=list)
    failure: str | None = None  # what makes `sim --strict` exit 2; not written

    def to_json_bytes(self) -> bytes:
        return dumps(self.payload).encode() + b"\n"

    def to_csv_text(self) -> str:
        lines = [",".join(self.csv_fields)]
        for row in self.csv_rows:
            lines.append(",".join("" if row[f] is None else str(row[f]) for f in self.csv_fields))
        return "\n".join(lines) + "\n"


def _first_failure(*checks: tuple[bool, str]) -> str | None:
    """The failure named by the first (held, failure) check that does not
    hold, in the runner's order of priority."""
    return next((failure for held, failure in checks if not held), None)


def report_header(config: ScenarioConfig) -> dict:
    """The keys every report payload opens with."""
    return {"scenario": config.scenario, "code_version": CODE_VERSION, "config": config.to_dict()}


def write_report(report: ScenarioReport, out_path: str | Path) -> list[str]:
    """Write the report's JSON to out_path and its CSV beside it, at
    out_path with the suffix ".csv", a header line even when there are no
    rows; return both paths. The caller checks that the two paths differ
    (`agentmesh sim` does, before any scenario runs)."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path = out_path.with_suffix(".csv")
    out_path.write_bytes(report.to_json_bytes())
    csv_path.write_text(report.to_csv_text(), encoding="utf-8")
    return [str(out_path), str(csv_path)]


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


def _keypair(label: bytes, seed: int, i: int) -> KeyPair:
    return generate_keypair(sha256(label + seed.to_bytes(8, "big", signed=True) + i.to_bytes(4, "big")))


def synthetic_agents(
    n: int,
    seed: int,
    duplicate_every: int = 0,
    oddball_last: bool = False,
) -> list[SimAgent]:
    """Deterministic agent corpus. `duplicate_every=k` makes every k-th agent
    a description/capability clone of its predecessor (for dedup runs);
    `oddball_last` gives the final agent a domain nobody queries.

    A corpus has at most 31 distinct descriptions, so each is embedded once,
    and every card with that description holds the same value: the checked
    embedding that the first such card made of the tuple."""
    rng = subsystem_rng(seed, "corpus")
    agents: list[SimAgent] = []
    embeddings: dict[str, tuple[float, ...]] = {}
    for i in range(n):
        keypair = _keypair(b"agent-seed", seed, i)
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
        embedding = embeddings.get(description)
        if embedding is None:
            # tolist() gives the Python float of each element, as float(x) does.
            embedding = tuple(discovery.embed_text(description).tolist())
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
        embeddings.setdefault(description, card.embedding)
        agents.append(SimAgent(index=i, keypair=keypair, did=did, name=f"agent-{i:03d}", domain=domain, card=card))
    return agents


def _resolver_for(agents: list[SimAgent]) -> dict[str, bytes]:
    return {a.did: a.keypair.public_key for a in agents}


def _records_for(agents: list[SimAgent]) -> list[registry.RegistryRecord]:
    records = []
    for agent in agents:
        digest = cards_mod.card_digest(agent.card)
        for key in (agent.did, agent.name):
            records.append(
                registry.make_record(
                    key=key,
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
    return discovery.train(pairs, learning_rate=0.5, iters=300)


def _load_or_generate_agents(config: ScenarioConfig, duplicate_every: int = 0) -> list[SimAgent]:
    if config.corpus is None:
        return synthetic_agents(config.n, config.seed, duplicate_every=duplicate_every)
    loaded = cards_mod.load_cards(config.corpus)
    agents = []
    for i, card in enumerate(loaded):
        # External corpora carry no keys; mint deterministic stand-in keys,
        # bound to each card's DID by the resolver, so records stay
        # verifiable inside the simulation.
        agents.append(
            SimAgent(
                index=i,
                keypair=_keypair(b"corpus-agent", config.seed, i),
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
    """Rounds until one signed record, put at replica 0 of a fresh mesh,
    reaches every replica, over `trials` trials, each with its own gossip
    stream. The trials share the record: the report reads only its size."""
    topology = _topology_for(config)
    keypair = _keypair(b"conv-record", config.seed, 0)
    did = derive_did(keypair.public_key)
    record = registry.make_record(did, "https://mesh.example/meta", sha256(b"card"), keypair.secret_key, did, 1)
    resolver = {did: keypair.public_key}
    per_trial: list[int | None] = []  # None marks a trial stopped at the cap
    csv_rows: list[dict] = []
    for trial in range(config.trials):
        trial_seed = hashlib.sha256(f"gossip-trial:{config.seed}:{trial}".encode()).digest()
        rng = random.Random(int.from_bytes(trial_seed[:8], "big"))
        mesh = [federation.ReplicaState(i) for i in range(config.n)]
        mesh[0].local_put(record, logical_time=1, resolver=resolver)
        rounds_used, stats = federation.gossip_to_convergence(mesh, topology, rng, config.rounds_cap)
        per_trial.append(rounds_used)
        csv_rows.extend(
            {"trial": trial, "round": r, "converged_count": s.converged, "messages": s.messages, "bytes": s.bytes_sent}
            for r, s in enumerate(stats, start=1)
        )
    converged = sorted(r for r in per_trial if r is not None)
    median = float(statistics.median(converged)) if converged else None
    p95 = float(converged[math.ceil(0.95 * len(converged)) - 1]) if converged else None
    nonconvergent = len(per_trial) - len(converged)
    bound = 3.0 * math.log2(config.n) if config.n > 1 else 0.0
    payload = {
        **report_header(config),
        "topology": topology.kind,
        "rounds_per_trial": per_trial,
        "median_rounds": median,
        "p95_rounds": p95,
        "nonconvergent_trials": nonconvergent,
        "log2_bound": bound,
        "median_within_bound": (median is not None and median <= bound) if config.n > 1 else True,
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=["trial", "round", "converged_count", "messages", "bytes"],
        csv_rows=csv_rows,
        failure=_first_failure((nonconvergent == 0, "nonconvergent")),
    )


# ---------------------------------------------------------------------------
# Scenario: Sybil resistance
# ---------------------------------------------------------------------------


def _honest_graph_edges(n: int, rng: random.Random, hubs: int) -> np.ndarray:
    """The honest graph as an (E, 3) array of (i, j, w) rows: a ring of 0.6
    edges i -> i+1, a skip edge i -> i+3 of random weight, and an edge from
    every node i >= hubs to its hub i % hubs of weight at least 0.9.

    Every node whose skip edge is not a self-loop draws its weight in node
    order, even when the ring already holds that pair (n = 2) and keeps its
    0.6. A hub edge that meets the node's ring or skip edge raises that
    edge's weight to 0.9 if it is lower; it adds no second edge."""
    node = np.arange(n)
    ring, skip, hub = (node + 1) % n, (node + 3) % n, node % hubs
    drawn = skip != node
    skip_w = np.zeros(n)
    skip_w[drawn] = [round(rng.uniform(0.3, 1.0), 6) for _ in range(int(drawn.sum()))]
    ring_w = np.full(n, 0.6)
    has_ring, has_skip, has_hub = ring != node, drawn & (skip != ring), hub != node
    hub_on_ring = has_hub & has_ring & (hub == ring)
    hub_on_skip = has_hub & has_skip & (hub == skip)
    ring_w[hub_on_ring] = np.maximum(ring_w[hub_on_ring], 0.9)
    skip_w[hub_on_skip] = np.maximum(skip_w[hub_on_skip], 0.9)
    has_hub &= ~(hub_on_ring | hub_on_skip)
    return np.concatenate(
        [
            np.column_stack((node[has], dst[has], w[has]))
            for has, dst, w in ((has_ring, ring, ring_w), (has_skip, skip, skip_w), (has_hub, hub, np.full(n, 0.9)))
        ]
    )


def _trust_graph(nodes: list[str], edges: dict[tuple[int, int], float]) -> trust.TrustGraph:
    return trust.TrustGraph(nodes=nodes, edges=[(i, j, w) for (i, j), w in sorted(edges.items())])


def _sybil_layout(n_honest: int, n_sybil: int) -> tuple[tuple[str, ...], tuple[np.ndarray, np.ndarray]]:
    """The node names, honest nodes first, and the (src, dst) index arrays of
    the complete Sybil clique over the n_sybil nodes that follow them."""
    nodes = tuple(f"honest-{i}" for i in range(n_honest)) + tuple(f"sybil-{i}" for i in range(n_sybil))
    a, b = np.nonzero(~np.eye(n_sybil, dtype=bool))
    return nodes, (n_honest + a, n_honest + b)


def _sybil_graph(
    nodes: tuple[str, ...],
    n_honest: int,
    clique: tuple[np.ndarray, np.ndarray],
    internal_weight: float | None,
    honest_edges: np.ndarray,
    honest_to_sybil: bool,
) -> trust.TrustGraph:
    """The honest edges, an (E, 3) array of (i, j, w) rows, plus the Sybil
    clique of `_sybil_layout` at internal_weight and optionally one edge from
    honest node 0 to the first Sybil node. The three parts share no ordered
    pair, and W does not depend on edge order."""
    parts = [honest_edges]
    src, dst = clique
    if src.size:
        parts.append(np.column_stack((src, dst, np.full(src.size, internal_weight))))
    if honest_to_sybil:
        parts.append(np.array([(0.0, n_honest, 1.0)]))
    return trust.TrustGraph(nodes=nodes, edges=np.concatenate(parts))


def run_sybil(config: ScenarioConfig) -> ScenarioReport:
    n = config.n
    n_sybil = int(n * config.sybil_fraction)
    rng = subsystem_rng(config.seed, "sybil-graph")
    hubs = max(1, n_sybil)
    honest_edges = _honest_graph_edges(n, rng, hubs)
    base_value = 0.5

    # (internal weight, honest-to-Sybil edge): both internal weights without
    # the edge, then the second with it; with no Sybils, the honest graph alone.
    w_a, w_b = config.sybil_internal_weights
    settings = [(w_a, False), (w_b, False), (w_b, True)] if n_sybil > 0 else [(None, False)]
    nodes, clique = _sybil_layout(n, n_sybil)
    graphs = [_sybil_graph(nodes, n, clique, w_int, honest_edges, edge) for w_int, edge in settings]
    base = np.full(n + n_sybil, base_value)
    solutions = trust.fixed_points(
        graphs, alpha=config.alpha, base=base, orientation=trust.Orientation.TRANSPOSE, tol=1e-12
    )
    runs = [
        {
            "sybil_mass": float(solved[n:].sum()),
            "hub_mass": float(solved[:hubs].sum()) if n_sybil > 0 else 0.0,
            "power_vs_solve_max_diff": float(np.max(np.abs(solved - powered.values))),
            "total_mass": float(solved.sum()),
            "internal_weight": w_int,
            "honest_to_sybil_edge": edge,
        }
        for (w_int, edge), (powered, solved) in zip(settings, solutions)
    ]
    if n_sybil > 0:
        mass_a, mass_b, mass_edge = (r["sybil_mass"] for r in runs)
        invariant = abs(mass_a - mass_b) <= 1e-9
        increase = mass_edge > mass_b + 1e-12
        sybil_below_hubs = mass_b < runs[1]["hub_mass"]
    else:
        invariant = increase = sybil_below_hubs = True

    payload = {
        **report_header(config),
        "n_honest": n,
        "n_sybil": n_sybil,
        "base_value": base_value,
        "expected_sybil_base_mass": base_value * n_sybil,
        "runs": runs,
        "sybil_mass_invariant_to_internal_weights": invariant,
        "honest_edge_strictly_increases_mass": increase,
        "sybil_mass_below_equal_size_honest_hubs": sybil_below_hubs,
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=["run", "internal_weight", "honest_to_sybil_edge", "sybil_mass", "hub_mass"],
        csv_rows=[{"run": idx, **r} for idx, r in enumerate(runs)],
        failure=_first_failure((invariant, "sybil_mass_invariant_to_internal_weights=false")),
    )


# ---------------------------------------------------------------------------
# Scenario: marketplace feedback loop
# ---------------------------------------------------------------------------


def _market_graph(n: int, successes: dict[tuple[int, int], int]) -> trust.TrustGraph:
    """A ring of 0.3 edges, overwritten by each paid pair's success edge of
    weight 1 - 0.5**count, which is at least 0.5."""
    edges = {(i, (i + 1) % n): 0.3 for i in range(n)}
    edges.update({pair: 1.0 - 0.5**count for pair, count in successes.items()})
    return _trust_graph([str(i) for i in range(n)], edges)


def _check_dp_budget(epsilon: float, releases: int) -> privacy.PrivacyBudget:
    """Charge the scenario's DP releases to one default budget up front, and
    refuse a config that would overrun it or overflow the noise scale, rather
    than fail after the scenario has run. The releases then run uncharged;
    the returned budget is what they spent."""
    privacy.laplace_scale(1.0, epsilon)
    budget = privacy.PrivacyBudget()
    try:
        for _ in range(releases):
            budget.charge(epsilon)
    except privacy.BudgetExhausted as exc:
        raise ValueError(f"epsilon {epsilon} over {releases} DP release(s): {exc}") from exc
    return budget


def run_marketplace(config: ScenarioConfig) -> ScenarioReport:
    """Task economy with a trust feedback loop: each round, agents discover a
    provider, pay its invoice through a header settlement, and successful
    payments mint attestations and strengthen trust edges that feed the next
    round's fusion. The last agent is a chronically underfunded outlier whose
    standing erodes."""
    if config.corpus is not None:
        raise ValueError("marketplace cannot run on a loaded corpus: its cards carry no keys that match their DIDs")
    if config.n < 2:
        raise ValueError("marketplace needs at least 2 agents")
    _check_dp_budget(config.epsilon, 1)
    agents = synthetic_agents(config.n, config.seed, oddball_last=True)
    n = len(agents)
    deadbeat = n - 1
    resolver = _resolver_for(agents)
    model = _trained_model(config.seed)

    ledger = micropay.Ledger()
    for agent in agents:
        ledger.credit(agent.did, config.task_price // 2 if agent.index == deadbeat else 1_000_000)
    initial_total = ledger.total()

    invoice_rng = subsystem_rng(config.seed, "invoice")
    nonce_rng = subsystem_rng(config.seed, "nonce")
    eph_rng = subsystem_rng(config.seed, "ephemeral")
    dp_rng = subsystem_rng(config.seed, "dp")

    issuers = [AttestationIssuer(a.keypair) for a in agents]
    # Each payer's delegated key, reused while its window holds.
    ephemerals: list[micropay.EphemeralKey | None] = [None] * n
    index_of = {a.did: a.index for a in agents}
    cards = [a.card for a in agents]
    # Claims made since the last round close, by issuer index in the order
    # of each issuer's first claim. At the close each issuer seals its
    # claims with one signature; the seal is checked once, and every claim
    # it covers is tallied against its subject.
    unsealed: dict[int, list[Claim]] = {}
    valid_counts = [0] * n
    payments_verified = 0
    successes: dict[tuple[int, int], int] = {}
    # Per agent: requests, settlements, failures and spend.
    behaviour = np.zeros((n, 4))
    received = [0] * n
    event_clock = 0

    # Trust rows as of the last round close; before the first, every agent
    # stands at the neutral prior.
    prior = {"propagated": 0.5, "policy": 1.0, "behavior": 1.0, "attest": 0.0, "fused": 0.5}
    standing = [{**prior, "tier": trust.verification_tier(0.5)} for _ in agents]
    rows = []
    # A task's query is its round's domain description, so each of the few
    # distinct queries is embedded once.
    domain_queries = [discovery.embed_text(f"need a {domain_desc}") for _domain, domain_desc, _caps in _DOMAINS]
    amounts = [config.task_price] * n
    amounts[deadbeat] = config.max_payment + config.task_price
    # An agent asks the same amount at the same rate every time, so either
    # all of its requests comply with the payment policy or none do; with no
    # tasks there are no requests, and none breaks the policy.
    within_rate = config.tasks_per_round <= config.max_requests_per_round
    compliant = [config.tasks_per_round == 0 or (within_rate and amount <= config.max_payment) for amount in amounts]

    for round_idx in range(1, config.rounds + 1):
        now = round_idx
        settle_ok = 0
        settle_fail = 0
        # No agent is among its own candidates, so one report serves them all.
        trust_report = {a.did: standing[a.index]["fused"] for a in agents}
        for i, agent in enumerate(agents):
            for _task in range(config.tasks_per_round):
                # With k=1, dedup keeps the first of n-1 >= 1 candidates.
                ranked = discovery.rank(
                    domain_queries[(i + round_idx) % len(domain_queries)],
                    cards[:i] + cards[i + 1 :],
                    trust_report,
                    model,
                    k=1,
                    now=now,
                    tau=config.tau,
                )
                p = index_of[ranked[0][0]]
                provider = agents[p]
                amount = amounts[i]
                task_id = f"task-r{round_idx}-a{i}"
                invoice = micropay.create_invoice(provider.did, amount, task_id, expires_at=now + 2, rng=invoice_rng)
                ephemeral = ephemerals[i]
                if ephemeral is None or not ephemeral.delegation.in_window(now):
                    ephemeral = micropay.make_ephemeral(agent.keypair, eph_rng.randbytes(32), now, now + 5)
                    ephemerals[i] = ephemeral
                nonce = nonce_rng.randbytes(16)
                header_line = micropay.build_payment_header(invoice, agent.keypair, ephemeral, nonce, now)
                header = micropay.parse_payment_header(header_line)

                behaviour[i, 0] += 1.0
                try:
                    ledger.settle(header, invoice, resolver, now)
                except micropay.SettleError:
                    behaviour[i, 2] += 1.0
                    settle_fail += 1
                    continue
                settle_ok += 1
                received[p] += 1
                behaviour[i, 1] += 1.0
                behaviour[i, 3] += float(amount)
                successes[(i, p)] = successes.get((i, p), 0) + 1
                digest = sha256(task_id.encode())
                event_clock += 1
                payment = issuers[p].claim(agent.did, ClaimType.PAYMENT_SETTLED, digest, event_clock)
                unsealed.setdefault(p, []).append(payment)
                event_clock += 1
                completed = issuers[i].claim(provider.did, ClaimType.TASK_COMPLETED, digest, event_clock)
                unsealed.setdefault(i, []).append(completed)

        graph = _market_graph(n, successes)
        propagated = trust.propagate_trust(
            graph,
            alpha=config.alpha,
            orientation=trust.Orientation.TRANSPOSE,
            tol=1e-10,
        ).values
        propagated = np.clip(propagated, 0.0, 1.0)
        for issuer_index, claims in unsealed.items():
            event_clock += 1
            seal = issuers[issuer_index].seal(claims, event_clock)
            if seal_covers(seal, claims) and verify_attestation(seal, resolver) is AttestationCheck.VALID:
                for claim in claims:
                    valid_counts[index_of[claim.subject]] += 1
                    payments_verified += claim.claim_type is ClaimType.PAYMENT_SETTLED
        unsealed.clear()
        population = behaviour.copy()
        population[:, 3] /= config.task_price
        anomaly = trust.behavior_scores(population)
        standing = [
            trust.trust_breakdown(
                policy=float(compliant[i]),
                behavior=anomaly[i],
                attest=trust.attestation_score(valid_counts[i]),
                propagated=float(propagated[i]),
                context="default",
            )
            for i in range(n)
        ]

        rows.append(
            {
                "round": round_idx,
                "settlements_ok": settle_ok,
                "settlements_failed": settle_fail,
                "ledger_total": ledger.total(),
                "conservation_ok": ledger.total() == initial_total,
                # Every receipt has its payment attestation, and it verifies.
                "payments_attested": payments_verified == len(ledger.receipts),
                "deadbeat_fused": standing[deadbeat]["fused"],
            }
        )

    fused = [row["fused"] for row in standing]
    high_trust = privacy.dp_count(fused, lambda v: v >= 0.5, config.epsilon, dp_rng)
    payload = {
        **report_header(config),
        "agents": [
            {
                "index": a.index,
                "did": a.did,
                "name": a.name,
                "domain": a.domain,
                "balance": ledger.balance(a.did),
                **standing[a.index],
                "received_payments": received[a.index],
            }
            for a in agents
        ],
        "rounds": rows,
        "receipts": len(ledger.receipts),
        "conservation_ok": all(r["conservation_ok"] for r in rows),
        "payments_attested": all(r["payments_attested"] for r in rows),
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
        failure=_first_failure(
            (payload["conservation_ok"], "conservation_ok=false"),
            (payload["payments_attested"], "payments_attested=false"),
        ),
    )


# ---------------------------------------------------------------------------
# Scenario: end-to-end discovery
# ---------------------------------------------------------------------------


def run_discovery_e2e(config: ScenarioConfig) -> ScenarioReport:
    budget = _check_dp_budget(config.epsilon, len(_DOMAINS[:2]))
    agents = _load_or_generate_agents(config, duplicate_every=5)
    n = len(agents)
    resolver = _resolver_for(agents)
    records = _records_for(agents)
    model = _trained_model(config.seed)

    replicas = [federation.ReplicaState(i) for i in range(config.replicas)]
    for idx, record in enumerate(records):
        replicas[idx % config.replicas].local_put(record, logical_time=idx + 1, resolver=resolver)

    rounds, _stats = federation.gossip_to_convergence(
        replicas, federation.Topology.complete(config.replicas), subsystem_rng(config.seed, "gossip"), config.rounds_cap
    )

    # An index's root is a function of its record set alone, so the replicas'
    # roots are equal exactly when their records are; only replica 0's index
    # is built, for its root, its proofs and the snapshot.
    records_of = [{key: record for key, (record, _tag) in replica.store.items()} for replica in replicas]
    roots_equal = all(records == records_of[0] for records in records_of)
    index = registry.MerkleRadixIndex()
    for key in sorted(records_of[0]):
        index.insert_trusted(records_of[0][key])
    root = index.root_digest

    graph_rng = subsystem_rng(config.seed, "trust-graph")
    edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        for _ in range(2):
            j = graph_rng.randrange(n)
            if j != i:
                edges.setdefault((i, j), round(graph_rng.uniform(0.2, 1.0), 6))
    graph = _trust_graph([a.did for a in agents], edges)
    propagated = trust.propagate_trust(graph, alpha=config.alpha, orientation=trust.Orientation.TRANSPOSE).values
    trust_report = {a.did: float(np.clip(propagated[a.index], 0.0, 1.0)) for a in agents}
    if config.trust_overrides:
        for index_str, value in config.trust_overrides.items():
            agent_index = int(index_str)
            if not 0 <= agent_index < n:
                raise ValueError(f"trust_overrides index {agent_index} is outside the {n} agents")
            trust_report[agents[agent_index].did] = float(value)

    queries = config.queries if config.queries is not None else list(_DEFAULT_QUERIES)
    now = max(a.card.last_active for a in agents) + 1
    cards_by_did = {a.did: a.card for a in agents}
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
            # Replica 0 lacks a hit only when gossip stopped at the cap.
            proof_ok = did in replicas[0].store and registry.verify_proof(root, index.prove_inclusion(did))
            all_proofs_ok = all_proofs_ok and proof_ok
            results.append({"did": did, "score": float(score), "proof_ok": proof_ok})
            csv_rows.append({"query": query, "rank": rank_pos, **results[-1]})
        query_results.append({"query": query, "results": results, "max_pairwise_cosine": float(max_pairwise)})

    dp_rng = subsystem_rng(config.seed, "dp")
    capability_counts = {}
    for domain, _desc, caps in _DOMAINS[:2]:
        capability_counts[caps[0]] = privacy.dp_count(
            [a.card for a in agents],
            lambda card, cap=caps[0]: cap in card.capabilities,
            config.epsilon,
            dp_rng,
        )

    payload = {
        **report_header(config),
        "n_agents": n,
        "converged_round": -1 if rounds is None else rounds,
        "replica_roots_equal": roots_equal,
        "root_digest": root.hex(),
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
        "snapshot": index.export_snapshot(),
    }
    return ScenarioReport(
        payload=payload,
        csv_fields=["query", "rank", "did", "score", "proof_ok"],
        csv_rows=csv_rows,
        failure=_first_failure(
            (rounds is not None, "nonconvergent"),
            (roots_equal, "replica_roots_equal=false"),
            (all_proofs_ok, "all_proofs_verified=false"),
        ),
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
