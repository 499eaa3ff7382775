"""Tracer self-test: a tiny fixed input with exactly known call counts.

It proves that the wrappers catch every call, including calls through names
that one agentmesh module imported from another, and that ``uninstall``
restores every binding. Each phase checks the change of the tracer's call
counts against numbers that follow from the code paths it drives. It touches
every layer and every function a per-layer metric names, so in a traced run
every wrapper shows as live; its footprint is the same on every run.
"""

from __future__ import annotations

import random
import sys

import numpy as np

from agentmesh import cards, discovery, federation, identity, micropay, privacy, registry, simnet, trust

from . import layers
from .tracer import Tracer, leftover_wrappers

# Names that one module imports from another; each must be rebound.
CROSS_MODULE_NAMES = [
    ("agentmesh.registry", "verify"),
    ("agentmesh.registry", "sign"),
    ("agentmesh.registry", "sha256"),
    ("agentmesh.federation", "verify"),
    ("agentmesh.micropay", "verify"),
    ("agentmesh.micropay", "sign"),
    ("agentmesh.cards", "verify_attestation"),
    ("agentmesh.cards", "sha256"),
    ("agentmesh.simnet", "verify_attestation"),
    ("agentmesh.simnet", "sha256"),
    ("agentmesh.discovery", "sha256"),
]

N_AGENTS = 3


class _Phase:
    def __init__(self, tracer: Tracer, label: str, problems: list[str]) -> None:
        self.tracer = tracer
        self.label = label
        self.problems = problems

    def __enter__(self):
        self.before = self.tracer.counts()
        return self

    def __exit__(self, *exc_info):
        self.after = self.tracer.counts()
        return False

    def delta(self, key: str) -> int:
        return self.after.get(key, 0) - self.before.get(key, 0)

    def expect(self, key: str, expected: int) -> None:
        got = self.delta(key)
        if got != expected:
            self.problems.append(f"selftest {self.label}: {key} changed by {got}, expected {expected}")


def check_bindings(installed: bool) -> list[str]:
    """While the tracer is installed, names imported across modules hold its
    wrappers; afterwards no agentmesh name holds one."""
    problems = []
    for module_name, attr in CROSS_MODULE_NAMES:
        if hasattr(getattr(sys.modules[module_name], attr), "__perfbench_span__") != installed:
            problems.append(f"{module_name}.{attr}: wrapper presence is not {installed}")
    if not installed:
        problems += [f"{name} still holds a tracer wrapper" for name in leftover_wrappers()]
    return problems


def run_selftest(tracer: Tracer) -> list[str]:
    """Drive the fixture under an installed tracer; return every problem."""
    problems = check_bindings(installed=True)
    agents = simnet.synthetic_agents(N_AGENTS, seed=7)
    resolver = {str(a.did): a.keypair.public_key for a in agents}
    n = len(agents)

    with _Phase(tracer, "records", problems) as phase:
        records = []
        for agent in agents:
            digest = cards.card_digest(agent.card)
            for key in (str(agent.did), agent.name):
                records.append(
                    registry.make_record(key, agent.card.endpoint_url, digest, agent.keypair.secret_key, agent.did, 1)
                )
    phase.expect("calls:identity.sign", 2 * n)
    phase.expect("calls:cards.card_digest", n)
    phase.expect("calls:identity.verify", 0)

    index = registry.MerkleRadixIndex()
    with _Phase(tracer, "insert", problems) as phase:
        for record in records:
            index.insert(record, resolver)
    phase.expect("calls:identity.verify", 2 * n)
    phase.expect("calls:registry.MerkleRadixIndex.insert", 2 * n)
    phase.expect("calls:registry.MerkleRadixIndex.insert_trusted", 2 * n)
    phase.expect("counter:registry.insert_trusted_entry", 0)

    with _Phase(tracer, "prove", problems) as phase:
        steps = 0
        for record in records:
            proof = index.prove_inclusion(record.key)
            steps += len(proof.steps)
            if not registry.verify_proof(index.root_digest, proof):
                problems.append(f"selftest prove: proof for {record.key!r} does not verify")
    phase.expect("calls:registry.verify_proof", 2 * n)
    phase.expect("counter:registry.proof_steps", steps)
    # One leaf digest plus one internal digest per step.
    phase.expect("calls:identity.sha256", 2 * n + steps)
    phase.expect("calls:identity.verify", 0)

    replicas = [federation.ReplicaState(i) for i in range(n)]
    with _Phase(tracer, "gossip", problems) as phase:
        for i, record in enumerate(records):
            replicas[i % n].local_put(record, logical_time=i + 1, resolver=resolver)
        target = federation.mesh_target(replicas)
        rng = random.Random(3)
        rounds = 0
        while rounds < 64:
            rounds += 1
            if federation.gossip_round(replicas, federation.Topology.complete(n), rng, target=target).converged == n:
                break
    phase.expect("calls:identity.verify", len(records))
    phase.expect("calls:federation.gossip_round", rounds)
    phase.expect("calls:federation.converged_count", rounds)
    phase.expect("calls:federation.mesh_target", 1)
    # Each replica contacts one neighbour per round: two deltas per contact.
    phase.expect("calls:federation.ReplicaState.delta_for", 2 * n * rounds)
    phase.expect("calls:federation.ReplicaState.apply_delta", 2 * n * rounds + n)
    if len({r.store_fingerprint() for r in replicas}) != 1:
        problems.append("selftest gossip: replicas did not converge")

    graph = trust.TrustGraph(nodes=["a", "b", "c", "d"], edges=[(0, 1, 0.5), (1, 2, 0.9), (2, 0, 0.7), (3, 0, 0.2)])
    with _Phase(tracer, "trust", problems) as phase:
        vector = trust.propagate_trust(graph, alpha=0.85)
        exact = trust.solve_trust_exact(graph, alpha=0.85)
    phase.expect("calls:trust.row_stochastic", 2)
    phase.expect("counter:trust.iterations", vector.iterations)
    if float(np.max(np.abs(vector.values - exact))) > 1e-6:
        problems.append("selftest trust: power iteration disagrees with the dense solve")

    basis = [np.eye(cards.EMBED_DIM)[i] for i in range(4)]
    with _Phase(tracer, "dedup", problems) as phase:
        kept = discovery.dedup([(f"c{i}", 1.0 - i / 10, v) for i, v in enumerate(basis)], tau=0.95)
    phase.expect("calls:discovery.cosine", 4 * 3 // 2)
    phase.expect("counter:discovery.scanned", 4)
    if len(kept) != 4:
        problems.append("selftest dedup: orthogonal candidates were dropped")

    pair = (
        discovery.RankFeatures(cos_sim=0.9, trust=0.8, log_usage=1.0, recency=0.5),
        discovery.RankFeatures(cos_sim=0.1, trust=0.2, log_usage=1.0, recency=0.5),
    )
    with _Phase(tracer, "rank", problems) as phase:
        model = discovery.train([pair], learning_rate=0.5, iters=3)
        hits = discovery.rank(
            discovery.embed_text("weather forecast"),
            [a.card for a in agents],
            {str(a.did): 0.5 for a in agents},
            model,
            k=1,
            now=1000,
        )
    phase.expect("calls:discovery.score_pairwise_loss", 3 + 1)
    # One similarity per card, then a greedy dedup over distinct cards.
    phase.expect("calls:discovery.cosine", n + n * (n - 1) // 2)
    phase.expect("counter:discovery.hits", len(hits))
    if len(hits) != 1:
        problems.append("selftest rank: expected one hit")

    payer, payee = agents[0], agents[1]
    ledger = micropay.Ledger({str(payer.did): 10_000})
    with _Phase(tracer, "settle", problems) as phase:
        invoice = micropay.create_invoice(payee.did, 700, "selftest", expires_at=9, rng=random.Random(5))
        ephemeral = micropay.make_ephemeral(payer.keypair, bytes(range(32)), 1, 9)
        line = micropay.build_payment_header(invoice, payer.keypair, ephemeral, bytes(16), now=2)
        header = micropay.parse_payment_header(line)
        ledger.settle(header, invoice, resolver, now=2)
        try:
            ledger.settle(header, invoice, resolver, now=2)
            problems.append("selftest settle: replayed nonce was accepted")
        except micropay.SettleError:
            pass
    phase.expect("calls:identity.sign", 2)
    # Delegation and payment signatures, on both attempts.
    phase.expect("calls:identity.verify", 4)
    phase.expect("counter:micropay.settle.outcome.ok", 1)
    phase.expect("counter:micropay.settle.outcome.DuplicateNonce", 1)

    with _Phase(tracer, "attest", problems) as phase:
        issuer = identity.AttestationIssuer(payee.keypair)
        att = issuer.issue(payer.did, identity.ClaimType.TASK_COMPLETED, identity.sha256(b"selftest"), 1)
        card = payer.card.bump(credentials=(att,))
        violations = cards.validate_card(card, resolver)
        check = simnet.verify_attestation(att, resolver)
    phase.expect("calls:identity.sign", 1)
    phase.expect("calls:identity.verify_attestation", 2)
    phase.expect("calls:identity.verify", 2)
    if violations or check is not identity.AttestationCheck.VALID:
        problems.append("selftest attest: attestation did not validate")

    with _Phase(tracer, "privacy", problems) as phase:
        privacy.dp_count(range(10), lambda x: x % 2 == 0, 1.0, random.Random(1))
    phase.expect("calls:privacy.dp_count", 1)
    phase.expect("calls:privacy.laplace_mechanism", 1)
    return problems


def selftest_standalone() -> list[str]:
    """Install a throwaway tracer, run the fixture, uninstall, and check that
    every name is back to the original."""
    tracer = Tracer(keep_spans=False)
    layers.attach(tracer)
    tracer.install()
    try:
        with tracer.root("selftest"):
            problems = run_selftest(tracer)
    finally:
        tracer.uninstall()
    return problems + check_bindings(installed=False)
