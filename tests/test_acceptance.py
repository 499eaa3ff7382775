"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here, not configurable; the independent oracles
(dense linear solve, hash-map shadow, finite differences, exhaustive pair
scans) live inside the tests and never share code with the paths they
check beyond the public API.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import time

import numpy as np
import pytest

from agentmesh import discovery, federation, micropay, privacy, registry, simnet, trust
from agentmesh.identity import derive_did, generate_keypair, sha256
from _helpers import keypair_for, random_card, signed_record, state_from_pool, write_pool


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_graph(rng: random.Random, n_max: int, density: float = 0.2) -> trust.TrustGraph:
    n = rng.randrange(2, n_max + 1)
    edges = [
        (i, j, rng.random())
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return trust.TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)


# -- 1. propagation fixed point vs dense solve --------------------------------


def test_ac1_propagation_matches_linear_solve():
    started = time.time()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(100):
        graph = _random_graph(rng, n_max=200)
        orientation = rng.choice([trust.Orientation.LITERAL, trust.Orientation.TRANSPOSE])
        vector = trust.propagate_trust(graph, alpha=0.85, orientation=orientation, tol=1e-12)
        exact = trust.solve_trust_exact(graph, alpha=0.85, orientation=orientation)
        worst = max(worst, float(np.max(np.abs(vector.values - exact))))
    # alpha -> 0 limit returns the base vector
    g = _random_graph(rng, n_max=20)
    e = np.array([rng.uniform(0.1, 0.9) for _ in range(g.n)])
    limit = trust.propagate_trust(g, alpha=1e-12, base=e, orientation=trust.Orientation.LITERAL)
    limit_err = float(np.max(np.abs(limit.values - e)))
    elapsed = time.time() - started
    _report(
        "AC1 fixed point matches dense solve (100 graphs, n<=200) and alpha->0 gives T=e",
        worst <= 1e-9 and limit_err <= 1e-9 and elapsed < 10.0,
        f"max|power-solve|={worst:.2e}, alpha->0 err={limit_err:.2e}, {elapsed:.1f}s",
    )


# -- 2. bounds and contraction -------------------------------------------------


def test_ac2_bounds_and_residual_contraction():
    rng = random.Random(1002)
    bounds_ok = True
    contraction_ok = True
    for _ in range(1000):
        graph = _random_graph(rng, n_max=30)
        e = np.array([rng.uniform(0.05, 0.95) for _ in range(graph.n)])
        vector = trust.propagate_trust(
            graph, alpha=0.85, base=e, orientation=trust.Orientation.LITERAL, tol=1e-10, keep_trace=True
        )
        if vector.values.min() < e.min() - 1e-12 or vector.values.max() > e.max() + 1e-12:
            bounds_ok = False
        trace = vector.residual_trace
        for before, after in zip(trace, trace[1:]):
            # alpha-factor contraction, plus a 1e-13 allowance for the float
            # error of evaluating the residual itself
            if after > before * (0.85 + 1e-12) + 1e-13:
                contraction_ok = False
    _report(
        "AC2 propagated values within [min(e),max(e)] and residual contracts by alpha (1000 instances)",
        bounds_ok and contraction_ok,
    )


# -- 3. local score readings ----------------------------------------------------


def test_ac3_local_scores_on_fixed_graphs():
    g1 = trust.TrustGraph(nodes=["a", "b"], edges=[(0, 1, 0.8)])
    g2 = trust.TrustGraph(nodes=list("abcd"), edges=[(0, 1, 0.2), (0, 2, 0.4), (0, 3, 0.6), (1, 0, 1.0)])
    g3 = trust.TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.5), (1, 0, 0.3)])
    lit = trust.Direction.FORMULA_LITERAL
    inc = trust.Direction.INCOMING
    checks = [
        trust.local_trust_score(g1, 0, lit) == pytest.approx(0.8, abs=1e-12),
        trust.local_trust_score(g1, 1, inc) == pytest.approx(0.8, abs=1e-12),
        trust.local_trust_score(g1, 0, inc) is None,
        trust.local_trust_score(g2, 0, lit) == pytest.approx(0.4, abs=1e-12),
        trust.local_trust_score(g2, 0, inc) == pytest.approx(1.0, abs=1e-12),
        trust.local_trust_score(g2, 2, lit) is None,
        trust.local_trust_score(g3, 0, lit) == pytest.approx(0.5, abs=1e-12),
        trust.local_trust_score(g3, 0, inc) == pytest.approx(0.3, abs=1e-12),
        trust.local_trust_score(g3, 2, lit) is None,
        trust.local_trust_score(g3, 2, inc) is None,
    ]
    _report("AC3 FormulaLiteral/Incoming local scores match hand-computed means; isolated undefined", all(checks))


# -- 4. gossip convergence scaling ----------------------------------------------


def test_ac4_gossip_convergence_scaling():
    started = time.time()
    medians: dict[int, float] = {}
    within = True
    for n in (16, 64, 256):
        payload = simnet.run_convergence(simnet.ScenarioConfig(scenario="convergence", n=n, trials=100, seed=7)).payload
        assert payload["nonconvergent_trials"] == 0
        medians[n] = payload["median_rounds"]
        bound = 3.0 * math.log2(n)
        if payload["median_rounds"] > bound:
            within = False
        over_bound = sum(1 for r in payload["rounds_per_trial"] if r > bound)
        if over_bound > 5:  # bound must hold in >= 95 of 100 trials
            within = False
    concave = (medians[256] - medians[64]) <= (medians[64] - medians[16]) + 2
    elapsed = time.time() - started
    _report(
        "AC4 complete-graph push-pull medians within 3*log2(n) and growth concave (n=16/64/256, 100 trials)",
        within and concave and elapsed < 60.0,
        f"medians={medians}, {elapsed:.1f}s",
    )


# -- 5. registry vs hash map, incremental root, depth growth ---------------------


def test_ac5_registry_oracle_and_depth():
    owner = keypair_for("ac5-owner")
    owner_did = derive_did(owner.public_key)
    resolver = {str(owner_did): owner.public_key}

    def record_for(key: str, version: int) -> registry.RegistryRecord:
        return registry.make_record(key, f"https://m/{version}", sha256(key.encode()), owner.secret_key, owner_did, version)

    # 10^4 random operations against a plain dict oracle
    rng = random.Random(1005)
    index = registry.MerkleRadixIndex()
    oracle: dict[str, int] = {}
    keys = [f"agent-{i}" for i in range(2000)]
    mismatches = 0
    for _ in range(10_000):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < 0.5:
            version = oracle.get(key, 0) + 1
            index.insert(record_for(key, version), resolver)
            oracle[key] = version
        else:
            record = index.resolve(key)
            expected = oracle.get(key)
            got = record.version if record is not None else None
            if got != expected:
                mismatches += 1
    for key, version in oracle.items():
        record = index.resolve(key)
        if record is None or record.version != version:
            mismatches += 1

    # incremental root equals recomputation after every mutation (500 ops)
    index2 = registry.MerkleRadixIndex()
    versions: dict[str, int] = {}
    incremental_ok = True
    for _ in range(500):
        key = f"r-{rng.randrange(120)}"
        versions[key] = versions.get(key, 0) + 1
        index2.insert(record_for(key, versions[key]), resolver)
        if index2.root_digest != index2.recompute_root():
            incremental_ok = False

    # mean resolve depth grows sublinearly in record count
    depths = {}
    for n in (100, 1000, 10_000):
        idx = registry.MerkleRadixIndex()
        probe_rng = random.Random(n)
        probe_keys = []
        for i in range(n):
            key = "did:nanda:" + probe_rng.randbytes(32).hex()
            probe_keys.append(key)
            idx.insert_trusted(
                registry.RegistryRecord(key, "https://m", sha256(key.encode()), owner_did, 1, b"\x00" * 64)
            )
        sample = probe_keys if n <= 1000 else [probe_keys[i] for i in range(0, n, 10)]
        depths[n] = statistics.mean(idx.resolve_with_depth(k)[1] for k in sample)
    monotone = depths[100] < depths[1000] < depths[10_000]
    concave = (depths[10_000] - depths[1000]) <= (depths[1000] - depths[100]) + 0.5
    sublinear = depths[10_000] < 3 * depths[1000]
    _report(
        "AC5 resolution matches hash-map oracle (1e4 ops); incremental root == recompute (500 ops); depth sublinear",
        mismatches == 0 and incremental_ok and monotone and concave and sublinear,
        f"depths={{100: {depths[100]:.2f}, 1000: {depths[1000]:.2f}, 10000: {depths[10_000]:.2f}}}",
    )


# -- 6. Laplace mechanism --------------------------------------------------------


def test_ac6_laplace_variance_and_neighbor_ratio():
    rng = random.Random(1006)
    n = 10**6
    draws = [privacy.laplace_noise(1.0, rng) for _ in range(n)]
    mean = sum(draws) / n
    variance = sum((d - mean) ** 2 for d in draws) / n
    variance_ok = abs(variance - 2.0) / 2.0 < 0.05

    samples = 10**5
    epsilon = 1.0

    def histogram(value: float, seed: int) -> dict[int, int]:
        local = random.Random(seed)
        h: dict[int, int] = {}
        for _ in range(samples):
            bucket = math.floor(privacy.laplace_mechanism(value, 1.0, epsilon, local))
            h[bucket] = h.get(bucket, 0) + 1
        return h

    h_a = histogram(100.0, 7)
    h_b = histogram(101.0, 8)
    floor = samples // 100  # occupied: at least 1% of samples on both sides
    bound = math.e**epsilon * 1.1
    ratio_ok = True
    occupied = 0
    worst = 0.0
    for bucket in set(h_a) & set(h_b):
        if h_a[bucket] >= floor and h_b[bucket] >= floor:
            occupied += 1
            ratio = max(h_a[bucket] / h_b[bucket], h_b[bucket] / h_a[bucket])
            worst = max(worst, ratio)
            if ratio > bound:
                ratio_ok = False
    _report(
        "AC6 Laplace variance 2(s/eps)^2 within 5% at 1e6 samples; neighbor histogram ratio <= e^eps * 1.1",
        variance_ok and ratio_ok and occupied >= 5,
        f"variance={variance:.4f}, worst ratio={worst:.3f} vs bound={bound:.3f} over {occupied} occupied bins",
    )


# -- 7. CRDT laws -----------------------------------------------------------------


def test_ac7_crdt_laws_and_replica_equality():
    rng = random.Random(1007)
    laws_ok = True
    for _ in range(500):
        pool = write_pool(rng)
        a, b, c = (state_from_pool(pool, rng, i) for i in range(3))
        if not federation.merge(a, a).state_equal(a):
            laws_ok = False
        if not federation.merge(a, b).state_equal(federation.merge(b, a)):
            laws_ok = False
        if not federation.merge(federation.merge(a, b), c).state_equal(federation.merge(a, federation.merge(b, c))):
            laws_ok = False

    # post-convergence: replica stores byte-identical
    record, resolver = signed_record("crdt-key", owner_label="ac7-owner")
    mesh = [federation.ReplicaState(i) for i in range(24)]
    mesh[0].local_put(record, logical_time=1, resolver=resolver)
    topology = federation.Topology.complete(24)
    gossip_rng = random.Random(1207)
    target = federation.mesh_target(mesh)
    for _ in range(federation.default_round_cap(24)):
        stats = federation.gossip_round(mesh, topology, gossip_rng, target)
        if stats.converged == len(mesh):
            break
    encodings = {m.canonical_store_bytes() for m in mesh}
    _report(
        "AC7 merge idempotent/commutative/associative (500 triples); converged stores byte-identical",
        laws_ok and len(encodings) == 1 and stats.converged == len(mesh),
    )


# -- 8. ledger conservation, replay, atomicity, parser fuzz ------------------------


def test_ac8_ledger_and_header_robustness():
    rng = random.Random(1008)
    payers = [generate_keypair(rng.randbytes(32)) for _ in range(6)]
    payees = [generate_keypair(rng.randbytes(32)) for _ in range(4)]
    resolver = {str(derive_did(kp.public_key)): kp.public_key for kp in payers + payees}
    ledger = micropay.Ledger({str(derive_did(kp.public_key)): 50_000 for kp in payers})
    initial_total = ledger.total()

    conservation_ok = True
    atomic_ok = True
    replay_ok = True
    last_canonical = ledger.canonical_bytes()
    replayable: list[tuple[micropay.PaymentHeader, micropay.Invoice]] = []
    for i in range(10_000):
        payer_kp = payers[rng.randrange(len(payers))]
        payee_did = derive_did(payees[rng.randrange(len(payees))].public_key)
        mode = rng.random()
        now = i % 97
        invoice = micropay.create_invoice(payee_did, rng.choice([10, 25, 900_000]), f"t{i}", now + 5, rng)
        ephemeral = micropay.make_ephemeral(payer_kp, rng.randbytes(32), now, now + 3)
        line = micropay.build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), now)
        header = micropay.parse_payment_header(line)
        check_invoice = invoice
        if mode < 0.15:  # wrong amount
            check_invoice = dataclasses.replace(invoice, amount=invoice.amount + 1)
        elif mode < 0.25:  # expired
            now = invoice.expires_at + 10
        elif mode < 0.35 and replayable:  # replay an old settlement
            header, check_invoice = replayable[rng.randrange(len(replayable))]
            now = header.delegation.issued_at
        try:
            ledger.settle(header, check_invoice, resolver, now)
            if mode < 0.35 and replayable and check_invoice is not invoice:
                replay_ok = False  # a replayed (payer, nonce) settled twice
            replayable.append((header, check_invoice))
            last_canonical = ledger.canonical_bytes()
        except micropay.SettleError:
            if ledger.canonical_bytes() != last_canonical:
                atomic_ok = False
        if ledger.total() != initial_total:
            conservation_ok = False

    # parser totality on 1e5 fuzz strings, and round-trip on valid headers
    fuzz_rng = random.Random(1108)
    crash_free = True
    prefix = "X-Payment: v1;inv="
    for _ in range(100_000):
        length = fuzz_rng.randrange(0, 50)
        text = bytes(fuzz_rng.randrange(256) for _ in range(length)).decode("latin-1")
        if fuzz_rng.random() < 0.3:
            text = prefix + text
        try:
            micropay.parse_payment_header(text)
        except micropay.HeaderParseError:
            pass
        except Exception:
            crash_free = False
    round_trip_ok = all(
        micropay.parse_payment_header(h.render()).render() == h.render() for h, _inv in replayable[:50]
    )
    _report(
        "AC8 conservation over 1e4 mixed settles; replays rejected; errors atomic; parser survives 1e5 fuzz",
        conservation_ok and atomic_ok and replay_ok and crash_free and round_trip_ok,
        f"settled={len(replayable)}",
    )


# -- 9. Sybil mass properties -------------------------------------------------------


def test_ac9_sybil_mass_invariance_and_sensitivity():
    report = simnet.run_sybil(simnet.ScenarioConfig(scenario="sybil", n=40, seed=1009))
    payload = report.payload
    runs = payload["runs"]
    no_edge = [r for r in runs if not r["honest_to_sybil_edge"]]
    with_edge = [r for r in runs if r["honest_to_sybil_edge"]]
    invariance = abs(no_edge[0]["sybil_mass"] - no_edge[1]["sybil_mass"]) <= 1e-9
    oracle_close = all(r["power_vs_solve_max_diff"] <= 1e-9 for r in runs)
    strict_increase = with_edge[0]["sybil_mass"] > no_edge[1]["sybil_mass"] + 1e-12
    _report(
        "AC9 Sybil mass invariant to internal weights (linear-solve oracle); one honest edge strictly increases it",
        invariance and oracle_close and strict_increase,
        f"masses={no_edge[0]['sybil_mass']:.9f}/{no_edge[1]['sybil_mass']:.9f}, with edge={with_edge[0]['sybil_mass']:.9f}",
    )


# -- 10. ranking module ---------------------------------------------------------------


def test_ac10_ranker_gradient_training_dedup_and_trust_monotonicity():
    rng = random.Random(1010)

    def rand_features() -> discovery.RankFeatures:
        return discovery.RankFeatures(
            cos_sim=rng.uniform(-1, 1),
            trust=rng.uniform(0, 1),
            log_usage=rng.uniform(0, 6),
            recency=rng.uniform(0, 1),
        )

    # analytic gradient vs central differences: relative error < 1e-6, with a
    # 1e-9 absolute floor under which the difference quotient is pure roundoff
    h = 1e-6
    worst_rel = 0.0
    gradient_ok = True
    for _ in range(100):
        pairs = [(rand_features(), rand_features()) for _ in range(rng.randrange(1, 20))]
        model = discovery.L2RModel(theta=np.array([rng.uniform(-2, 2) for _ in range(4)]), bias=rng.uniform(-1, 1))
        _loss, grad = discovery.score_pairwise_loss(model, pairs)
        for param in range(5):
            def loss_at(delta: float) -> float:
                theta = model.theta.copy()
                bias = model.bias
                if param < 4:
                    theta[param] += delta
                else:
                    bias += delta
                return discovery.score_pairwise_loss(discovery.L2RModel(theta=theta, bias=bias), pairs)[0]

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            analytic = float(grad[param])
            if abs(fd - analytic) > 1e-9 + 1e-6 * max(abs(fd), abs(analytic)):
                gradient_ok = False
            worst_rel = max(worst_rel, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-3))

    # training loss non-increasing
    pairs = []
    for _ in range(150):
        other = rand_features()
        preferred = discovery.RankFeatures(
            cos_sim=min(1.0, other.cos_sim + rng.uniform(0.05, 0.4)),
            trust=min(1.0, other.trust + rng.uniform(0.0, 0.2)),
            log_usage=other.log_usage,
            recency=other.recency,
        )
        pairs.append((preferred, other))
    model = discovery.train(pairs, learning_rate=0.3, iters=120)
    history = model.loss_history
    training_ok = all(after <= before + 1e-12 for before, after in zip(history, history[1:]))

    # dedup output pairwise-cosine < tau, verified exhaustively
    base_cards = [random_card(rng) for _ in range(80)]
    cards = list(base_cards)
    for i in range(0, 20, 2):  # inject exact duplicates
        cards.append(base_cards[i].bump())
    tau = 0.95
    trust_report = {str(c.did): rng.random() for c in cards}
    ranked = discovery.rank(
        discovery.embed_text("weather maps invoice"), cards, trust_report, model, k=len(cards), now=0, tau=tau
    )
    embeddings = {str(c.did): discovery.card_embedding(c) for c in cards}
    dedup_ok = True
    for i in range(len(ranked)):
        for j in range(i + 1, len(ranked)):
            if discovery.cosine(embeddings[ranked[i][0]], embeddings[ranked[j][0]]) >= tau:
                dedup_ok = False

    # trust monotonicity through the full discovery pipeline
    def position(config: simnet.ScenarioConfig, agent_index: int) -> dict[str, int | None]:
        run = simnet.run_discovery_e2e(config)
        did = run.payload["corpus"][agent_index]["did"]
        out = {}
        for query in run.payload["queries"]:
            pos = None
            for idx, row in enumerate(query["results"]):
                if row["did"] == did:
                    pos = idx
                    break
            out[query["query"]] = pos
        return out

    base_config = dict(scenario="discovery_e2e", n=12, replicas=3, seed=1010, k=12)
    low = position(simnet.ScenarioConfig(**base_config, trust_overrides={"5": 0.1}), 5)
    high = position(simnet.ScenarioConfig(**base_config, trust_overrides={"5": 0.9}), 5)
    monotone_ok = True
    for query, low_pos in low.items():
        high_pos = high[query]
        if low_pos is not None and (high_pos is None or high_pos > low_pos):
            monotone_ok = False

    _report(
        "AC10 gradient vs finite differences < 1e-6; training non-increasing; dedup < tau; trust raise never lowers rank",
        gradient_ok and training_ok and dedup_ok and monotone_ok,
        f"worst grad rel err={worst_rel:.2e}",
    )


# -- 11. determinism -------------------------------------------------------------------


def test_ac11_scenarios_byte_deterministic():
    configs = [
        simnet.ScenarioConfig(scenario="convergence", n=16, trials=10, seed=1011),
        simnet.ScenarioConfig(scenario="sybil", n=20, seed=1011),
        simnet.ScenarioConfig(scenario="marketplace", n=6, rounds=6, seed=1011),
        simnet.ScenarioConfig(scenario="discovery_e2e", n=12, replicas=3, seed=1011),
    ]
    all_ok = True
    for config in configs:
        first = simnet.run_scenario(config)
        second = simnet.run_scenario(config)
        if first.to_json_bytes() != second.to_json_bytes() or first.to_csv_text() != second.to_csv_text():
            all_ok = False
    _report("AC11 every scenario re-run with identical config yields byte-identical reports", all_ok)
