"""Operator entry point: run scenarios, query snapshots, rank agents, train
the ranker, score trust graphs, demo payments, and publish DP counts.

Exit codes: 0 success, 1 validation/usage error, 2 scenario-level failure
under --strict. All errors are single-line JSON diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import random
import sys
from pathlib import Path

import numpy as np

from . import cards as cards_mod
from . import discovery, micropay, privacy, registry, simnet, trust
from .identity import derive_did, generate_keypair, sha256
from .wire import json_float, json_list, json_object, json_str, json_u64

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _diag(message: str, **extra) -> None:
    payload = {"error": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")), file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def build_parser() -> _Parser:
    parser = _Parser(prog="agentmesh", description="Federated agent-registry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run a simulation scenario from a JSON config")
    p_sim.add_argument("--config", required=True, help="scenario config JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", default=None, help="report path (default ./out/<scenario>-<seed>.json)")
    p_sim.add_argument("--trials", type=int, default=1, help="independent seeded scenario runs")
    p_sim.add_argument("--parallel", type=int, default=1, help="worker processes for --trials")
    p_sim.add_argument("--strict", action="store_true", help="exit 2 on scenario-level failure")

    p_resolve = sub.add_parser("resolve", help="resolve a key from a registry snapshot")
    p_resolve.add_argument("--snapshot", required=True, help="registry snapshot JSON file")
    p_resolve.add_argument("--key", required=True, help="DID string or registered name")
    p_resolve.add_argument("--prove", action="store_true", help="include a verified inclusion proof")

    p_rank = sub.add_parser("rank", help="rank a card corpus against a query")
    p_rank.add_argument("--query", required=True)
    p_rank.add_argument("--corpus", required=True, help="JSON Lines card corpus")
    p_rank.add_argument("--k", type=int, default=5)
    p_rank.add_argument("--trust", default=None, help="JSON file mapping DID -> trust score")
    p_rank.add_argument("--model", default=None, help="trained ranker JSON (default: untrained similarity fallback)")
    p_rank.add_argument("--tau", type=float, default=discovery.DEFAULT_TAU)
    p_rank.add_argument("--now", type=int, default=0, help="logical time for recency")

    p_train = sub.add_parser("train", help="train the pairwise ranker")
    p_train.add_argument("--pairs", required=True, help="JSON Lines of {preferred, other} feature pairs")
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--iters", type=int, default=200)
    p_train.add_argument("--out", default=None, help="write the model JSON here")

    p_trust = sub.add_parser("trust", help="propagate and fuse trust over a graph file")
    p_trust.add_argument("--graph", required=True, help='JSON {"nodes": [...], "edges": [[i,j,w],...]}')
    p_trust.add_argument("--alpha", type=float, default=0.85)
    p_trust.add_argument("--orientation", choices=["literal", "transpose"], default="transpose")
    p_trust.add_argument("--tol", type=float, default=1e-9)
    p_trust.add_argument("--signals", default=None, help="JSON mapping node -> {policy, anomaly, attestations}")
    p_trust.add_argument("--context", choices=["financial", "analytical", "default"], default="default")
    p_trust.add_argument("--out", default=None)

    p_pay = sub.add_parser("pay", help="demo a header-embedded settlement, or parse a header")
    p_pay.add_argument("--seed", type=int, default=0)
    p_pay.add_argument("--amount", type=int, default=1000)
    p_pay.add_argument("--payer-balance", type=int, default=100_000)
    p_pay.add_argument("--now", type=int, default=1)
    p_pay.add_argument("--parse", default=None, metavar="HEADER", help="parse/validate a header line instead")

    p_dp = sub.add_parser("dp", help="differentially private count over a card corpus")
    p_dp.add_argument("--input", required=True, help="JSON Lines card corpus")
    p_dp.add_argument("--epsilon", type=float, default=1.0)
    p_dp.add_argument("--seed", type=int, default=0)
    p_dp.add_argument("--capability", default=None, help="count cards advertising this capability (default: all)")
    p_dp.add_argument("--budget", type=float, default=privacy.DEFAULT_BUDGET)

    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_sim(args) -> int:
    config = simnet.ScenarioConfig.from_json_file(args.config)
    if args.seed is not None:
        config = simnet.ScenarioConfig.from_dict({**config.to_dict(), "seed": args.seed})
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")

    trial_configs = [{**config.to_dict(), "seed": config.seed + t} for t in range(args.trials)]
    if args.parallel > 1 and args.trials > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(simnet.run_scenario_payload, trial_configs))
    else:
        results = [simnet.run_scenario_payload(c) for c in trial_configs]

    if args.trials == 1:
        report = simnet.ScenarioReport(
            payload=results[0]["payload"],
            csv_fields=results[0]["csv_fields"],
            csv_rows=results[0]["csv_rows"],
        )
    else:
        report = simnet.ScenarioReport(
            payload={
                "scenario": config.scenario,
                "code_version": simnet.CODE_VERSION,
                "config": config.to_dict(),
                "trials": [r["payload"] for r in results],
            },
            csv_fields=results[0]["csv_fields"],
            csv_rows=[row for r in results for row in r["csv_rows"]],
        )

    out = args.out or f"./out/{config.scenario}-{config.seed}.json"
    written = simnet.write_report(report, out)
    failure = _scenario_failure(results)
    _emit({"written": written, "scenario": config.scenario, "seed": config.seed, "failure": failure})
    if args.strict and failure is not None:
        return 2
    return 0


def _scenario_failure(results: list[dict]) -> str | None:
    for result in results:
        payload = result["payload"]
        if payload.get("nonconvergent_trials", 0):
            return "nonconvergent"
        if payload.get("converged_round") == -1:
            return "nonconvergent"
        for flag in (
            "conservation_ok",
            "payments_attested",
            "replica_roots_equal",
            "all_proofs_verified",
            "sybil_mass_invariant_to_internal_weights",
        ):
            if payload.get(flag) is False:
                return f"{flag}=false"
    return None


def _cmd_resolve(args) -> int:
    with open(args.snapshot, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    index = registry.MerkleRadixIndex.import_snapshot(snapshot)
    record = index.resolve(args.key)
    if record is None:
        _emit({"key": args.key, "found": False})
        return 0
    out = {"key": args.key, "found": True, "record": record.to_json_obj()}
    if args.prove:
        proof = index.prove_inclusion(args.key)
        out["proof_verified"] = registry.verify_proof(index.root_digest, proof)
        out["root_digest"] = index.root_digest.hex()
    _emit(out)
    return 0


def _cmd_rank(args) -> int:
    corpus = cards_mod.load_cards(args.corpus)
    trust_report = {}
    if args.trust:
        with open(args.trust, "r", encoding="utf-8") as fh:
            trust_obj = json.load(fh)
        if not isinstance(trust_obj, dict):
            raise ValueError("trust file must hold a JSON object mapping DID -> trust score")
        trust_report = {k: float(v) for k, v in trust_obj.items()}
    if args.model:
        with open(args.model, "r", encoding="utf-8") as fh:
            model = discovery.L2RModel.from_json_obj(json.load(fh))
    else:
        # Similarity-dominant fallback so an untrained CLI call is useful.
        model = discovery.L2RModel(theta=np.array([1.0, 0.25, 0.0, 0.0]))
    results = discovery.rank(
        discovery.embed_text(args.query),
        corpus,
        trust_report,
        model,
        k=args.k,
        now=args.now,
        tau=args.tau,
    )
    _emit([{"did": did, "score": score} for did, score in results])
    return 0


def _cmd_train(args) -> int:
    pairs = discovery.load_pairs(args.pairs)
    if not pairs:
        raise _UsageError("no training pairs in input")
    model = discovery.train(pairs, learning_rate=args.lr, iters=args.iters)
    obj = model.to_json_obj()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    _emit(obj)
    return 0


def _cmd_trust(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph_obj = json_object(json.load(fh), "graph file")
    edges = []
    for edge in json_list(graph_obj["edges"], "graph field 'edges'"):
        if len(json_list(edge, "graph edge")) != 3:
            raise ValueError(f"graph edge {edge!r} must be [i, j, w]")
        i, j = (json_u64(index, "graph edge index") for index in edge[:2])
        edges.append((i, j, json_float(edge[2], "graph edge weight")))
    graph = trust.TrustGraph(
        nodes=[json_str(node, "graph node") for node in json_list(graph_obj["nodes"], "graph field 'nodes'")],
        edges=edges,
    )
    orientation = trust.Orientation.LITERAL if args.orientation == "literal" else trust.Orientation.TRANSPOSE
    vector = trust.propagate_trust(graph, alpha=args.alpha, orientation=orientation, tol=args.tol)
    signals_by_node = {}
    if args.signals:
        with open(args.signals, "r", encoding="utf-8") as fh:
            signals_by_node = json.load(fh)
        if not isinstance(signals_by_node, dict):
            raise ValueError("signals file must hold a JSON object mapping node -> signals")
    weights = trust.ContextWeights.for_context(trust.ContextKind(args.context))
    report = []
    for i, node in enumerate(graph.nodes):
        raw = signals_by_node.get(node, {})
        if not isinstance(raw, dict):
            raise ValueError(f"signals for {node!r} must be a JSON object")
        signals = trust.TrustSignals(
            policy_pass_rate=float(raw.get("policy", 1.0)),
            anomaly_score=float(raw.get("anomaly", 1.0)),
            attestation_score=trust.attestation_score(int(raw.get("attestations", 0))),
        )
        propagated = float(np.clip(vector.values[i], 0.0, 1.0))
        fused = trust.fuse_signals(signals, weights, propagated)
        report.append(
            {
                "did": node,
                "propagated": propagated,
                "policy": signals.policy_pass_rate,
                "behavior": signals.anomaly_score,
                "attest": signals.attestation_score,
                "fused": fused,
                "tier": trust.verification_tier(fused).value,
            }
        )
    out = {
        "alpha": args.alpha,
        "orientation": args.orientation,
        "base_vector": "uniform-0.5" if orientation is trust.Orientation.TRANSPOSE else "uniform-1/n",
        "iterations": vector.iterations,
        "residual": vector.residual,
        "agents": report,
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    _emit(out)
    return 0


def _cmd_pay(args) -> int:
    if args.parse is not None:
        try:
            header = micropay.parse_payment_header(args.parse)
        except micropay.HeaderParseError as exc:
            _diag("header parse failed", position=exc.position, reason=exc.reason)
            return 1
        _emit(
            {
                "version": header.version,
                "invoice_id": header.invoice_id.hex(),
                "payer": str(header.payer),
                "amount": header.amount,
                "nonce": header.nonce.hex(),
                "delegation_window": [header.delegation_issued_at, header.delegation_expires_at],
            }
        )
        return 0

    payer_kp = generate_keypair(sha256(b"pay-demo-payer" + args.seed.to_bytes(8, "big", signed=True)))
    payee_kp = generate_keypair(sha256(b"pay-demo-payee" + args.seed.to_bytes(8, "big", signed=True)))
    payer, payee = derive_did(payer_kp.public_key), derive_did(payee_kp.public_key)
    resolver = {str(payer): payer_kp.public_key, str(payee): payee_kp.public_key}
    rng = random.Random(args.seed)
    ledger = micropay.Ledger({str(payer): args.payer_balance})
    invoice = micropay.create_invoice(payee, args.amount, "demo-task", expires_at=args.now + 10, rng=rng)
    ephemeral = micropay.make_ephemeral(payer_kp, rng.randbytes(32), args.now, args.now + 10)
    line = micropay.build_payment_header(invoice, payer_kp, ephemeral, rng.randbytes(16), args.now)
    before = ledger.total()
    try:
        receipt = ledger.settle(micropay.parse_payment_header(line), invoice, resolver, args.now)
    except micropay.SettleError as exc:
        _diag("settlement failed", reason=exc.reason.value)
        return 1
    _emit(
        {
            "header": line,
            "receipt": receipt.to_json_obj(),
            "balances": ledger.export_json_obj()["balances"],
            "conservation_ok": ledger.total() == before,
        }
    )
    return 0


def _cmd_dp(args) -> int:
    corpus = cards_mod.load_cards(args.input)
    params = privacy.DpParams(epsilon=args.epsilon)  # validates the domain
    rng = random.Random(args.seed)
    budget = privacy.PrivacyBudget(args.budget)
    if args.capability:
        predicate = lambda card: args.capability in card.capabilities  # noqa: E731
    else:
        predicate = lambda card: True  # noqa: E731
    try:
        noisy = privacy.dp_count(corpus, predicate, params.epsilon, rng, budget=budget)
    except privacy.BudgetExhausted as exc:
        _diag(str(exc))
        return 1
    _emit(
        {
            "noisy_count": noisy,
            "epsilon": params.epsilon,
            "budget_spent": budget.spent,
            "budget_remaining": budget.remaining,
        }
    )
    return 0


_HANDLERS = {
    "sim": _cmd_sim,
    "resolve": _cmd_resolve,
    "rank": _cmd_rank,
    "train": _cmd_train,
    "trust": _cmd_trust,
    "pay": _cmd_pay,
    "dp": _cmd_dp,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        _diag(str(exc))
        return 1
    except (ValueError, TypeError, OSError, KeyError, trust.NonConvergentError, discovery.TrainingDiverged) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
