"""Operator entry point: run scenarios, query snapshots, rank agents, train
the ranker, score trust graphs, demo payments, and publish DP counts.

Exit codes: 0 success, 1 validation/usage error, 2 scenario-level failure
under --strict. All errors are single-line JSON diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path

import numpy as np

from . import cards as cards_mod
from . import discovery, micropay, privacy, registry, simnet, trust
from .identity import derive_did, generate_keypair, sha256
from .wire import dumps, json_float, json_list, json_object, json_str, json_u64, load_json

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _diag(message: str, **extra) -> None:
    print(dumps({"error": message, **extra}), file=sys.stderr)


def _emit(obj) -> None:
    print(dumps(obj))


def _write(path: str, obj) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="agentmesh", description="Federated agent-registry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run a simulation scenario from a JSON config")
    p_sim.add_argument("--config", required=True, help="scenario config JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", default=None, help="report path (default ./out/<scenario>-<seed>.json)")
    p_sim.add_argument("--trials", type=int, default=1, help="independent seeded scenario runs")
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
    p_trust.add_argument("--context", choices=list(trust.CONTEXT_WEIGHTS), default="default")
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
        config = dataclasses.replace(config, seed=args.seed)
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    out = Path(args.out or f"./out/{config.scenario}-{config.seed}.json")
    if out.with_suffix(".csv") == out:
        raise _UsageError(f"--out {str(out)!r} is where the CSV report goes; give the JSON report another suffix")

    reports = [simnet.run_scenario(dataclasses.replace(config, seed=config.seed + t)) for t in range(args.trials)]
    if args.trials == 1:
        report = reports[0]
    else:
        report = simnet.ScenarioReport(
            payload={**simnet.report_header(config), "trials": [r.payload for r in reports]},
            csv_fields=reports[0].csv_fields,
            csv_rows=[row for r in reports for row in r.csv_rows],
            failure=next((r.failure for r in reports if r.failure is not None), None),
        )

    written = simnet.write_report(report, out)
    _emit({"written": written, "scenario": config.scenario, "seed": config.seed, "failure": report.failure})
    if args.strict and report.failure is not None:
        return 2
    return 0


def _cmd_resolve(args) -> int:
    index = registry.MerkleRadixIndex.import_snapshot(load_json(args.snapshot))
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
        trust_obj = load_json(args.trust)
        if not isinstance(trust_obj, dict):
            raise ValueError("trust file must hold a JSON object mapping DID -> trust score")
        trust_report = {did: json_float(value, f"trust score for {did!r}") for did, value in trust_obj.items()}
    if args.model:
        model = discovery.L2RModel.from_json_obj(load_json(args.model))
    else:
        # Similarity-dominant fallback so an untrained CLI call is useful.
        model = discovery.L2RModel(theta=np.array([1.0, 0.25, 0.0, 0.0]))
    # An overflowing score raises FloatingPointError instead of printing a
    # numpy warning; main() reports it as one JSON line.
    with np.errstate(over="raise", invalid="raise"):
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
        _write(args.out, obj)
    _emit(obj)
    return 0


_SIGNAL_FIELDS = ("policy", "anomaly", "attestations")  # the fields of one node's trust --signals entry


def _cmd_trust(args) -> int:
    graph_obj = json_object(load_json(args.graph), "graph file")
    edges = []
    for edge in json_list(graph_obj.get("edges"), "graph field 'edges'"):
        if len(json_list(edge, "graph edge")) != 3:
            raise ValueError(f"graph edge {edge!r} must be [i, j, w]")
        i, j = (json_u64(index, "graph edge index") for index in edge[:2])
        edges.append((i, j, json_float(edge[2], "graph edge weight")))
    graph = trust.TrustGraph(
        nodes=[json_str(node, "graph node") for node in json_list(graph_obj.get("nodes"), "graph field 'nodes'")],
        edges=edges,
    )
    orientation = trust.Orientation.LITERAL if args.orientation == "literal" else trust.Orientation.TRANSPOSE
    vector = trust.propagate_trust(graph, alpha=args.alpha, orientation=orientation, tol=args.tol)
    signals_by_node = {}
    if args.signals:
        signals_by_node = load_json(args.signals)
        if not isinstance(signals_by_node, dict):
            raise ValueError("signals file must hold a JSON object mapping node -> signals")
    # Every entry is checked, so a misspelt node or field is refused rather
    # than dropped for the defaults.
    nodes = set(graph.nodes)
    for node, raw in signals_by_node.items():
        if node not in nodes:
            raise ValueError(f"signals name node {node!r}, which is not in the graph")
        if not isinstance(raw, dict):
            raise ValueError(f"signals for {node!r} must be a JSON object")
        for name in raw:
            if name not in _SIGNAL_FIELDS:
                fields = ", ".join(_SIGNAL_FIELDS)
                raise ValueError(f"signals for {node!r} have field {name!r}; the fields are {fields}")
    report = []
    for i, node in enumerate(graph.nodes):
        raw = signals_by_node.get(node, {})
        row = trust.trust_breakdown(
            policy=json_float(raw.get("policy", 1.0), f"policy signal for {node!r}"),
            behavior=json_float(raw.get("anomaly", 1.0), f"anomaly signal for {node!r}"),
            attest=trust.attestation_score(json_u64(raw.get("attestations", 0), f"attestations signal for {node!r}")),
            propagated=float(np.clip(vector.values[i], 0.0, 1.0)),
            context=args.context,
        )
        report.append({"did": node, **row})
    out = {
        "alpha": args.alpha,
        "orientation": args.orientation,
        "base_vector": "uniform-0.5" if orientation is trust.Orientation.TRANSPOSE else "uniform-1/n",
        "iterations": vector.iterations,
        "residual": vector.residual,
        "agents": report,
    }
    if args.out:
        _write(args.out, out)
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
                "version": micropay.HEADER_VERSION,
                "invoice_id": header.invoice_id.hex(),
                "payer": header.payer,
                "amount": header.amount,
                "nonce": header.nonce.hex(),
                "delegation_window": [header.delegation.issued_at, header.delegation.expires_at],
            }
        )
        return 0

    if not -(1 << 63) <= args.seed < 1 << 63:
        raise _UsageError("--seed must fit in a signed 64-bit integer")
    payer_kp = generate_keypair(sha256(b"pay-demo-payer" + args.seed.to_bytes(8, "big", signed=True)))
    payee_kp = generate_keypair(sha256(b"pay-demo-payee" + args.seed.to_bytes(8, "big", signed=True)))
    payer, payee = derive_did(payer_kp.public_key), derive_did(payee_kp.public_key)
    resolver = {payer: payer_kp.public_key, payee: payee_kp.public_key}
    rng = random.Random(args.seed)
    ledger = micropay.Ledger({payer: args.payer_balance})
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
    rng = random.Random(args.seed)
    budget = privacy.PrivacyBudget(args.budget)
    if args.capability is not None:
        predicate = lambda card: args.capability in card.capabilities  # noqa: E731
    else:
        predicate = lambda card: True  # noqa: E731
    try:
        noisy = privacy.dp_count(corpus, predicate, args.epsilon, rng, budget=budget)
    except privacy.BudgetExhausted as exc:
        _diag(str(exc))
        return 1
    _emit(
        {
            "noisy_count": noisy,
            "epsilon": args.epsilon,
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
    except (
        ValueError,
        OSError,
        FloatingPointError,
        trust.NonConvergentError,
        discovery.TrainingDiverged,
    ) as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
