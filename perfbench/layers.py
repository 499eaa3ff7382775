"""Per-layer metrics read from a traced run.

``attach`` registers the observers that turn arguments and results of a few
calls into counters; ``per_layer_metrics`` turns a finished tracer into the
named per-layer metrics. Span names are ``<layer>.<function>`` or
``<layer>.<Class>.<method>``; see ``tracer.py``.
"""

from __future__ import annotations

from agentmesh import micropay

from .tracer import LAYERS, Tracer

SETTLE_OUTCOMES = ("ok",) + tuple(reason.value for reason in micropay.SettleReason)


def attach(tracer: Tracer) -> None:
    """Register observers; call before ``tracer.install()``."""
    depth = {"gossip": 0, "insert": 0}

    def gossip_before(args, kwargs):
        depth["gossip"] += 1

    def gossip_after(args, kwargs, stats, exc):
        depth["gossip"] -= 1
        if stats is not None:
            tracer.count("federation.messages", stats.messages)
            tracer.count("federation.bytes", stats.bytes_sent)
            if tracer.kind == "op":
                tracer.count("federation.op_rounds")

    def apply_before(args, kwargs):
        # Only deltas exchanged by gossip count as sent; mesh_target and
        # merge also apply deltas, to throwaway replicas.
        if not depth["gossip"]:
            return
        replica = args[0]
        delta = args[1] if len(args) > 1 else kwargs["delta"]
        store = replica.store
        useful = 0
        for key, _record, tag in delta.entries:
            current = store.get(key)
            if current is None or tag > current[1]:
                useful += 1
        tracer.count("federation.entries_sent", len(delta.entries))
        tracer.count("federation.entries_useful", useful)

    def insert_before(args, kwargs):
        depth["insert"] += 1

    def insert_after(args, kwargs, result, exc):
        depth["insert"] -= 1

    def insert_trusted_before(args, kwargs):
        if not depth["insert"]:
            tracer.count("registry.insert_trusted_entry")

    def prove_after(args, kwargs, proof, exc):
        if proof is not None:
            tracer.count("registry.proof_steps", len(proof.steps))

    def propagate_after(args, kwargs, vector, exc):
        if vector is not None:
            tracer.count("trust.iterations", vector.iterations)

    def dedup_before(args, kwargs):
        candidates = args[0] if args else kwargs["candidates"]
        tracer.count("discovery.scanned", len(candidates))

    def rank_after(args, kwargs, hits, exc):
        if hits is not None:
            tracer.count("discovery.hits", len(hits))

    def settle_after(args, kwargs, receipt, exc):
        if exc is None:
            tracer.count("micropay.settle.outcome.ok")
        elif isinstance(exc, micropay.SettleError):
            tracer.count(f"micropay.settle.outcome.{exc.reason.value}")

    tracer.observe("federation.gossip_round", gossip_before, gossip_after)
    tracer.observe("federation.ReplicaState.apply_delta", apply_before)
    tracer.observe("registry.MerkleRadixIndex.insert", insert_before, insert_after)
    tracer.observe("registry.MerkleRadixIndex.insert_trusted", insert_trusted_before)
    tracer.observe("registry.MerkleRadixIndex.prove_inclusion", after=prove_after)
    tracer.observe("trust.propagate_trust", after=propagate_after)
    tracer.observe("discovery.dedup", dedup_before)
    tracer.observe("discovery.rank", after=rank_after)
    tracer.observe("micropay.Ledger.settle", after=settle_after)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, spans): calls or self seconds summed over the named spans.
_CALLS = [
    ("identity.verify.calls", ["identity.verify"]),
    ("identity.sign.calls", ["identity.sign"]),
    ("identity.verify_attestation.calls", ["identity.verify_attestation"]),
    ("identity.sha256.calls", ["identity.sha256"]),
    ("cards.card_digest.calls", ["cards.card_digest"]),
    ("registry.prove.calls", ["registry.MerkleRadixIndex.prove_inclusion"]),
    ("federation.gossip_round.calls", ["federation.gossip_round"]),
    ("trust.propagate.calls", ["trust.propagate_trust"]),
    ("discovery.rank.calls", ["discovery.rank"]),
    ("discovery.cosine.calls", ["discovery.cosine"]),
    ("micropay.settle.calls", ["micropay.Ledger.settle"]),
    ("privacy.dp_count.calls", ["privacy.dp_count"]),
]
_SELF = [
    ("identity.verify.self_s", ["identity.verify"]),
    ("identity.sign.self_s", ["identity.sign"]),
    ("identity.sha256.self_s", ["identity.sha256"]),
    ("cards.card_digest.self_s", ["cards.card_digest"]),
    ("registry.insert.self_s", ["registry.MerkleRadixIndex.insert", "registry.MerkleRadixIndex.insert_trusted"]),
    ("registry.prove.self_s", ["registry.MerkleRadixIndex.prove_inclusion"]),
    ("registry.verify_proof.self_s", ["registry.verify_proof"]),
    ("federation.gossip_round.self_s", ["federation.gossip_round"]),
    ("federation.delta_for.self_s", ["federation.ReplicaState.delta_for"]),
    ("federation.apply_delta.self_s", ["federation.ReplicaState.apply_delta"]),
    ("federation.converged_count.self_s", ["federation.converged_count"]),
    ("federation.mesh_target.self_s", ["federation.mesh_target"]),
    ("trust.propagate.self_s", ["trust.propagate_trust"]),
    ("trust.solve_exact.self_s", ["trust.solve_trust_exact"]),
    ("trust.row_stochastic.self_s", ["trust.row_stochastic"]),
    ("discovery.rank.self_s", ["discovery.rank"]),
    ("discovery.dedup.self_s", ["discovery.dedup"]),
    ("discovery.cosine.self_s", ["discovery.cosine"]),
    ("discovery.embed_text.self_s", ["discovery.embed_text"]),
    ("discovery.train.self_s", ["discovery.train"]),
    ("micropay.settle.self_s", ["micropay.Ledger.settle"]),
    ("micropay.parse.self_s", ["micropay.parse_payment_header"]),
    ("micropay.build.self_s", ["micropay.build_payment_header"]),
]
# Busy time (inclusive of traced children) where a function calls other
# traced functions; elsewhere it equals self time.
_BUSY = [
    ("cards.card_digest.busy_s", "cards.card_digest"),
    ("registry.verify_proof.busy_s", "registry.verify_proof"),
    ("federation.gossip_round.busy_s", "federation.gossip_round"),
    ("federation.converged_count.busy_s", "federation.converged_count"),
    ("federation.mesh_target.busy_s", "federation.mesh_target"),
    ("trust.propagate.busy_s", "trust.propagate_trust"),
    ("trust.solve_exact.busy_s", "trust.solve_trust_exact"),
    ("discovery.rank.busy_s", "discovery.rank"),
    ("discovery.dedup.busy_s", "discovery.dedup"),
    ("discovery.embed_text.busy_s", "discovery.embed_text"),
    ("discovery.train.busy_s", "discovery.train"),
    ("micropay.settle.busy_s", "micropay.Ledger.settle"),
    ("micropay.build.busy_s", "micropay.build_payment_header"),
]
_COUNTERS = [
    ("registry.proof_steps", "registry.proof_steps"),
    ("federation.messages", "federation.messages"),
    ("federation.bytes", "federation.bytes"),
    ("trust.iterations", "trust.iterations"),
]


def metric_specs() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``, in the
    order the benchmark prints them."""
    specs = []
    for name, _spans in _CALLS:
        specs.append({"name": name, "unit": "count", "better": "lower"})
    specs.append({"name": "registry.insert.calls", "unit": "count", "better": "lower"})
    for name, _key in _COUNTERS:
        unit = "B" if name == "federation.bytes" else "count"
        specs.append({"name": name, "unit": unit, "better": "lower"})
    for outcome in SETTLE_OUTCOMES:
        better = "higher" if outcome == "ok" else "lower"
        specs.append({"name": f"micropay.settle.outcome.{outcome}", "unit": "count", "better": better})
    for name, _spans in _SELF:
        specs.append({"name": name, "unit": "s", "better": "lower"})
    for name, _span in _BUSY:
        specs.append({"name": name, "unit": "s", "better": "lower"})
    for layer in LAYERS:
        specs.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
        specs.append({"name": f"{layer}.busy_s", "unit": "s", "better": "lower"})
    specs.append({"name": "simnet.self_s", "unit": "s", "better": "lower"})
    specs += [
        {"name": "federation.rounds_per_op", "unit": "ratio", "better": "lower"},
        {"name": "federation.useful_entry_ratio", "unit": "ratio", "better": "higher"},
        {"name": "discovery.dedup_scan_ratio", "unit": "ratio", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
    ]
    return specs


def layer_self_seconds(tracer: Tracer) -> dict[str, float]:
    totals = {layer: 0 for layer in LAYERS}
    for name, ns in zip(tracer.names, tracer.self_ns):
        layer = name.split(".", 1)[0]
        if layer in totals:
            totals[layer] += ns
    totals = {layer: ns / 1e9 for layer, ns in totals.items()}
    # Time inside set-up and op roots that no wrapped layer call covers: the
    # scenario harness (simnet) and the benchmark's own loop code.
    totals["simnet"] = sum(tracer.self_seconds(f"root.{kind}") for kind in ("setup", "op"))
    return totals


def per_layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    counter = tracer.counters.get
    values: dict[str, float] = {}
    for name, spans in _CALLS:
        values[name] = sum(tracer.call_count(s) for s in spans)
    # insert and insert_trusted both count, except the insert_trusted call
    # that insert itself makes.
    values["registry.insert.calls"] = tracer.call_count("registry.MerkleRadixIndex.insert") + counter(
        "registry.insert_trusted_entry", 0
    )
    for name, key in _COUNTERS:
        values[name] = counter(key, 0)
    for outcome in SETTLE_OUTCOMES:
        values[f"micropay.settle.outcome.{outcome}"] = counter(f"micropay.settle.outcome.{outcome}", 0)
    for name, spans in _SELF:
        values[name] = sum(tracer.self_seconds(s) for s in spans)
    for name, span in _BUSY:
        values[name] = tracer.busy_seconds(span)
    for layer, seconds in layer_self_seconds(tracer).items():
        values[f"{layer}.self_s"] = seconds
    for layer, ns in zip(LAYERS, tracer.layer_busy_ns):
        values[f"{layer}.busy_s"] = ns / 1e9
    values["federation.rounds_per_op"] = _ratio(counter("federation.op_rounds", 0), tracer.call_count("root.op"))
    values["federation.useful_entry_ratio"] = _ratio(
        counter("federation.entries_useful", 0), counter("federation.entries_sent", 0)
    )
    values["discovery.dedup_scan_ratio"] = _ratio(counter("discovery.scanned", 0), counter("discovery.hits", 0))
    values["trace.overhead_ratio"] = overhead_ratio
    return values
