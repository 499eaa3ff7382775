from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import agentmesh
from agentmesh import registry, simnet
from agentmesh.cli import build_parser, main
from agentmesh.identity import AttestationCheck, ClaimType, derive_did, sha256
from _helpers import json_values, json_with, keypair_for, random_card, runnable_configs, write_cards


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_convergence_config(tmp_path, **overrides):
    config = {"scenario": "convergence", "n": 16, "trials": 10, "seed": 7}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sim_writes_report_and_is_deterministic(tmp_path, capsys):
    config = _write_convergence_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code, stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out_a)])
    assert code == 0
    assert json.loads(stdout)["failure"] is None
    assert json.loads(stdout)["written"] == [str(out_a), str(tmp_path / "a.csv")]
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".csv").exists()


def test_sim_refuses_an_out_path_that_is_its_own_csv_path(tmp_path, capsys, monkeypatch):
    config = _write_convergence_config(tmp_path)
    out = tmp_path / "x.csv"
    monkeypatch.setattr(simnet, "run_scenario", lambda config: pytest.fail("a scenario ran"))
    code, stdout, err = _run(capsys, ["sim", "--config", str(config), "--out", str(out)])
    assert code == 1
    assert stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "--out" in json.loads(lines[0])["error"]
    assert not out.exists()


def test_sim_seed_override(tmp_path, capsys):
    config = _write_convergence_config(tmp_path)
    out = tmp_path / "r.json"
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--seed", "99", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 99


def test_sim_strict_nonconvergent_exits_2(tmp_path, capsys):
    config = _write_convergence_config(tmp_path, topology="ring", n=64, trials=5, rounds_cap=1)
    out = tmp_path / "r.json"
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out), "--strict"])
    assert code == 2
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out)])
    assert code == 0  # without --strict the failure is reported, not fatal


@pytest.mark.parametrize("runs", ["1", "2"])
def test_sim_strict_on_a_convergence_run_at_a_zero_cap_exits_2(tmp_path, capsys, runs):
    config = _write_convergence_config(tmp_path, n=8, trials=2, rounds_cap=0)
    argv = ["sim", "--config", str(config), "--trials", runs, "--out", str(tmp_path / "r.json"), "--strict"]
    code, stdout, _err = _run(capsys, argv)
    assert code == 2
    assert '"failure":"nonconvergent"' in stdout


# What `sim` once read, by payload key, as each scenario's failure; each
# runner now states its own.
def _scenario_failure(payloads: list[dict]) -> str | None:
    for payload in payloads:
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


@settings(max_examples=30)
@given(config=runnable_configs())
@example(config={"scenario": "convergence", "n": 4, "trials": 2, "rounds_cap": 1, "topology": "ring"})
@example(config={"scenario": "discovery_e2e", "n": 6, "replicas": 3, "rounds_cap": 0})
def test_each_runner_reports_the_failure_its_payload_flags_name(config):
    report = simnet.run_scenario(simnet.ScenarioConfig.from_dict(config))
    assert report.failure == _scenario_failure([report.payload])


def test_sim_strict_exits_2_when_a_payment_attestation_fails_to_verify(tmp_path, capsys, monkeypatch):
    # The close checks one seal per issuer a round; a refused seal refuses
    # every claim it covers, the payment claims among them.
    def refuse_seals(att, resolver):
        if att.claim_type is ClaimType.ROUND_SEAL:
            return AttestationCheck.INVALID_SIGNATURE
        return verify_attestation(att, resolver)

    verify_attestation = simnet.verify_attestation
    monkeypatch.setattr(simnet, "verify_attestation", refuse_seals)
    config = tmp_path / "market.json"
    config.write_text(json.dumps({"scenario": "marketplace", "n": 4, "rounds": 2, "seed": 1}))
    out = tmp_path / "r.json"
    code, stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out), "--strict"])
    assert code == 2
    assert json.loads(stdout)["failure"] == "payments_attested=false"
    report = json.loads(out.read_text())
    assert report["receipts"] > 0
    assert [row["payments_attested"] for row in report["rounds"]] == [False, False]


@pytest.mark.parametrize(("replicas", "rounds_cap"), [(3, 0), (8, 1)])
def test_sim_discovery_e2e_stopped_at_the_round_cap_reports_nonconvergent(tmp_path, capsys, replicas, rounds_cap):
    config = tmp_path / "e2e.json"
    config.write_text(
        json.dumps({"scenario": "discovery_e2e", "n": 24, "replicas": replicas, "seed": 5, "rounds_cap": rounds_cap})
    )
    out = tmp_path / "r.json"
    code, stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out), "--strict"])
    assert code == 2
    assert _strict_json(stdout)["failure"] == "nonconvergent"
    report = _strict_json(out.read_text())
    assert report["converged_round"] == -1
    assert report["replica_roots_equal"] is False
    assert report["all_proofs_verified"] is False
    held = {record["key"] for record in report["snapshot"]["records"]}
    hits = [hit for query in report["queries"] for hit in query["results"]]
    assert {hit["proof_ok"] for hit in hits} == {True, False}
    assert all(hit["proof_ok"] == (hit["did"] in held) for hit in hits)


def test_sim_trials_are_single_runs_at_consecutive_seeds(tmp_path, capsys):
    config = _write_convergence_config(tmp_path, n=8, trials=5)
    out = tmp_path / "trials.json"
    code, _o, _e = _run(capsys, ["sim", "--config", str(config), "--trials", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    single_payloads, single_rows = [], []
    for t in range(3):
        single = tmp_path / f"single-{t}.json"
        code, _o, _e = _run(capsys, ["sim", "--config", str(config), "--seed", str(7 + t), "--out", str(single)])
        assert code == 0
        single_payloads.append(json.loads(single.read_text()))
        header, *rows = single.with_suffix(".csv").read_text().splitlines()
        single_rows += rows
    assert report["trials"] == single_payloads
    assert out.with_suffix(".csv").read_text().splitlines() == [header] + single_rows


def test_sim_parallel_flag_is_gone(tmp_path, capsys):
    config = _write_convergence_config(tmp_path, n=8, trials=5)
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(config), "--trials", "3", "--parallel", "2"])
    assert code == 1
    assert "--parallel" in _one_line_diagnostic(stdout, stderr)["error"]


def test_sim_refuses_an_orientation_no_scenario_runs(tmp_path, capsys):
    config = _write_convergence_config(tmp_path, orientation="literal")
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "orientation" in _one_line_diagnostic(stdout, stderr)["error"]
    assert not (tmp_path / "r.json").exists()


def test_unknown_flag_rejected_with_json_diagnostic(capsys):
    code, stdout, stderr = _run(capsys, ["rank", "--query", "q", "--corpus", "c.jsonl", "--bogus"])
    assert code == 1
    assert stdout == ""
    diagnostic = json.loads(stderr.strip())
    assert "--bogus" in diagnostic["error"]


def test_unknown_subcommand_rejected(capsys):
    code, _stdout, stderr = _run(capsys, ["explode"])
    assert code == 1
    assert "explode" in json.loads(stderr.strip())["error"]


def _extract_e2e_artifacts(tmp_path, capsys, config=None, out="e2e-report.json"):
    """Run `sim` on a discovery_e2e config and write the report's card
    corpus, snapshot and trust report for the other commands. Returns those
    paths after the report and `sim`'s printed line."""
    config = config or {"scenario": "discovery_e2e", "n": 12, "replicas": 3, "seed": 5, "k": 4}
    config_path = tmp_path / "e2e.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / out
    code, stdout, _err = _run(capsys, ["sim", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text("\n".join(json.dumps(card) for card in report["corpus"]) + "\n")
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(json.dumps(report["snapshot"]))
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps(report["trust_report"]))
    return report, json.loads(stdout), corpus, snapshot, trust


def test_rank_returns_at_most_k(tmp_path, capsys):
    _report, _printed, corpus, _snapshot, trust = _extract_e2e_artifacts(tmp_path, capsys)
    code, stdout, _err = _run(
        capsys,
        ["rank", "--query", "weather", "--corpus", str(corpus), "--k", "5", "--trust", str(trust)],
    )
    assert code == 0
    results = json.loads(stdout)
    assert len(results) <= 5
    assert all(set(row) == {"did", "score"} for row in results)
    # determinism
    code, stdout2, _err = _run(
        capsys,
        ["rank", "--query", "weather", "--corpus", str(corpus), "--k", "5", "--trust", str(trust)],
    )
    assert stdout == stdout2


def test_resolve_from_snapshot(tmp_path, capsys):
    report, _printed, _corpus, snapshot, _trust = _extract_e2e_artifacts(tmp_path, capsys)
    key = report["corpus"][0]["did"]
    code, stdout, _err = _run(capsys, ["resolve", "--snapshot", str(snapshot), "--key", key, "--prove"])
    assert code == 0
    result = json.loads(stdout)
    assert result["found"] and result["proof_verified"]
    code, stdout, _err = _run(capsys, ["resolve", "--snapshot", str(snapshot), "--key", "missing-key"])
    assert code == 0
    assert json.loads(stdout)["found"] is False


def test_train_and_use_model(tmp_path, capsys):
    import random

    rng = random.Random(0)
    pairs_path = tmp_path / "pairs.jsonl"
    rows = []
    for _ in range(60):
        other = {
            "cos_sim": rng.uniform(-0.2, 0.7),
            "trust": rng.uniform(0, 0.7),
            "log_usage": rng.uniform(0, 5),
            "recency": rng.uniform(0, 1),
        }
        preferred = dict(other)
        preferred["cos_sim"] = min(1.0, other["cos_sim"] + rng.uniform(0.1, 0.3))
        rows.append({"preferred": preferred, "other": other})
    pairs_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    model_path = tmp_path / "model.json"
    code, stdout, _err = _run(
        capsys,
        ["train", "--pairs", str(pairs_path), "--lr", "0.5", "--iters", "80", "--out", str(model_path)],
    )
    assert code == 0
    model = json.loads(stdout)
    assert model["theta"][0] > 0
    assert model_path.exists()


def test_trust_subcommand(tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps({"nodes": ["a", "b", "c"], "edges": [[0, 1, 0.9], [1, 2, 0.5], [2, 0, 0.7]]}))
    code, stdout, _err = _run(capsys, ["trust", "--graph", str(graph_path)])
    assert code == 0
    report = json.loads(stdout)
    assert len(report["agents"]) == 3
    assert report["residual"] < 1e-9
    assert {row["tier"] for row in report["agents"]} <= {"Streamlined", "Standard", "Enhanced", "Quarantine"}


def _one_line_diagnostic(stdout, stderr):
    assert stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_trust_nonconvergent_is_clean_error(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(
        json.dumps({"nodes": ["a", "b", "c", "d"], "edges": [[0, 1, 0.5], [1, 2, 0.9], [2, 0, 0.7], [3, 0, 0.2]]})
    )
    code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph_path), "--tol", "1e-300"])
    assert code == 1
    assert "NonConvergentError" in _one_line_diagnostic(stdout, stderr)["error"]


def test_trust_rejects_tol_that_is_not_finite_and_positive(tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [[0, 1, 0.5]]}))
    for tol in ("nan", "inf", "-inf", "0", "-1e-9"):
        code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph_path), f"--tol={tol}"])
        assert code == 1
        assert "tol must be finite and positive" in _one_line_diagnostic(stdout, stderr)["error"]


# A four-node graph with signals whose fusion, once per context, reaches all
# four tiers between the three contexts.
_FUSION_GRAPH = '{"nodes": ["a", "b", "c", "d"], "edges": [[1, 0, 1.0], [2, 0, 1.0], [3, 0, 1.0], [0, 1, 0.2]]}'
_FUSION_SIGNALS = (
    '{"a": {"policy": 1.0, "anomaly": 0.9, "attestations": 12}, '
    '"b": {"policy": 0.8, "anomaly": 0.6, "attestations": 2}, "c": {"attestations": 1}}'
)
# What `trust --signals` prints for them in each context: the bytes printed
# before the fusion policy became tables.
_FUSION_ROWS = {
    "financial": '{"agents":[{"attest":0.9092820467105875,"behavior":0.9,"did":"a","fused":0.8880461516767048,"policy":1.0,"propagated":0.9594594599588617,"tier":"Streamlined"},{"attest":0.3296799539643607,"behavior":0.6,"did":"b","fused":0.42550736975801406,"policy":0.8,"propagated":0.8905405400411377,"tier":"Enhanced"},{"attest":0.18126924692201818,"behavior":1.0,"did":"c","fused":0.03815711611149083,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"},{"attest":0.0,"behavior":1.0,"did":"d","fused":0.030000000000000006,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"}],"alpha":0.85,"base_vector":"uniform-0.5","iterations":127,"orientation":"transpose","residual":9.238947940026776e-10}\n',
    "analytical": '{"agents":[{"attest":0.9092820467105875,"behavior":0.9,"did":"a","fused":0.8844838526670035,"policy":1.0,"propagated":0.9594594599588617,"tier":"Streamlined"},{"attest":0.3296799539643607,"behavior":0.6,"did":"b","fused":0.5217997536702235,"policy":0.8,"propagated":0.8905405400411377,"tier":"Standard"},{"attest":0.18126924692201818,"behavior":1.0,"did":"c","fused":0.06271903870383029,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"},{"attest":0.0,"behavior":1.0,"did":"d","fused":0.06000000000000001,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"}],"alpha":0.85,"base_vector":"uniform-0.5","iterations":127,"orientation":"transpose","residual":9.238947940026776e-10}\n',
    "default": '{"agents":[{"attest":0.9092820467105875,"behavior":0.9,"did":"a","fused":0.8984640784696887,"policy":1.0,"propagated":0.9594594599588617,"tier":"Streamlined"},{"attest":0.3296799539643607,"behavior":0.6,"did":"b","fused":0.5134500401005839,"policy":0.8,"propagated":0.8905405400411377,"tier":"Standard"},{"attest":0.18126924692201818,"behavior":1.0,"did":"c","fused":0.05453173117305046,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"},{"attest":0.0,"behavior":1.0,"did":"d","fused":0.05,"policy":1.0,"propagated":0.07500000000000001,"tier":"Quarantine"}],"alpha":0.85,"base_vector":"uniform-0.5","iterations":127,"orientation":"transpose","residual":9.238947940026776e-10}\n',
}


@pytest.mark.parametrize(
    ("graph", "argv", "stderr"),
    [
        (
            '{"nodes":["a","b"],"edges":[[0,18446744073709551615,0.5]]}',
            [],
            '{"error":"ValueError: edge (0,18446744073709551615) out of range for 2 nodes"}\n',
        ),
        (
            _FUSION_GRAPH,
            ["--signals", "signals.json", "--context", "nope"],
            '{"error":"argument --context: invalid choice: \'nope\' '
            '(choose from \'financial\', \'analytical\', \'default\')"}\n',
        ),
    ],
    ids=["index-past-int64", "context-nope"],
)
def test_trust_refusal_is_one_exact_json_line(tmp_path, capsys, monkeypatch, graph, argv, stderr):
    monkeypatch.chdir(tmp_path)
    Path("graph.json").write_text(graph)
    Path("signals.json").write_text(_FUSION_SIGNALS)
    assert _run(capsys, ["trust", "--graph", "graph.json", *argv]) == (1, "", stderr)


def _one_pair_file(tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    features = {"cos_sim": 0.5, "trust": 0.5, "log_usage": 1.0, "recency": 0.5}
    pairs_path.write_text(json.dumps({"preferred": features, "other": features}) + "\n")
    return pairs_path


@pytest.mark.parametrize("trust_text", ["[1, 2]", '"text"', "5", "null"])
def test_rank_non_object_trust_file_is_clean_error(tmp_path, capsys, trust_text):
    corpus = tmp_path / "cards.jsonl"
    write_cards(corpus, [random_card(random.Random(i)) for i in range(3)])
    trust_path = tmp_path / "trust.json"
    trust_path.write_text(trust_text)
    code, stdout, stderr = _run(
        capsys, ["rank", "--query", "weather", "--corpus", str(corpus), "--trust", str(trust_path)]
    )
    assert code == 1
    assert "trust file must hold a JSON object" in _one_line_diagnostic(stdout, stderr)["error"]


@pytest.mark.parametrize(
    ("signals_text", "message"),
    [
        ("[1, 2]", "signals file must hold a JSON object"),
        ('"text"', "signals file must hold a JSON object"),
        ('{"a": 5}', "signals for 'a' must be a JSON object"),
        ('{"b": [0.5]}', "signals for 'b' must be a JSON object"),
    ],
)
def test_trust_non_object_signals_is_clean_error(tmp_path, capsys, signals_text, message):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [[0, 1, 0.5]]}))
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(signals_text)
    code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph_path), "--signals", str(signals_path)])
    assert code == 1
    assert message in _one_line_diagnostic(stdout, stderr)["error"]


@pytest.mark.parametrize(
    ("signals", "message"),
    [
        ({"z": {"policy": 0.0}, "a": {"polcy": 0.0}}, "signals name node 'z', which is not in the graph"),
        ({"a": {"polcy": 0.0}}, "signals for 'a' have field 'polcy'; the fields are policy, anomaly, attestations"),
        ({"b": {"policy": 0.5, "attestation": 2}}, "signals for 'b' have field 'attestation'"),
    ],
    ids=["unknown-node", "misspelt-policy", "misspelt-attestations"],
)
def test_trust_refuses_signals_it_would_ignore(tmp_path, capsys, signals, message):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [[0, 1, 0.5]]}))
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(signals))
    code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph_path), "--signals", str(signals_path)])
    assert code == 1
    assert message in _one_line_diagnostic(stdout, stderr)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["trust", "--graph", "deep.json"],
        ["sim", "--config", "deep.json"],
        ["rank", "--query", "q", "--corpus", "deep.json"],
    ],
    ids=["trust", "sim", "rank"],
)
def test_json_nested_past_the_recursion_limit_is_one_json_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text("[" * 100_000 + "]" * 100_000 + "\n")
    code, stdout, stderr = _run(capsys, argv)
    assert code == 1
    assert "deep.json nested too deeply" in _one_line_diagnostic(stdout, stderr)["error"]


def test_train_diverged_is_clean_error(tmp_path, capsys, monkeypatch):
    from agentmesh import discovery

    def diverge(*_args, **_kwargs):
        raise discovery.TrainingDiverged("loss rose for 10 consecutive iterations")

    monkeypatch.setattr(discovery, "train", diverge)
    code, stdout, stderr = _run(capsys, ["train", "--pairs", str(_one_pair_file(tmp_path))])
    assert code == 1
    assert "TrainingDiverged" in _one_line_diagnostic(stdout, stderr)["error"]


def test_train_rejects_lr_that_is_not_finite_and_positive(tmp_path, capsys):
    pairs_path = _one_pair_file(tmp_path)
    for lr in ("nan", "inf", "0"):
        code, stdout, stderr = _run(capsys, ["train", "--pairs", str(pairs_path), "--lr", lr])
        assert code == 1
        assert "learning_rate must be finite and positive" in _one_line_diagnostic(stdout, stderr)["error"]


def test_pay_demo_and_parse(capsys):
    code, stdout, _err = _run(capsys, ["pay", "--seed", "3"])
    assert code == 0
    result = json.loads(stdout)
    assert result["conservation_ok"]
    header = result["header"]
    code, stdout, _err = _run(capsys, ["pay", "--parse", header])
    assert code == 0
    assert json.loads(stdout)["amount"] == 1000
    code, _stdout, stderr = _run(capsys, ["pay", "--parse", "X-Payment: v9;bad"])
    assert code == 1
    assert json.loads(stderr.strip())["reason"] == "UnsupportedVersion"


def test_pay_insufficient_funds_diagnostic(capsys):
    code, _stdout, stderr = _run(capsys, ["pay", "--seed", "3", "--amount", "10", "--payer-balance", "5"])
    assert code == 1
    assert json.loads(stderr.strip())["reason"] == "InsufficientFunds"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--seed", "99999999999999999999"], "--seed must fit in a signed 64-bit integer"),
        (["--seed", str(1 << 63)], "--seed must fit in a signed 64-bit integer"),
        (["--now", "99999999999999999999999"], "validity window bounds"),
        (["--now", "-1"], "validity window bounds"),
        (["--now", str((1 << 64) - 10)], "validity window bounds"),
        (["--payer-balance", "99999999999999999999999"], "exceeds u64"),
    ],
    ids=["seed-overflows", "seed-2**63", "now-overflows", "now-negative", "window-end-overflows", "balance-overflows"],
)
def test_pay_out_of_range_integers_are_clean_errors(capsys, argv, message):
    code, stdout, stderr = _run(capsys, ["pay", *argv])
    assert code == 1
    assert message in _one_line_diagnostic(stdout, stderr)["error"]


def test_dp_subcommand(tmp_path, capsys):
    _report, _printed, corpus, _snapshot, _trust = _extract_e2e_artifacts(tmp_path, capsys)
    code, stdout, _err = _run(
        capsys, ["dp", "--input", str(corpus), "--epsilon", "2.0", "--seed", "4", "--capability", "weather.forecast"]
    )
    assert code == 0
    result = json.loads(stdout)
    assert result["budget_spent"] == 2.0
    # No card holds an empty capability, so --capability "" counts as an
    # unknown capability does; only leaving the flag out counts every card.
    empty, nope = (
        _run(capsys, ["dp", "--input", str(corpus), "--epsilon", "2.0", "--seed", "4", "--capability", capability])[1]
        for capability in ("", "nope")
    )
    assert empty == nope
    # budget refusal
    code, _stdout, stderr = _run(
        capsys, ["dp", "--input", str(corpus), "--epsilon", "2.0", "--seed", "4", "--budget", "1.0"]
    )
    assert code == 1
    assert "budget" in json.loads(stderr.strip())["error"]


# A card with a credential, as `rank --corpus` and `dp --input` read it.
_INPUT_CARD = random_card(random.Random(3), with_credentials=True).to_json_obj()


_INPUT_MODEL = {"theta": [1.0, 0.25, 0.0, 0.0], "bias": 0.0, "iterations": 0, "final_loss": None}
_INPUT_GRAPH = {"nodes": ["a", "b", "c"], "edges": [[0, 1, 0.9], [1, 2, 0.5], [2, 0, 0.7]]}
_INPUT_PAIR = {
    "preferred": {"cos_sim": 0.9, "trust": 0.5, "log_usage": 2.0, "recency": 0.8},
    "other": {"cos_sim": 0.2, "trust": 0.4, "log_usage": 1.0, "recency": 0.3},
}
# A trust report for `rank --trust`: the corpus card's DID and one it lacks.
_INPUT_TRUST = {_INPUT_CARD["did"]: 0.5, str(derive_did(keypair_for("cli-absent").public_key)): 0.2}
# Signals for `trust --signals` over the nodes of _INPUT_GRAPH.
_INPUT_SIGNALS = {"a": {"policy": 0.9, "anomaly": 0.8, "attestations": 3}, "b": {}}


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "card must be a JSON object"),
        ('"x"', "card must be a JSON object"),
        (json.dumps(json_with(_INPUT_CARD, ("description",), 5)), "card field 'description' must be a string"),
        (
            json.dumps(json_with(_INPUT_CARD, ("credentials", 0, "claim_type"), 5)),
            "credential field 'claim_type' must be a string",
        ),
        (
            json.dumps(json_with(_INPUT_CARD, ("usage_count",), math.inf)),
            "card field 'usage_count' must be an integer in [0, 2**64)",
        ),
        # Refused as the corpus is read, not later when the credential is used.
        (
            json.dumps(json_with(_INPUT_CARD, ("credentials", 0, "payload_digest"), "ab" * 31)),
            "payload digest must be 32 bytes, got 31",
        ),
    ],
    ids=["list", "string", "description-number", "claim-type-number", "usage-count-inf", "payload-digest-31-bytes"],
)
def test_malformed_card_corpus_is_clean_error(tmp_path, capsys, line, message):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(line + "\n")
    for argv in (["rank", "--query", "q", "--corpus", str(corpus)], ["dp", "--input", str(corpus)]):
        code, stdout, stderr = _run(capsys, argv)
        assert code == 1
        assert _one_line_diagnostic(stdout, stderr)["error"] == f"ValueError: line 1: {message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "ValueError: line 1: pairs line must be a JSON object"),
        (
            json.dumps(json_with(_INPUT_PAIR, ("other",), [0.5])),
            "ValueError: line 1: pairs field 'other' must be a JSON object",
        ),
        (
            json.dumps(json_with(_INPUT_PAIR, ("preferred", "cos_sim"), math.inf)),
            "ValueError: line 1: pairs field 'preferred' feature 'cos_sim' must be finite",
        ),
        (
            json.dumps(json_with(_INPUT_PAIR, ("preferred", "cos_sim"), "0.9")),
            "ValueError: line 1: pairs field 'preferred' feature 'cos_sim' must be a number",
        ),
        (
            json.dumps(json_with(_INPUT_PAIR, ("other", "trust"), True)),
            "ValueError: line 1: pairs field 'other' feature 'trust' must be a number",
        ),
        (json.dumps(json_with(_INPUT_PAIR, ("preferred", "log_usage"), 1e300)), "TrainingDiverged: "),
        ('{"other": {}}', "ValueError: line 1: pairs field 'preferred' must be a JSON object"),
        (
            json.dumps({"preferred": _INPUT_PAIR["preferred"]}),
            "ValueError: line 1: pairs field 'other' must be a JSON object",
        ),
        (
            json.dumps({**_INPUT_PAIR, "other": {}}),
            "ValueError: line 1: pairs field 'other' feature 'cos_sim' must be a number",
        ),
    ],
    ids=[
        "list",
        "features-list",
        "cos-sim-inf",
        "cos-sim-string",
        "trust-bool",
        "log-usage-overflows",
        "preferred-missing",
        "other-missing",
        "feature-missing",
    ],
)
def test_malformed_training_pairs_are_clean_errors(tmp_path, capsys, line, message):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(line + "\n")
    code, stdout, stderr = _run(capsys, ["train", "--pairs", str(pairs), "--iters", "5"])
    assert code == 1
    assert _one_line_diagnostic(stdout, stderr)["error"].startswith(message)


def test_malformed_model_and_graph_are_clean_errors(tmp_path, capsys):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(json_with(_INPUT_MODEL, ("iterations",), math.inf)))
    code, stdout, stderr = _run(capsys, ["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)])
    assert code == 1
    assert "iterations" in _one_line_diagnostic(stdout, stderr)["error"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(json_with(_INPUT_GRAPH, ("edges", 0, 1), math.inf)))
    code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph)])
    assert code == 1
    assert "graph edge index" in _one_line_diagnostic(stdout, stderr)["error"]
    for field in ("edges", "nodes"):
        graph.write_text(json.dumps({name: value for name, value in _INPUT_GRAPH.items() if name != field}))
        code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph)])
        assert code == 1
        message = f"ValueError: graph field {field!r} must be a JSON array"
        assert _one_line_diagnostic(stdout, stderr)["error"] == message



def test_rank_score_overflow_is_one_json_line(tmp_path, capsys):
    # theta[1] times a trust of 1e308 overflows in the model's dot product.
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(json_with(_INPUT_MODEL, ("theta",), [1.0, 1e308, 0, 0])))
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps(dict.fromkeys(_INPUT_TRUST, 1e308)))
    code, stdout, stderr = _run(
        capsys, ["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model), "--trust", str(trust)]
    )
    assert code == 1
    assert _one_line_diagnostic(stdout, stderr)["error"].startswith("FloatingPointError: overflow")

@pytest.mark.parametrize(
    "argv, parameter",
    [
        (["dp", "--input", "cards.jsonl", "--epsilon", "1e-320"], "epsilon"),
        (["train", "--pairs", "pairs.jsonl", "--iters", "-1"], "iters"),
    ],
)
def test_parameters_out_of_range_are_refused_by_name(tmp_path, capsys, monkeypatch, argv, parameter):
    monkeypatch.chdir(tmp_path)
    Path("cards.jsonl").write_text(json.dumps(_INPUT_CARD) + "\n")
    Path("pairs.jsonl").write_text(json.dumps(_INPUT_PAIR) + "\n")
    code, stdout, stderr = _run(capsys, argv)
    assert code == 1
    assert parameter in _one_line_diagnostic(stdout, stderr)["error"]


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_dp_rejects_budget_that_is_not_finite(tmp_path, capsys, budget):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
    code, stdout, stderr = _run(capsys, ["dp", "--input", str(corpus), f"--budget={budget}"])
    assert code == 1
    assert "budget must be finite and positive" in _one_line_diagnostic(stdout, stderr)["error"]


def test_missing_file_is_clean_error(capsys):
    code, _stdout, stderr = _run(capsys, ["rank", "--query", "q", "--corpus", "/nonexistent.jsonl"])
    assert code == 1
    assert "error" in json.loads(stderr.strip())


def test_sim_config_missing_scenario_key_is_clean_error(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text(json.dumps({"n": 4}))
    code, _stdout, stderr = _run(capsys, ["sim", "--config", str(config)])
    assert code == 1
    assert "error" in json.loads(stderr.strip())


def test_sim_marketplace_on_corpus_is_clean_error(tmp_path, capsys):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text("")
    config = tmp_path / "market.json"
    config.write_text(json.dumps({"scenario": "marketplace", "n": 4, "rounds": 1, "corpus": str(corpus)}))
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "corpus" in _one_line_diagnostic(stdout, stderr)["error"]
    assert not (tmp_path / "r.json").exists()


def _small_snapshot() -> dict:
    kp = keypair_for("cli-snapshot-owner")
    owner = derive_did(kp.public_key)
    resolver = {str(owner): kp.public_key}
    index = registry.MerkleRadixIndex()
    for key in ("alpha", "beta", str(owner)):
        record = registry.make_record(key, "https://x/meta", sha256(key.encode()), kp.secret_key, owner, 1)
        index.insert(record, resolver)
    return index.export_snapshot()


@pytest.mark.parametrize("field, value", [("version", json.loads("1e400")), ("key", 7)])
def test_resolve_malformed_snapshot_record_is_clean_error(tmp_path, capsys, field, value):
    snapshot = _small_snapshot()
    snapshot["records"][0][field] = value
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(snapshot))
    code, stdout, stderr = _run(capsys, ["resolve", "--snapshot", str(path), "--key", "alpha"])
    assert code == 1
    assert field in _one_line_diagnostic(stdout, stderr)["error"]


@pytest.mark.parametrize(
    "snapshot_text",
    ["[1]", '"x"', "null", "{}", '{"records": 5, "root_digest": "00"}', '{"records": [], "root_digest": 5}'],
)
def test_resolve_snapshot_that_is_not_a_snapshot_is_value_error(tmp_path, capsys, snapshot_text):
    path = tmp_path / "snapshot.json"
    path.write_text(snapshot_text)
    code, stdout, stderr = _run(capsys, ["resolve", "--snapshot", str(path), "--key", "alpha"])
    assert code == 1
    assert _one_line_diagnostic(stdout, stderr)["error"].startswith("ValueError: snapshot")


@pytest.mark.parametrize(
    ("config_text", "field"),
    [
        ('{"scenario":"sybil","n":1e400}', "n"),
        ('{"scenario":"sybil","n":8,"sybil_internal_weights":[0.1]}', "sybil_internal_weights"),
        # At weight 0 the Sybil rows count as dangling: no clique.
        ('{"scenario":"sybil","n":20,"seed":1,"sybil_internal_weights":[0,1]}', "sybil_internal_weights"),
        ('{"scenario": "marketplace", "n": 4, "rounds": 2, "seed": 1, "tasks_per_round": -2}', "tasks_per_round"),
    ],
)
def test_sim_malformed_config_is_clean_error(tmp_path, capsys, config_text, field):
    config = tmp_path / "config.json"
    config.write_text(config_text)
    out = tmp_path / "r.json"
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(config), "--strict", "--out", str(out)])
    assert code == 1
    assert field in _one_line_diagnostic(stdout, stderr)["error"]
    assert not out.exists()


# -- the README walkthrough, every scenario, and the process exit code ---------


def test_readme_walkthrough_prints_the_pinned_outputs(tmp_path, capsys, monkeypatch):
    """The README's commands on its inputs: each exits 0 and prints standard
    JSON, and the outputs below are the bytes pinned for them."""

    def ok(*argv) -> str:
        code, stdout, stderr = _run(capsys, list(argv))
        assert code == 0 and stdout.strip()
        _assert_contract(code, stdout, stderr)
        return stdout

    monkeypatch.chdir(tmp_path)
    config = {"scenario": "discovery_e2e", "n": 16, "replicas": 4, "seed": 9, "k": 5}
    report, printed, _corpus, _snapshot, _trust = _extract_e2e_artifacts(Path(), capsys, config, "out/e2e.json")
    assert printed["written"] == ["out/e2e.json", "out/e2e.csv"]
    assert '"failure":null' in ok("sim", "--config", "e2e.json", "--strict", "--out", "out/e2e-strict.json")

    resolved = json.loads(ok("resolve", "--snapshot", "snapshot.json", "--key", "agent-003", "--prove"))
    assert resolved["found"] and resolved["proof_verified"]
    rank = ("rank", "--query", "weather forecast", "--k", "5", "--trust", "trust.json", "--corpus")
    ranked = ok(*rank, "cards.jsonl")
    # Cards without a stored embedding rank by the embedding of their
    # description, and an empty corpus ranks to [].
    bare = [json.dumps({**card, "embedding": None}) for card in report["corpus"]]
    Path("bare-cards.jsonl").write_text("\n".join(bare) + "\n")
    assert ok(*rank, "bare-cards.jsonl") == ranked
    Path("empty.jsonl").write_text("")
    assert ok("rank", "--query", "weather forecast", "--corpus", "empty.jsonl") == "[]\n"
    ok("dp", "--input", "cards.jsonl", "--epsilon", "1.0", "--seed", "4", "--capability", "weather.forecast")

    # The parsed header gives back the amount, the delegation window and the
    # payer of the receipt that pay --seed 3 printed.
    paid = json.loads(ok("pay", "--seed", "3"))
    parsed = ok("pay", "--parse", paid["header"])
    assert '"amount":1000' in parsed and '"delegation_window":[1,11]' in parsed
    assert json.loads(parsed)["payer"] == paid["receipt"]["payer"]

    Path("graph.json").write_text('{"nodes": ["a", "b", "c"], "edges": [[0, 1, 0.9], [1, 2, 0.5], [2, 0, 0.7]]}')
    ok("trust", "--graph", "graph.json")
    Path("fusion-graph.json").write_text(_FUSION_GRAPH)
    Path("fusion-signals.json").write_text(_FUSION_SIGNALS)
    fuse = ("trust", "--graph", "fusion-graph.json", "--signals", "fusion-signals.json", "--context")
    for context, rows in _FUSION_ROWS.items():
        assert ok(*fuse, context) == rows
    tiers = {agent["tier"] for rows in _FUSION_ROWS.values() for agent in json.loads(rows)["agents"]}
    assert tiers == {"Streamlined", "Standard", "Enhanced", "Quarantine"}

    # The fitted model's exact bytes, pinned before the pair table was built
    # once per fit.
    Path("pairs.jsonl").write_text(
        '{"preferred": {"cos_sim": 0.9, "trust": 0.5, "log_usage": 2.0, "recency": 0.8}, '
        '"other": {"cos_sim": 0.2, "trust": 0.4, "log_usage": 1.0, "recency": 0.3}}\n'
    )
    assert ok("train", "--pairs", "pairs.jsonl", "--lr", "0.5", "--iters", "200", "--out", "model.json") == (
        '{"bias":0.0,"final_loss":0.005768889096178847,"iterations":200,'
        '"theta":[2.0609559667089488,0.29442228095842116,2.944222809584211,1.4721114047921056]}\n'
    )


# Each scenario kind, then the edges of two. Marketplace: no rounds (a report
# and a header-only CSV), no tasks, more tasks than the rate policy allows,
# agents that run out of funds, and the smallest market. Sybil: at n = 1 and 3
# each node's skip edge i -> i+3 is a self-loop, at n = 2 it is the ring edge,
# and n = 4 runs with a zero sybil_fraction, so with no Sybils.
_SCENARIO_CONFIGS = {
    "convergence": {"scenario": "convergence", "n": 8, "trials": 3, "seed": 1},
    "sybil": {"scenario": "sybil", "n": 20, "seed": 1},
    "marketplace": {"scenario": "marketplace", "n": 6, "rounds": 3, "seed": 1},
    "discovery_e2e": {"scenario": "discovery_e2e", "n": 16, "replicas": 4, "seed": 9, "k": 5},
    "marketplace-rounds0": {"scenario": "marketplace", "n": 6, "rounds": 0, "seed": 1},
    "marketplace-tasks0": {"scenario": "marketplace", "n": 6, "rounds": 3, "seed": 1, "tasks_per_round": 0},
    "marketplace-tasks4": {"scenario": "marketplace", "n": 6, "rounds": 3, "seed": 1, "tasks_per_round": 4},
    "marketplace-broke": {"scenario": "marketplace", "n": 8, "rounds": 6, "seed": 1, "task_price": 600000},
    "marketplace-n2": {"scenario": "marketplace", "n": 2, "rounds": 3, "seed": 1},
    "sybil-n1": {"scenario": "sybil", "n": 1, "seed": 1},
    "sybil-n2": {"scenario": "sybil", "n": 2, "seed": 1},
    "sybil-n3": {"scenario": "sybil", "n": 3, "seed": 1},
    "sybil-n4-honest": {"scenario": "sybil", "n": 4, "seed": 1, "sybil_fraction": 0},
}


@pytest.mark.parametrize("config", _SCENARIO_CONFIGS.values(), ids=_SCENARIO_CONFIGS.keys())
def test_every_scenario_holds_under_strict_over_two_trials(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out" / "report.json"
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(path), "--strict", "--trials", "2", "--out", str(out)])
    assert (code, stderr) == (0, "")
    _strict_json(stdout)
    _strict_json(out.read_text())
    if config.get("rounds") == 0:
        (header,) = out.with_suffix(".csv").read_text().splitlines()
        assert header.startswith("round,")


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["pay", "--seed", "3"], 0),
        (["pay", "--parse", "X-Payment: v9;bad"], 1),
        (["sim", "--config", "capped.json", "--strict", "--out", "out/capped.json"], 2),
    ],
    ids=["ok", "refused", "strict-failure"],
)
def test_python_dash_m_exits_with_the_code_and_bytes_of_main(tmp_path, monkeypatch, argv, expected):
    """`raise SystemExit(main())` keeps main's exit code and output."""
    monkeypatch.chdir(tmp_path)
    Path("capped.json").write_text('{"scenario":"convergence","n":8,"trials":2,"rounds_cap":0}')
    src = str(Path(agentmesh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    process = subprocess.run(
        [sys.executable, "-m", "agentmesh.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (process.returncode, process.stdout, process.stderr) == _run_quietly(argv)
    assert process.returncode == expected
    if expected == 1:
        _one_line_diagnostic(process.stdout, process.stderr)


# -- the CLI contract over generated malformed inputs --------------------------

_SMALL_SIM_CONFIGS = [
    {"scenario": "convergence", "n": 4, "trials": 2, "seed": 1},
    {"scenario": "sybil", "n": 8, "seed": 1},
    {"scenario": "marketplace", "n": 4, "rounds": 2, "seed": 1},
    {"scenario": "discovery_e2e", "n": 6, "replicas": 2, "seed": 1, "k": 2},
]
_CONFIG_FIELDS = sorted(simnet.ScenarioConfig.__dataclass_fields__)
_RECORD_FIELDS = ["key", "metadata_url", "card_digest", "owner", "version", "signature"]

def _run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _assert_contract(code: int, stdout: str, stderr: str) -> None:
    """Exit 0 prints only standard JSON; exit 1 prints one JSON diagnostic."""
    assert code in (0, 1)
    if code == 0:
        assert stderr == ""
        for line in stdout.splitlines():
            _strict_json(line)
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])


@settings(max_examples=60)
@given(
    base=st.sampled_from(_SMALL_SIM_CONFIGS),
    sim_field=st.sampled_from(_CONFIG_FIELDS),
    sim_value=json_values,
    record_index=st.integers(min_value=0, max_value=2),
    record_field=st.sampled_from(_RECORD_FIELDS),
    record_value=json_values,
)
def test_cli_keeps_exit_code_and_stderr_contract(base, sim_field, sim_value, record_index, record_field, record_value):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps({**base, sim_field: sim_value}))
        _assert_contract(*_run_quietly(["sim", "--config", str(config_path), "--out", str(Path(tmp) / "r.json")]))

        snapshot = _small_snapshot()
        snapshot["records"][record_index][record_field] = record_value
        snapshot_path = Path(tmp) / "snapshot.json"
        snapshot_path.write_text(json.dumps(snapshot))
        _assert_contract(*_run_quietly(["resolve", "--snapshot", str(snapshot_path), "--key", "alpha", "--prove"]))


_CARD_PATHS = [(name,) for name in sorted(_INPUT_CARD)] + [("embedding", 0)]
_CREDENTIAL_PATHS = [("credentials", 0, name) for name in sorted(_INPUT_CARD["credentials"][0])]
_MODEL_PATHS = [(name,) for name in sorted(_INPUT_MODEL)] + [("theta", 0)]
_GRAPH_PATHS = [("nodes",), ("edges",), ("nodes", 0), ("edges", 0)] + [("edges", 1, slot) for slot in range(3)]
_PAIR_PATHS = [(side,) for side in _INPUT_PAIR] + [(side, name) for side in _INPUT_PAIR for name in _INPUT_PAIR[side]]
_TRUST_PATHS = [(did,) for did in sorted(_INPUT_TRUST)]
_SIGNALS_PATHS = [(node,) for node in sorted(_INPUT_SIGNALS)] + [
    (node, name) for node in sorted(_INPUT_SIGNALS) for name in ("policy", "anomaly", "attestations")
]


@settings(max_examples=60)
@given(
    card_path=st.sampled_from(_CARD_PATHS + _CREDENTIAL_PATHS),
    card_value=json_values,
    line=json_values,
    model_path=st.sampled_from(_MODEL_PATHS),
    model_value=json_values,
    graph_path=st.sampled_from(_GRAPH_PATHS),
    graph_value=json_values,
    pair_path=st.sampled_from(_PAIR_PATHS),
    pair_value=json_values,
    trust_path=st.sampled_from(_TRUST_PATHS),
    trust_value=json_values,
    signals_path=st.sampled_from(_SIGNALS_PATHS),
    signals_value=json_values,
)
@example(
    card_path=("description",),
    card_value="d",
    line={},
    model_path=("bias",),
    model_value=0.0,
    graph_path=("nodes", 0),
    graph_value="a",
    pair_path=("preferred", "cos_sim"),
    pair_value=math.inf,
    trust_path=(_INPUT_CARD["did"],),
    trust_value=math.inf,  # what a trust file holding 1e400 parses to
    signals_path=("a", "attestations"),
    signals_value=math.inf,
)
@example(
    card_path=("description",),
    card_value="d",
    line={},
    model_path=("bias",),
    model_value=0.0,
    graph_path=("nodes", 0),
    graph_value="a",
    pair_path=("preferred", "cos_sim"),
    pair_value=0.5,
    trust_path=(_INPUT_CARD["did"],),
    trust_value=math.nan,
    signals_path=("b", "attestations"),
    signals_value=1e300,
)
@example(
    card_path=("embedding", 0),
    card_value=math.nan,
    line={},
    model_path=("bias",),
    model_value=0.0,
    graph_path=("nodes", 0),
    graph_value="a",
    pair_path=("preferred", "cos_sim"),
    pair_value=0.5,
    trust_path=(_INPUT_CARD["did"],),
    trust_value=0.5,
    signals_path=("a", "policy"),
    signals_value=0.5,
)
@example(
    card_path=("embedding", 0),
    card_value=1e308,
    line={},
    model_path=("bias",),
    model_value=0.0,
    graph_path=("nodes", 0),
    graph_value="a",
    pair_path=("preferred", "cos_sim"),
    pair_value=0.5,
    trust_path=(_INPUT_CARD["did"],),
    trust_value=0.5,
    signals_path=("a", "policy"),
    signals_value=0.5,
)
def test_cli_input_files_keep_exit_code_and_stderr_contract(
    card_path,
    card_value,
    line,
    model_path,
    model_value,
    graph_path,
    graph_value,
    pair_path,
    pair_value,
    trust_path,
    trust_value,
    signals_path,
    signals_value,
):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "cards.jsonl"
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(_INPUT_MODEL))
        for text in (json.dumps(json_with(_INPUT_CARD, card_path, card_value)), json.dumps(line)):
            corpus.write_text(text + "\n")
            _assert_contract(*_run_quietly(["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)]))
            _assert_contract(*_run_quietly(["dp", "--input", str(corpus)]))

        corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
        model.write_text(json.dumps(json_with(_INPUT_MODEL, model_path, model_value)))
        _assert_contract(*_run_quietly(["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)]))

        graph = Path(tmp) / "graph.json"
        graph.write_text(json.dumps(json_with(_INPUT_GRAPH, graph_path, graph_value)))
        _assert_contract(*_run_quietly(["trust", "--graph", str(graph)]))

        pairs = Path(tmp) / "pairs.jsonl"
        for text in (json.dumps(json_with(_INPUT_PAIR, pair_path, pair_value)), json.dumps(line)):
            pairs.write_text(text + "\n")
            _assert_contract(*_run_quietly(["train", "--pairs", str(pairs), "--iters", "5"]))

        graph.write_text(json.dumps(_INPUT_GRAPH))
        trust_report = Path(tmp) / "trust.json"
        signals = Path(tmp) / "signals.json"
        for trust_obj, signals_obj in (
            (json_with(_INPUT_TRUST, trust_path, trust_value), json_with(_INPUT_SIGNALS, signals_path, signals_value)),
            (line, line),
        ):
            trust_report.write_text(json.dumps(trust_obj))
            _assert_contract(
                *_run_quietly(["rank", "--query", "q", "--corpus", str(corpus), "--trust", str(trust_report)])
            )
            signals.write_text(json.dumps(signals_obj))
            _assert_contract(*_run_quietly(["trust", "--graph", str(graph), "--signals", str(signals)]))


def _without(obj, path: tuple):
    """Deep copy of a JSON value with the entry at `path` deleted."""
    out = json.loads(json.dumps(obj))
    target = out
    for step in path[:-1]:
        target = target[step]
    del target[path[-1]]
    return out


# Each input file, the file name it is written to, and the command that reads
# it; every other input the command takes is the well-formed one.
_MISSING_INPUTS = {
    "card": (_INPUT_CARD, "cards.jsonl", ["rank", "--query", "q", "--corpus", "cards.jsonl"]),
    "model": (_INPUT_MODEL, "model.json", ["rank", "--query", "q", "--corpus", "cards.jsonl", "--model", "model.json"]),
    "graph": (_INPUT_GRAPH, "graph.json", ["trust", "--graph", "graph.json"]),
    "pairs": (_INPUT_PAIR, "pairs.jsonl", ["train", "--pairs", "pairs.jsonl", "--iters", "5"]),
    "trust": (_INPUT_TRUST, "trust.json", ["rank", "--query", "q", "--corpus", "cards.jsonl", "--trust", "trust.json"]),
    "signals": (_INPUT_SIGNALS, "signals.json", ["trust", "--graph", "graph.json", "--signals", "signals.json"]),
    "snapshot": (_small_snapshot(), "snapshot.json", ["resolve", "--snapshot", "snapshot.json", "--key", "alpha"]),
}


def _has(obj, path: tuple) -> bool:
    for step in path:
        if step not in (obj if isinstance(obj, dict) else range(len(obj))):
            return False
        obj = obj[step]
    return True


_MISSING_CASES = [
    (kind, path)
    for kind, path in [("card", path) for path in _CARD_PATHS + _CREDENTIAL_PATHS]
    + [("model", path) for path in _MODEL_PATHS]
    + [("graph", path) for path in _GRAPH_PATHS]
    + [("pairs", path) for path in _PAIR_PATHS]
    + [("trust", path) for path in _TRUST_PATHS]
    + [("signals", path) for path in _SIGNALS_PATHS]
    + [("snapshot", ("root_digest",)), ("snapshot", ("records",))]
    + [("snapshot", ("records", 0, field)) for field in _RECORD_FIELDS]
    if _has(_MISSING_INPUTS[kind][0], path)
]


@pytest.mark.parametrize(
    "kind, path", _MISSING_CASES, ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, path in _MISSING_CASES]
)
def test_a_missing_field_keeps_exit_code_and_stderr_contract(tmp_path, monkeypatch, kind, path):
    """`main()` catches only the errors the program defines, so a decoder
    must refuse a missing field itself, as a ValueError, not a KeyError."""
    monkeypatch.chdir(tmp_path)
    for other, (obj, name, _argv) in _MISSING_INPUTS.items():
        Path(name).write_text(json.dumps(_without(obj, path) if other == kind else obj) + "\n")
    code, stdout, stderr = _run_quietly(_MISSING_INPUTS[kind][2])
    _assert_contract(code, stdout, stderr)
    assert "KeyError" not in stderr


# -- the CLI contract over generated argument lists ---------------------------


_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(command: str) -> list[argparse.Action]:
    """The options of a subcommand as the parser declares them, except
    --help, which prints text."""
    return [
        a for a in _SUBPARSERS[command]._actions if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]


_DEMO_HEADER = json.loads(_run_quietly(["pay", "--seed", "3"])[1])["header"]
# The input each file option expects, written into the working directory.
_ARGV_FILES = {
    "--config": ("config.json", {"scenario": "convergence", "n": 4, "trials": 2, "seed": 1}),
    "--snapshot": ("snapshot.json", _small_snapshot()),
    "--corpus": ("cards.jsonl", _INPUT_CARD),
    "--input": ("cards.jsonl", _INPUT_CARD),
    "--pairs": ("pairs.jsonl", _INPUT_PAIR),
    "--model": ("model.json", _INPUT_MODEL),
    "--graph": ("graph.json", _INPUT_GRAPH),
    "--trust": ("trust.json", _INPUT_TRUST),
    "--signals": ("signals.json", _INPUT_SIGNALS),
}
_FITTING = {flag: name for flag, (name, _obj) in _ARGV_FILES.items()}
_FITTING.update({"--out": "out/o.json", "--query": "weather forecast", "--key": "alpha", "--parse": _DEMO_HEADER})
# Numbers stay small, so that --iters, --trials and the scenario sizes keep
# every example short (train --iters 10**29 would run for ever). The text has
# no digits and no "h", so it never spells a large number or --help.
_argv_ints = st.integers(min_value=-3, max_value=12).map(str)
_argv_floats = st.sampled_from(["nan", "inf", "-inf", "1e-320", "0.0", "-0.0", "0.5", "1.5", "1e308"])
_argv_values = st.one_of(
    st.sampled_from(sorted({name for name, _obj in _ARGV_FILES.values()}) + ["missing.json", "out/o.json", "."]),
    _argv_ints,
    _argv_floats,
    st.text(alphabet="abc-_.:;= ", max_size=6),
)


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand with its required options and some of the others. Most
    values have the option's type (or are the file it expects); the rest, and
    now and then a trailing flag or value, are drawn from every kind."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    argv = [command]
    for action in _options(command):
        flag = action.option_strings[-1]
        if not (action.required or draw(st.booleans())):
            continue
        argv.append(flag)
        if action.nargs == 0:
            continue
        if action.choices:
            typed = st.sampled_from(action.choices)
        elif action.type in (int, float):
            typed = _argv_ints if action.type is int else _argv_floats
        else:
            typed = st.sampled_from([_FITTING[flag]]) if flag in _FITTING else _argv_values
        argv.append(draw(_argv_values if draw(st.integers(0, 3)) == 0 else typed))
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from([a.option_strings[-1] for a in _options(command)]) | _argv_values))
    return argv


@settings(max_examples=200)
@given(argv=_argv())
def test_every_subcommand_keeps_exit_code_and_stderr_contract(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in _ARGV_FILES.values():
                Path(name).write_text(json.dumps(obj) + "\n")
            _assert_contract(*_run_quietly(argv))
        finally:
            os.chdir(cwd)


# -- the CLI contract over the bytes of each input file ------------------------

# Each command that reads a file: the file it reads, the well-formed bytes of
# that file, and its argument list. The other files are written well-formed.
_BYTE_INPUTS = {
    "sim-config": ("config.json", ["sim", "--config", "config.json", "--out", "out/r.json"]),
    "resolve-snapshot": ("snapshot.json", ["resolve", "--snapshot", "snapshot.json", "--key", "alpha", "--prove"]),
    "rank-corpus": ("cards.jsonl", ["rank", "--query", "q", "--corpus", "cards.jsonl"]),
    "train-pairs": ("pairs.jsonl", ["train", "--pairs", "pairs.jsonl", "--iters", "5"]),
    "trust-graph": ("graph.json", ["trust", "--graph", "graph.json"]),
    "trust-signals": ("signals.json", ["trust", "--graph", "graph.json", "--signals", "signals.json"]),
    "dp-input": ("cards.jsonl", ["dp", "--input", "cards.jsonl"]),
}
_WELL_FORMED = {name: (json.dumps(obj) + "\n").encode() for name, obj in _ARGV_FILES.values()}
_JSON_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_INVALID_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82", b"\x80"]


@st.composite
def _file_bytes(draw, valid: bytes) -> bytes:
    """Arbitrary bytes, or one byte-level edit of a well-formed file: cut
    short, one byte flipped, invalid UTF-8 put in, or one run of digits (a
    number, or part of a string) replaced by a 100,000-deep nesting or a
    5,000-digit integer."""
    edit = draw(st.sampled_from(["bytes", "truncate", "flip", "utf-8", "deep", "digits"]))
    if edit == "bytes":
        return draw(st.binary())
    if edit in ("deep", "digits"):
        number = draw(st.sampled_from(list(_JSON_NUMBER.finditer(valid))))
        value = b"[" * 100_000 + b"]" * 100_000 if edit == "deep" else b"9" * 5_000
        return valid[: number.start()] + value + valid[number.end() :]
    at = draw(st.integers(min_value=0, max_value=len(valid) - 1))
    if edit == "truncate":
        return valid[:at]
    if edit == "flip":
        return valid[:at] + bytes([valid[at] ^ draw(st.integers(min_value=1, max_value=255))]) + valid[at + 1 :]
    return valid[:at] + draw(st.sampled_from(_INVALID_UTF8)) + valid[at:]


@pytest.mark.parametrize("command", sorted(_BYTE_INPUTS))
@settings(max_examples=40)
@given(data=st.data())
def test_each_input_file_keeps_exit_code_and_stderr_contract_on_any_bytes(command, data):
    name, argv = _BYTE_INPUTS[command]
    content = data.draw(_file_bytes(_WELL_FORMED[name]), label=name)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for other, valid in _WELL_FORMED.items():
                Path(other).write_bytes(content if other == name else valid)
            _assert_contract(*_run_quietly(argv))
        finally:
            os.chdir(cwd)
