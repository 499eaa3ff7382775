from __future__ import annotations

import json

from agentmesh.cli import main


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
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".csv").exists()


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


def test_sim_multi_trial_parallel_matches_serial(tmp_path, capsys):
    config = _write_convergence_config(tmp_path, n=8, trials=5)
    out_serial = tmp_path / "serial.json"
    out_parallel = tmp_path / "parallel.json"
    code, _o, _e = _run(capsys, ["sim", "--config", str(config), "--trials", "3", "--out", str(out_serial)])
    assert code == 0
    code, _o, _e = _run(
        capsys,
        ["sim", "--config", str(config), "--trials", "3", "--parallel", "2", "--out", str(out_parallel)],
    )
    assert code == 0
    assert out_serial.read_bytes() == out_parallel.read_bytes()
    assert len(json.loads(out_serial.read_text())["trials"]) == 3


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


def _extract_e2e_artifacts(tmp_path, capsys):
    config = tmp_path / "e2e.json"
    config.write_text(json.dumps({"scenario": "discovery_e2e", "n": 12, "replicas": 3, "seed": 5, "k": 4}))
    out = tmp_path / "e2e-report.json"
    code, _stdout, _err = _run(capsys, ["sim", "--config", str(config), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text("\n".join(json.dumps(card) for card in report["corpus"]) + "\n")
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text(json.dumps(report["snapshot"]))
    trust = tmp_path / "trust.json"
    trust.write_text(json.dumps(report["trust_report"]))
    return report, corpus, snapshot, trust


def test_rank_returns_at_most_k(tmp_path, capsys):
    _report, corpus, _snapshot, trust = _extract_e2e_artifacts(tmp_path, capsys)
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
    report, _corpus, snapshot, _trust = _extract_e2e_artifacts(tmp_path, capsys)
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


def _one_pair_file(tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    features = {"cos_sim": 0.5, "trust": 0.5, "log_usage": 1.0, "recency": 0.5}
    pairs_path.write_text(json.dumps({"preferred": features, "other": features}) + "\n")
    return pairs_path


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


def test_dp_subcommand(tmp_path, capsys):
    _report, corpus, _snapshot, _trust = _extract_e2e_artifacts(tmp_path, capsys)
    code, stdout, _err = _run(
        capsys, ["dp", "--input", str(corpus), "--epsilon", "2.0", "--seed", "4", "--capability", "weather.forecast"]
    )
    assert code == 0
    result = json.loads(stdout)
    assert result["budget_spent"] == 2.0
    # budget refusal
    code, _stdout, stderr = _run(
        capsys, ["dp", "--input", str(corpus), "--epsilon", "2.0", "--seed", "4", "--budget", "1.0"]
    )
    assert code == 1
    assert "budget" in json.loads(stderr.strip())["error"]


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
