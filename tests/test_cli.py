from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agentmesh import cards as cards_mod
from agentmesh import registry, simnet
from agentmesh.cli import main
from agentmesh.identity import derive_did, sha256
from _helpers import keypair_for, random_card


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


@pytest.mark.parametrize("trust_text", ["[1, 2]", '"text"', "5", "null"])
def test_rank_non_object_trust_file_is_clean_error(tmp_path, capsys, trust_text):
    corpus = tmp_path / "cards.jsonl"
    cards_mod.write_cards(corpus, [random_card(random.Random(i)) for i in range(3)])
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


# A card with a credential, as `rank --corpus` and `dp --input` read it.
_INPUT_CARD = random_card(random.Random(3), with_credentials=True).to_json_obj()


def _with(obj: dict, path: tuple, value) -> dict:
    """Deep copy of a JSON object with the value at `path` replaced."""
    out = json.loads(json.dumps(obj))
    target = out
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return out


_INPUT_MODEL = {"theta": [1.0, 0.25, 0.0, 0.0], "bias": 0.0, "iterations": 0, "final_loss": None}
_INPUT_GRAPH = {"nodes": ["a", "b", "c"], "edges": [[0, 1, 0.9], [1, 2, 0.5], [2, 0, 0.7]]}


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '"x"',
        json.dumps(_with(_INPUT_CARD, ("description",), 5)),
        json.dumps(_with(_INPUT_CARD, ("credentials", 0, "claim_type"), 5)),
        json.dumps(_with(_INPUT_CARD, ("usage_count",), math.inf)),
    ],
    ids=["list", "string", "description-number", "claim-type-number", "usage-count-inf"],
)
def test_malformed_card_corpus_is_clean_error(tmp_path, capsys, line):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(line + "\n")
    for argv in (["rank", "--query", "q", "--corpus", str(corpus)], ["dp", "--input", str(corpus)]):
        code, stdout, stderr = _run(capsys, argv)
        assert code == 1
        assert "error" in _one_line_diagnostic(stdout, stderr)


def test_malformed_model_and_graph_are_clean_errors(tmp_path, capsys):
    corpus = tmp_path / "cards.jsonl"
    corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_with(_INPUT_MODEL, ("iterations",), math.inf)))
    code, stdout, stderr = _run(capsys, ["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)])
    assert code == 1
    assert "iterations" in _one_line_diagnostic(stdout, stderr)["error"]
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(_with(_INPUT_GRAPH, ("edges", 0, 1), math.inf)))
    code, stdout, stderr = _run(capsys, ["trust", "--graph", str(graph)])
    assert code == 1
    assert "graph edge index" in _one_line_diagnostic(stdout, stderr)["error"]


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
    "config_text",
    ['{"scenario":"sybil","n":1e400}', '{"scenario":"sybil","n":8,"sybil_internal_weights":[0.1]}'],
)
def test_sim_malformed_config_is_clean_error(tmp_path, capsys, config_text):
    config = tmp_path / "config.json"
    config.write_text(config_text)
    code, stdout, stderr = _run(capsys, ["sim", "--config", str(config), "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "error" in _one_line_diagnostic(stdout, stderr)


# -- the CLI contract over generated malformed inputs --------------------------

_SMALL_SIM_CONFIGS = [
    {"scenario": "convergence", "n": 4, "trials": 2, "seed": 1},
    {"scenario": "sybil", "n": 8, "seed": 1},
    {"scenario": "marketplace", "n": 4, "rounds": 2, "seed": 1},
    {"scenario": "discovery_e2e", "n": 6, "replicas": 2, "seed": 1, "k": 2},
]
_CONFIG_FIELDS = sorted(simnet.ScenarioConfig.__dataclass_fields__)
_RECORD_FIELDS = ["key", "metadata_url", "card_digest", "owner", "version", "signature"]

# Valid integers stay small so that no example runs a large scenario.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=8),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 0.5]),
    st.text(alphabet="0123456789abcdef:é", max_size=6),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="0123456789ab", max_size=2), children, max_size=3),
    max_leaves=6,
)


def _run_quietly(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(code: int, stderr: str) -> None:
    assert code in (0, 1)
    if code == 1:
        lines = stderr.splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])


@settings(max_examples=60)
@given(
    base=st.sampled_from(_SMALL_SIM_CONFIGS),
    sim_field=st.sampled_from(_CONFIG_FIELDS),
    sim_value=_json_values,
    record_index=st.integers(min_value=0, max_value=2),
    record_field=st.sampled_from(_RECORD_FIELDS),
    record_value=_json_values,
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


_CARD_PATHS = [(name,) for name in sorted(_INPUT_CARD)]
_CREDENTIAL_PATHS = [("credentials", 0, name) for name in sorted(_INPUT_CARD["credentials"][0])]
_MODEL_PATHS = [(name,) for name in sorted(_INPUT_MODEL)] + [("theta", 0)]
_GRAPH_PATHS = [("nodes",), ("edges",), ("nodes", 0), ("edges", 0)] + [("edges", 1, slot) for slot in range(3)]


@settings(max_examples=60)
@given(
    card_path=st.sampled_from(_CARD_PATHS + _CREDENTIAL_PATHS),
    card_value=_json_values,
    line=_json_values,
    model_path=st.sampled_from(_MODEL_PATHS),
    model_value=_json_values,
    graph_path=st.sampled_from(_GRAPH_PATHS),
    graph_value=_json_values,
)
def test_cli_input_files_keep_exit_code_and_stderr_contract(
    card_path, card_value, line, model_path, model_value, graph_path, graph_value
):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "cards.jsonl"
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(_INPUT_MODEL))
        for text in (json.dumps(_with(_INPUT_CARD, card_path, card_value)), json.dumps(line)):
            corpus.write_text(text + "\n")
            _assert_contract(*_run_quietly(["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)]))
            _assert_contract(*_run_quietly(["dp", "--input", str(corpus)]))

        corpus.write_text(json.dumps(_INPUT_CARD) + "\n")
        model.write_text(json.dumps(_with(_INPUT_MODEL, model_path, model_value)))
        _assert_contract(*_run_quietly(["rank", "--query", "q", "--corpus", str(corpus), "--model", str(model)]))

        graph = Path(tmp) / "graph.json"
        graph.write_text(json.dumps(_with(_INPUT_GRAPH, graph_path, graph_value)))
        _assert_contract(*_run_quietly(["trust", "--graph", str(graph)]))
